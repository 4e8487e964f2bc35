package cdn

import (
	"math"
	"testing"
	"time"

	"riptide/internal/netsim"
)

func TestSetPoPPathLoss(t *testing.T) {
	c := newSmallCluster(t, false, 41)
	if err := c.SetPoPPathLoss("atlantis", 0.1); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := c.SetPoPPathLoss("nrt", 0.2); err != nil {
		t.Fatal(err)
	}
	// A transfer to the degraded PoP must now see heavy loss.
	var res netsim.TransferResult
	if err := c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Minute)
	if res.Retransmits == 0 {
		t.Error("degraded path produced no retransmits")
	}
	c.Stop()
}

func TestInjectTransferValidation(t *testing.T) {
	c := newSmallCluster(t, false, 42)
	if err := c.InjectTransfer("nope", "lhr", 100, nil); err == nil {
		t.Error("unknown src accepted")
	}
	if err := c.InjectTransfer("lhr", "nope", 100, nil); err == nil {
		t.Error("unknown dst accepted")
	}
	if err := c.InjectTransfer("lhr", "lhr", 100, nil); err == nil {
		t.Error("intra-PoP transfer accepted")
	}
	c.Stop()
}

func TestFlashCrowdScenario(t *testing.T) {
	c := newSmallCluster(t, false, 43)
	crowd := FlashCrowd{
		Target:     "lhr",
		At:         time.Minute,
		For:        time.Minute,
		RatePerPoP: 2,
	}
	before := c.Engine().Fired()
	if err := crowd.Apply(c); err != nil {
		t.Fatal(err)
	}
	_ = before
	c.Run(3 * time.Minute)
	// The crowd pulls from lhr: lhr's host must have opened extra
	// outbound connections beyond probe traffic.
	h, _ := c.Host("lhr")
	_ = h
	c.Stop()

	// Validation paths.
	if err := (FlashCrowd{Target: "nope", At: 0, For: time.Second, RatePerPoP: 1}).Apply(c); err == nil {
		t.Error("unknown target accepted")
	}
	if err := (FlashCrowd{Target: "lhr"}).Apply(c); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestFlashCrowdIncreasesTargetLoad(t *testing.T) {
	transfers := func(withCrowd bool) uint64 {
		c := newSmallCluster(t, false, 44)
		if withCrowd {
			if err := (FlashCrowd{Target: "lhr", At: 30 * time.Second, For: time.Minute, RatePerPoP: 3}).Apply(c); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(2 * time.Minute)
		defer c.Stop()
		return c.Engine().Fired()
	}
	if base, crowd := transfers(false), transfers(true); crowd <= base {
		t.Errorf("crowd events %d <= baseline %d", crowd, base)
	}
}

func TestRegionalDegradationScenario(t *testing.T) {
	c := newSmallCluster(t, false, 45)
	deg := RegionalDegradation{
		PoP:          "nrt",
		At:           30 * time.Second,
		For:          time.Minute,
		LossRate:     0.3,
		BaselineLoss: 0.001,
	}
	if err := deg.Apply(c); err != nil {
		t.Fatal(err)
	}

	// During the episode, transfers to nrt are lossy.
	var during netsim.TransferResult
	_ = c.ScheduleAt(45*time.Second, func() {
		_ = c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { during = r })
	})
	// Afterwards the path heals.
	var after netsim.TransferResult
	_ = c.ScheduleAt(2*time.Minute, func() {
		_ = c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { after = r })
	})
	c.Run(4 * time.Minute)
	c.Stop()
	if during.Retransmits == 0 {
		t.Error("no retransmits during the degradation window")
	}
	if after.Retransmits >= during.Retransmits {
		t.Errorf("after-heal retransmits %d >= during %d", after.Retransmits, during.Retransmits)
	}

	if err := (RegionalDegradation{PoP: "nope", For: time.Second, LossRate: 0.1}).Apply(c); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := (RegionalDegradation{PoP: "nrt", For: time.Second, LossRate: 2}).Apply(c); err == nil {
		t.Error("loss >= 1 accepted")
	}
}

func TestRollingRebootsScenario(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:    smallTopology(),
		Seed:    46,
		Riptide: RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 20 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 2, "jfk": 2, "fra": 2, "nrt": 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	agentsBefore := map[string]bool{}
	for _, p := range c.PoPs() {
		agentsBefore[p.Name] = c.Agent(p.Name) != nil
	}

	wave := RollingReboots{
		PoPs:     []string{"lhr", "fra"},
		Start:    10 * time.Second,
		Interval: 30 * time.Second,
	}
	lhrBefore := c.Agent("lhr")
	if err := wave.Apply(c); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	if c.Agent("lhr") == lhrBefore {
		t.Error("lhr agent not replaced by rolling reboot")
	}
	// The rebooted PoPs relearn afterwards.
	if len(c.Agent("lhr").Entries()) == 0 {
		t.Error("lhr never relearned after reboot wave")
	}
	c.Stop()

	if err := (RollingReboots{}).Apply(c); err == nil {
		t.Error("empty PoP list accepted")
	}
	if err := (RollingReboots{PoPs: []string{"lhr"}}).Apply(c); err == nil {
		t.Error("zero interval accepted")
	}
	if err := (RollingReboots{PoPs: []string{"nope"}, Interval: time.Second}).Apply(c); err == nil {
		t.Error("unknown PoP accepted")
	}
}

// TestShiftWarningScenario: a shift warning damps the warned PoP's learned
// windows toward the target PoP and nothing else, and only the advised PoPs'
// agents carry an advisor.
func TestShiftWarningScenario(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:    smallTopology(),
		Seed:    47,
		Riptide: RiptideOptions{Enabled: true, Advised: []string{"jfk"}},
		Traffic: TrafficOptions{
			ProbeInterval: 20 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 4, "jfk": 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for _, p := range c.PoPs() {
		if advised := c.Agent(p.Name).Config().Advisor != nil; advised != (p.Name == "jfk") {
			t.Errorf("%s agent has an advisor: %v", p.Name, advised)
		}
	}
	lhr, _ := c.Host("lhr")
	jfk, _ := c.Host("jfk")
	fra, _ := c.Host("fra")
	c.Run(2 * time.Minute)
	full, ok := c.Agent("jfk").Lookup(lhr.Addr())
	if !ok || full <= 20 {
		t.Fatalf("jfk learned window toward lhr = %d, %v; want a jump-started one", full, ok)
	}
	if err := (ShiftWarning{PoPs: []string{"jfk"}, To: "lhr", At: time.Second, Factor: 0.25}).Apply(c); err != nil {
		t.Fatal(err)
	}
	fraBefore, _ := c.Agent("jfk").Lookup(fra.Addr())
	lhrBefore, _ := c.Agent("lhr").Lookup(jfk.Addr())
	c.Run(5 * time.Second)
	// The advisor damps the programmed window, clamp included: a quarter of
	// the window before the warning.
	if w, _ := c.Agent("jfk").Lookup(lhr.Addr()); w != int(math.Round(float64(full)*0.25)) {
		t.Errorf("warned jfk programs %d toward lhr, want a quarter of its %d before the warning", w, full)
	}
	if w, _ := c.Agent("jfk").Lookup(fra.Addr()); w*3 <= fraBefore*2 {
		t.Errorf("jfk's window toward fra fell from %d to %d; the warning names lhr", fraBefore, w)
	}
	if w, _ := c.Agent("lhr").Lookup(jfk.Addr()); w*3 <= lhrBefore*2 {
		t.Errorf("unwarned lhr's window toward jfk fell from %d to %d; only jfk was warned", lhrBefore, w)
	}

	if err := (ShiftWarning{PoPs: []string{"lhr"}, To: "jfk", Factor: 0.5}).Apply(c); err == nil {
		t.Error("warning to a PoP without advisors accepted")
	}
	if err := (ShiftWarning{PoPs: []string{"jfk"}, To: "nope", Factor: 0.5}).Apply(c); err == nil {
		t.Error("unknown target PoP accepted")
	}
	if err := (ShiftWarning{PoPs: []string{"jfk"}, To: "lhr", Factor: 0}).Apply(c); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestRTTBucketString(t *testing.T) {
	if BucketClose.String() != "<50ms" || BucketVeryFar.String() != ">150ms" {
		t.Error("bucket names wrong")
	}
	if RTTBucket(99).String() == "" {
		t.Error("unknown bucket empty")
	}
}

func TestCapacityCutScenario(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:             smallTopology(),
		Seed:             47,
		CapacitySegments: 400,
		Riptide:          RiptideOptions{Enabled: false},
		Traffic:          TrafficOptions{ProbeInterval: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := CapacityCut{
		PoP:             "nrt",
		From:            "lhr",
		At:              10 * time.Second,
		For:             time.Minute,
		Segments:        5,
		RestoreSegments: 400,
	}
	if err := cut.Apply(c); err != nil {
		t.Fatal(err)
	}
	var during, after netsim.TransferResult
	_ = c.ScheduleAt(20*time.Second, func() {
		_ = c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { during = r })
	})
	_ = c.ScheduleAt(2*time.Minute, func() {
		_ = c.InjectTransfer("lhr", "nrt", 512*1024, func(r netsim.TransferResult) { after = r })
	})
	c.Run(4 * time.Minute)
	c.Stop()
	if during.Retransmits == 0 {
		t.Error("no retransmits through the capacity cut")
	}
	if after.Retransmits >= during.Retransmits {
		t.Errorf("post-restore retransmits %d >= during %d", after.Retransmits, during.Retransmits)
	}

	if err := (CapacityCut{PoP: "nope", Segments: 10}).Apply(c); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := (CapacityCut{PoP: "nrt", From: "nope", Segments: 10}).Apply(c); err == nil {
		t.Error("unknown From accepted")
	}
	if err := (CapacityCut{PoP: "nrt", From: "nrt", Segments: 10}).Apply(c); err == nil {
		t.Error("self pair accepted")
	}
	if err := (CapacityCut{PoP: "nrt", Segments: 0}).Apply(c); err == nil {
		t.Error("zero segments accepted")
	}
	if err := (CapacityCut{PoP: "nrt", Segments: 10, At: -time.Second}).Apply(c); err == nil {
		t.Error("negative start accepted")
	}
}

func TestPathFlapScenario(t *testing.T) {
	c := newSmallCluster(t, false, 48)
	base, err := c.BaselinePairRTT("lhr", "nrt")
	if err != nil {
		t.Fatal(err)
	}
	flap := PathFlap{A: "lhr", B: "nrt", At: 10 * time.Second, For: time.Minute, RTTScale: 3}
	if err := flap.Apply(c); err != nil {
		t.Fatal(err)
	}
	var during, after netsim.TransferResult
	_ = c.ScheduleAt(20*time.Second, func() {
		_ = c.InjectTransfer("lhr", "nrt", 1000, func(r netsim.TransferResult) { during = r })
	})
	_ = c.ScheduleAt(2*time.Minute, func() {
		_ = c.InjectTransfer("lhr", "nrt", 1000, func(r netsim.TransferResult) { after = r })
	})
	c.Run(4 * time.Minute)
	c.Stop()
	// A one-round transfer's elapsed time is one (possibly flapped) RTT.
	if during.Elapsed < time.Duration(2.9*float64(base)) {
		t.Errorf("during-flap transfer %v not slowed (baseline %v)", during.Elapsed, base)
	}
	if after.Elapsed != base {
		t.Errorf("post-flap transfer %v, want baseline %v", after.Elapsed, base)
	}

	if err := (PathFlap{A: "lhr", B: "nope", For: time.Second, RTTScale: 2}).Apply(c); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := (PathFlap{A: "lhr", B: "lhr", For: time.Second, RTTScale: 2}).Apply(c); err == nil {
		t.Error("self flap accepted")
	}
	if err := (PathFlap{A: "lhr", B: "nrt", For: time.Second, RTTScale: 0}).Apply(c); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestPeerPartitionScenario(t *testing.T) {
	c := newSmallCluster(t, false, 49)
	part := PeerPartition{A: "lhr", B: "nrt", At: 45 * time.Second, For: 90 * time.Second}
	if err := part.Apply(c); err != nil {
		t.Fatal(err)
	}
	// Mid-partition, transfers between the pair cannot open; unrelated
	// pairs are fine; afterwards the pair heals.
	var midErr, otherErr, afterErr error
	ran := false
	_ = c.ScheduleAt(time.Minute, func() {
		midErr = c.InjectTransfer("lhr", "nrt", 1000, nil)
		otherErr = c.InjectTransfer("lhr", "fra", 1000, nil)
	})
	_ = c.ScheduleAt(3*time.Minute, func() {
		afterErr = c.InjectTransfer("lhr", "nrt", 1000, nil)
		ran = true
	})
	c.Run(4 * time.Minute)
	c.Stop()
	if !ran {
		t.Fatal("schedule did not run")
	}
	if midErr == nil {
		t.Error("transfer across the partition succeeded")
	}
	if otherErr != nil {
		t.Errorf("unrelated pair failed: %v", otherErr)
	}
	if afterErr != nil {
		t.Errorf("post-heal transfer failed: %v", afterErr)
	}
	// Probes across the partition were recorded as failures.
	failed := false
	for _, f := range c.ProbeFailures() {
		pair := (f.Src == "lhr" && f.Dst == "nrt") || (f.Src == "nrt" && f.Dst == "lhr")
		if pair {
			failed = true
			if f.At < 45*time.Second || f.At >= 135*time.Second {
				t.Errorf("failure at %v outside the partition window", f.At)
			}
		}
	}
	if !failed {
		t.Error("no probe failures recorded across the partition")
	}

	if err := (PeerPartition{A: "lhr", B: "nope", For: time.Second}).Apply(c); err == nil {
		t.Error("unknown PoP accepted")
	}
	if err := (PeerPartition{A: "lhr", B: "lhr", For: time.Second}).Apply(c); err == nil {
		t.Error("self partition accepted")
	}
	if err := (PeerPartition{A: "lhr", B: "nrt", For: 0}).Apply(c); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestFlashCrowdRejectsNegativeParams(t *testing.T) {
	c := newSmallCluster(t, false, 50)
	defer c.Stop()
	if err := (FlashCrowd{Target: "lhr", For: time.Second, RatePerPoP: 1, At: -time.Second}).Apply(c); err == nil {
		t.Error("negative At accepted")
	}
	if err := (FlashCrowd{Target: "lhr", For: time.Second, RatePerPoP: 1, SizeBytes: -1}).Apply(c); err == nil {
		t.Error("negative SizeBytes accepted")
	}
	// Zero size still defaults to 100 KB.
	if err := (FlashCrowd{Target: "lhr", For: time.Second, RatePerPoP: 1, SizeBytes: 0}).Apply(c); err != nil {
		t.Errorf("zero size rejected: %v", err)
	}
}

func TestClusterCountersAndQuarantineAccessors(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:     smallTopology(),
		Seed:     51,
		LossRate: 0.05,
		Riptide:  RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 20 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	defer c.Stop()
	if c.TotalRetransmits() == 0 {
		t.Error("lossy cluster recorded no retransmits")
	}
	if c.TotalRoutes() == 0 {
		t.Error("riptide cluster learned no routes")
	}
	// No guard configured: quarantine count is zero by definition.
	if got := c.QuarantineCount(); got != 0 {
		t.Errorf("guardless QuarantineCount = %d", got)
	}
}
