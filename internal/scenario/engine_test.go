package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/guard"
)

// quickScenario is small enough to execute in tests: four PoPs, a partition
// and a reboot, both run groups.
const quickScenario = `
name: engine-test
fleet:
  pops: [lhr, fra, jfk, nrt]
  seed: 11
  loss_rate: 0.001
  riptide:
    enabled: true
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [50]
duration: 4m
compare:
  control:
    enabled: false
events:
  - at: 90s
    peer_partition:
      a: lhr
      b: jfk
      for: 60s
assertions:
  - riptide.probe_failures.during >= 1
  - riptide.probe_failures.after == 0
  - riptide.routes.end > 0
  - control.routes.end == 0
`

func runQuick(t *testing.T, src string) *Report {
	t.Helper()
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEngineEndToEnd(t *testing.T) {
	rep := runQuick(t, quickScenario)
	if len(rep.Runs) != 2 || rep.Runs[0].Name != "riptide" || rep.Runs[1].Name != "control" {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("assertions failed:\n%s", b)
	}
	if rep.Phases.During != "1m30s..2m30s" {
		t.Errorf("during phase = %q", rep.Phases.During)
	}
}

// TestDeterminismPin is the format's core promise: the same file with the
// same seed produces byte-identical reports, and changing only the seed
// changes them.
func TestDeterminismPin(t *testing.T) {
	enc := func(src string) []byte {
		rep := runQuick(t, src)
		b, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := enc(quickScenario)
	b := enc(quickScenario)
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario, same seed, different reports:\n%s\n---\n%s", a, b)
	}
	reseeded := strings.Replace(quickScenario, "seed: 11", "seed: 12", 1)
	c := enc(reseeded)
	if bytes.Equal(a, c) {
		t.Fatal("changing the seed did not change the report")
	}
}

func TestEngineRecoveryTracking(t *testing.T) {
	src := `
name: reboot-test
fleet:
  pops: [lhr, fra, jfk]
  hosts_per_pop: 2
  seed: 3
  riptide:
    enabled: true
  traffic:
    probe_interval: 20s
    probe_sizes_kb: [10]
duration: 4m
events:
  - at: 0s
    enable_gossip_sharing:
      interval: 5s
      peers: pop
  - at: 1m59s
    host_reboot:
      pop: lhr
      host: 0
      track_recovery: 0.9
assertions:
  - riptide.recovery_ticks <= 60
  - riptide.recovery_ticks >= 1
`
	rep := runQuick(t, src)
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("recovery assertions failed:\n%s", b)
	}
}

func TestEngineKnobAndWindow(t *testing.T) {
	src := `
name: knob-test
fleet:
  pops: [lhr, jfk]
  seed: 5
  capacity_segments: 400
  riptide:
    enabled: true
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [100]
duration: 3m
window:
  start: 90s
  end: 2m
events:
  - at: 90s
    set_knob:
      knob: pair_capacity
      a: lhr
      b: jfk
      value: 8
assertions:
  - riptide.retrans.during + riptide.retrans.after > riptide.retrans.before
`
	rep := runQuick(t, src)
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("knob assertions failed:\n%s", b)
	}
	if rep.Phases.During != "1m30s..2m0s" {
		t.Errorf("explicit window ignored: during = %q", rep.Phases.During)
	}
}

// coldReboot is a probe-paced cold recovery: no sharing, so the rebooted
// machine re-learns a destination only when one of its own two-minute probe
// rounds reaches it. How long that takes in simulated time does not depend on
// the agents' cadence.
const coldReboot = `
name: tick-unit-test
fleet:
  pops: [lhr, fra, jfk, nrt]
  hosts_per_pop: 2
  seed: 3
  riptide:
    enabled: true
    ttl: 10m
  traffic:
    probe_interval: 2m
    probe_sizes_kb: [10]
    idle_timeout: 1m
duration: 20m
events:
  - at: 10m
    host_reboot:
      pop: lhr
      host: 0
      track_recovery: 0.9
`

// TestTickMetricsCountUpdateIntervals pins the unit of recovery_ticks: agent
// update intervals, not seconds. The same incident observed by agents ticking
// every 2 s takes the same simulated time and therefore half the ticks.
func TestTickMetricsCountUpdateIntervals(t *testing.T) {
	ticks := func(src string) float64 {
		rep := runQuick(t, src)
		for _, m := range rep.Runs[0].Metrics {
			if m.Name == "recovery_ticks" {
				return m.Value
			}
		}
		t.Fatalf("no recovery_ticks in %+v", rep.Runs[0].Metrics)
		return 0
	}
	at1s := ticks(coldReboot)
	at2s := ticks(strings.Replace(coldReboot, "    ttl: 10m", "    ttl: 10m\n    update_interval: 2s", 1))
	t.Logf("recovery_ticks: %v at 1s, %v at 2s", at1s, at2s)
	if at1s < 60 {
		t.Fatalf("cold recovery took %v ticks at 1s; the scenario is not probe-paced", at1s)
	}
	// Each run rounds up to its own tick grid, so allow one interval of slack.
	if d := at1s - 2*at2s; d < -2 || d > 2 {
		t.Errorf("recovery_ticks = %v at 1s and %v at 2s; want the second to be half the first", at1s, at2s)
	}
}

// TestEngineSharingControl checks the sharing-off compare arm and the
// host-scoped recovery count it exists for: with sharing the rebooted machine
// is back within a few ticks, without it the same machine needs its own probe
// rounds — a difference a fleet-wide route count (one machine of eight) never
// showed.
func TestEngineSharingControl(t *testing.T) {
	src := strings.Replace(coldReboot, "events:\n", "compare:\n  control: {sharing: false}\nevents:\n  - at: 0s\n    enable_gossip_sharing:\n      interval: 5s\n      peers: pop\n", 1) +
		"assertions:\n  - riptide.recovery_target >= 1\n  - riptide.recovery_target == control.recovery_target\n  - 4 * riptide.recovery_ticks <= control.recovery_ticks\n"
	rep := runQuick(t, src)
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("sharing-control assertions failed:\n%s", b)
	}
}

// armsScenario compares three patched arms against the main run and samples
// windows from the second minute on.
const armsScenario = `
name: arms-test
fleet:
  pops: [lhr, fra, jfk]
  seed: 5
  riptide:
    enabled: true
  traffic:
    probe_interval: 20s
    probe_sizes_kb: [50]
    organic:
      lhr: 2
      fra: 0.5
      jfk: 0.5
duration: 3m
window: {start: 1m, end: 3m}
compare:
  control:
    enabled: false
  cmax_20:
    cmax: 20
  max_nohist:
    combiner: max
    history: none
events:
  - at: 1m
    start_cwnd_sampling:
      pops: [lhr]
assertions:
  - riptide.cwnd.p50 > control.cwnd.p50
`

// TestEngineArmsAndRecords runs a multi-arm compare block: the runs come out
// main first and then in file order, each arm's patch reaches its agents, and
// the records handed to the caller are the ones the metrics summarise.
func TestEngineArmsAndRecords(t *testing.T) {
	sp, err := Parse([]byte(armsScenario))
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]Records{}
	rep, err := sp.Run(func(run string, rec Records) { recs[run] = rec })
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	metric := map[string]float64{}
	for _, r := range rep.Runs {
		names = append(names, r.Name)
		for _, m := range r.Metrics {
			metric[r.Name+"."+m.Name] = m.Value
		}
	}
	if got := strings.Join(names, ","); got != "riptide,control,cmax_20,max_nohist" || len(recs) != 4 {
		t.Fatalf("runs = %s, records for %d", got, len(recs))
	}
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("assertions failed:\n%s", b)
	}
	maxInit := func(run string) int {
		highest := 0
		for _, p := range recs[run].Probes {
			highest = max(highest, p.InitCwnd)
		}
		return highest
	}
	if maxInit("cmax_20") > 20 || maxInit("riptide") <= 20 || maxInit("control") > 10 {
		t.Errorf("probe initcwnd maxima: riptide %d, cmax_20 %d, control %d; the arm patches did not reach the agents",
			maxInit("riptide"), maxInit("cmax_20"), maxInit("control"))
	}
	if recs["control"].RoutesSet != 0 || recs["riptide"].RoutesSet == 0 {
		t.Errorf("routes set: control %d, riptide %d", recs["control"].RoutesSet, recs["riptide"].RoutesSet)
	}
	if recs["max_nohist"].RoutesSet == recs["riptide"].RoutesSet {
		t.Errorf("max/no-history arm programmed exactly as many routes (%d) as the default", recs["riptide"].RoutesSet)
	}
	for run, rec := range recs {
		if got, want := float64(len(rec.Probes)), metric[run+".probes.total"]; got != want {
			t.Errorf("%s: %v probe records, probes.total %v", run, got, want)
		}
		after := 0
		for _, s := range rec.Cwnd {
			if s.At < time.Minute+20*time.Second {
				t.Fatalf("%s: cwnd sample at %v, before the sampler's first tick", run, s.At)
			}
			if s.OpenedAfterStart {
				after++
			}
		}
		if after == 0 || float64(after) != metric[run+".cwnd.samples"] {
			t.Errorf("%s: %d samples opened after start, cwnd.samples %v", run, after, metric[run+".cwnd.samples"])
		}
		if _, ok := metric[run+".cwnd.p50.lhr"]; !ok {
			t.Errorf("%s: no cwnd.p50.lhr", run)
		}
		if _, ok := metric[run+".cwnd.p50.fra"]; ok {
			t.Errorf("%s: cwnd.p50.fra reported for a PoP the event does not name", run)
		}
	}
}

// TestFleetKeysReachAgents sets every fleet.riptide key, and every arm key,
// to a value other than its default, builds each run's cluster, and reads
// the knobs back from every agent: a key the decoder drops shows here.
func TestFleetKeysReachAgents(t *testing.T) {
	const src = `name: knobs
fleet:
  pops: [lhr, fra]
  hosts_per_pop: 2
  riptide:
    enabled: true
    cmax: 120
    cmin: 4
    alpha: 0.3
    update_interval: 2s
    ttl: 45s
    prefix_bits: 24
    combiner: max
    history: none
    guard:
      holdback: 0.1
      min_segments: 30
      hysteresis_ticks: 3
      quarantine_ttl: 7m
duration: 1m
compare:
  tuned:
    cmax: 80
    cmin: 6
    alpha: 0.7
    update_interval: 3s
    ttl: 2m
    prefix_bits: 16
    combiner: traffic-weighted
    history: ewma
    guard: false
  trend:
    history: trend
`
	// guarded holds the four guard keys (guard.Config also holds a Clock,
	// which makes it incomparable).
	type guarded struct {
		holdback    float64
		minSegments int64
		hysteresis  int
		quarantine  time.Duration
	}
	type knobs struct {
		cmax, cmin int
		alpha      float64
		iu, ttl    time.Duration
		bits       int
		combiner   string
		history    string
		guard      guarded
	}
	want := map[string]knobs{
		"riptide": {120, 4, 0.3, 2 * time.Second, 45 * time.Second, 24, "max", "none",
			guarded{0.1, 30, 3, 7 * time.Minute}},
		"tuned": {80, 6, 0.7, 3 * time.Second, 2 * time.Minute, 16, "traffic-weighted", "ewma", guarded{}},
		"trend": {120, 4, 0.3, 2 * time.Second, 45 * time.Second, 24, "max", "trend",
			guarded{0.1, 30, 3, 7 * time.Minute}},
	}
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	// A stateful history policy serves one agent: no two agents share one.
	policies := make(map[core.HistoryPolicy]bool)
	for _, arm := range append([]Arm{sp.mainRun()}, sp.Arms...) {
		c, err := sp.cluster(arm)
		if err != nil {
			t.Fatal(err)
		}
		agents := 0
		for _, p := range c.PoPs() {
			for _, a := range c.Agents(p.Name) {
				agents++
				cfg := a.Config()
				got := knobs{cfg.CMax, cfg.CMin, cfg.Alpha, cfg.UpdateInterval, cfg.TTL, cfg.PrefixBits,
					cfg.Combiner.Name(), cfg.History.Name(), guarded{}}
				if g, ok := cfg.Guard.(*guard.Governor); ok {
					gc := g.Config()
					got.guard = guarded{gc.Holdback, gc.MinSegments, gc.HysteresisTicks, gc.QuarantineTTL}
				} else if cfg.Guard != nil {
					t.Errorf("%s: governor %T", arm.Name, cfg.Guard)
				}
				if h, ok := cfg.History.(*core.TrendHistory); ok {
					if policies[h] {
						t.Errorf("%s agent %s shares its trend history", arm.Name, p.Name)
					}
					policies[h] = true
				}
				if got != want[arm.Name] {
					t.Errorf("%s agent %s: knobs %+v, want %+v", arm.Name, p.Name, got, want[arm.Name])
				}
			}
		}
		c.Stop()
		if agents != 4 {
			t.Errorf("%s: %d agents, want 2 PoPs x 2 hosts", arm.Name, agents)
		}
	}
}
