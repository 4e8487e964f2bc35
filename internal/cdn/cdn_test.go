package cdn

import (
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/kernel"
	"riptide/internal/netsim"
	"riptide/internal/stats"
)

func TestDefaultTopologyMatchesTableII(t *testing.T) {
	pops := DefaultTopology()
	if len(pops) != 34 {
		t.Fatalf("PoP count = %d, want 34", len(pops))
	}
	census := Census(pops)
	want := map[Continent]int{
		Europe:       10,
		NorthAmerica: 11,
		SouthAmerica: 1,
		Asia:         9,
		Oceania:      3,
	}
	for cont, n := range want {
		if census[cont] != n {
			t.Errorf("%v = %d PoPs, want %d (Table II)", cont, census[cont], n)
		}
	}
}

func TestTopologyUniqueNamesAndAddrs(t *testing.T) {
	pops := DefaultTopology()
	names := make(map[string]bool)
	addrs := make(map[string]bool)
	for _, p := range pops {
		if names[p.Name] {
			t.Errorf("duplicate PoP name %q", p.Name)
		}
		names[p.Name] = true
		if addrs[p.Addr.String()] {
			t.Errorf("duplicate PoP addr %v", p.Addr)
		}
		addrs[p.Addr.String()] = true
		if !p.Addr.IsValid() {
			t.Errorf("PoP %s has invalid addr", p.Name)
		}
		if p.Prefix().Bits() != 24 {
			t.Errorf("PoP %s prefix = %v, want /24", p.Name, p.Prefix())
		}
	}
}

func TestContinentString(t *testing.T) {
	if Europe.String() != "Europe" || NorthAmerica.String() != "North America" {
		t.Error("continent names wrong")
	}
	if Continent(99).String() == "" {
		t.Error("unknown continent empty")
	}
}

// TestRTTDistributionMatchesFigure5 checks the headline statistic: 50% of
// inter-PoP links have RTT > 125 ms.
func TestRTTDistributionMatchesFigure5(t *testing.T) {
	rtts := PairRTTs(DefaultTopology())
	if len(rtts) != 34*33/2 {
		t.Fatalf("pair count = %d", len(rtts))
	}
	vals := make([]float64, len(rtts))
	for i, r := range rtts {
		vals[i] = float64(r.Milliseconds())
	}
	c := stats.FromSamples(vals)
	med, err := c.Median()
	if err != nil {
		t.Fatal(err)
	}
	if med <= 125 {
		t.Errorf("median inter-PoP RTT = %vms, paper reports > 125ms", med)
	}
	if med > 250 {
		t.Errorf("median inter-PoP RTT = %vms, implausibly high", med)
	}
}

func TestRTTBetweenSymmetricAndPositive(t *testing.T) {
	pops := DefaultTopology()
	a, b := pops[0], pops[23] // London <-> Tokyo
	ab, ba := RTTBetween(a, b), RTTBetween(b, a)
	if ab != ba {
		t.Errorf("RTT asymmetric: %v vs %v", ab, ba)
	}
	if ab < 100*time.Millisecond || ab > 500*time.Millisecond {
		t.Errorf("London-Tokyo RTT = %v, implausible", ab)
	}
	if self := RTTBetween(a, a); self < minRTT {
		t.Errorf("self RTT = %v below floor", self)
	}
}

func TestBucketFor(t *testing.T) {
	tests := []struct {
		rtt  time.Duration
		want RTTBucket
	}{
		{10 * time.Millisecond, BucketClose},
		{50 * time.Millisecond, BucketClose},
		{51 * time.Millisecond, BucketMedium},
		{100 * time.Millisecond, BucketMedium},
		{101 * time.Millisecond, BucketFar},
		{150 * time.Millisecond, BucketFar},
		{151 * time.Millisecond, BucketVeryFar},
		{400 * time.Millisecond, BucketVeryFar},
	}
	for _, tt := range tests {
		if got := BucketFor(tt.rtt); got != tt.want {
			t.Errorf("BucketFor(%v) = %v, want %v", tt.rtt, got, tt.want)
		}
	}
	if len(AllBuckets()) != 4 {
		t.Error("AllBuckets != 4")
	}
}

// smallTopology returns a 4-PoP subset for fast cluster tests, spanning all
// RTT buckets.
func smallTopology() []PoP {
	pops := DefaultTopology()
	pick := map[string]bool{"lhr": true, "fra": true, "jfk": true, "nrt": true}
	var out []PoP
	for _, p := range pops {
		if pick[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

func newSmallCluster(t *testing.T, riptide bool, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		PoPs:     smallTopology(),
		Seed:     seed,
		LossRate: 0.001,
		Riptide:  RiptideOptions{Enabled: riptide},
		Traffic: TrafficOptions{
			ProbeInterval: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{PoPs: smallTopology()[:1]}); err == nil {
		t.Error("single-PoP cluster accepted")
	}
	if _, err := NewCluster(Config{PoPs: smallTopology(), Traffic: TrafficOptions{ProbeInterval: -1}}); err == nil {
		t.Error("negative probe interval accepted")
	}
	if _, err := NewCluster(Config{PoPs: smallTopology(), Traffic: TrafficOptions{CloseAfterTransferProb: 2}}); err == nil {
		t.Error("probability > 1 accepted")
	}
	dup := smallTopology()
	dup[1].Name = dup[0].Name
	if _, err := NewCluster(Config{PoPs: dup}); err == nil {
		t.Error("duplicate PoP accepted")
	}
}

func TestClusterProbesRecorded(t *testing.T) {
	c := newSmallCluster(t, false, 1)
	c.Run(5 * time.Minute)
	c.Stop()
	probes := c.ProbeRecords()
	if len(probes) == 0 {
		t.Fatal("no probes recorded")
	}
	// 4 PoPs, 12 ordered pairs, 3 sizes, ~10 rounds in 5min.
	if len(probes) < 12*3*5 {
		t.Errorf("probe count = %d, want >= 180", len(probes))
	}
	sizes := map[int]bool{}
	for _, p := range probes {
		sizes[p.SizeBytes] = true
		if p.Elapsed <= 0 {
			t.Fatalf("probe with non-positive elapsed: %+v", p)
		}
		if p.Rounds < 1 {
			t.Fatalf("probe with zero rounds: %+v", p)
		}
		if p.Bucket != BucketFor(p.RTT) {
			t.Fatalf("bucket mismatch: %+v", p)
		}
	}
	for _, s := range []int{10240, 51200, 102400} {
		if !sizes[s] {
			t.Errorf("no probes of size %d", s)
		}
	}
}

func TestControlClusterUsesDefaultIW(t *testing.T) {
	c := newSmallCluster(t, false, 2)
	c.Run(3 * time.Minute)
	c.Stop()
	for _, p := range c.ProbeRecords() {
		if p.InitCwnd != kernel.DefaultInitCwnd {
			t.Fatalf("control probe with initcwnd %d: %+v", p.InitCwnd, p)
		}
	}
}

func TestRiptideClusterLearnsWindows(t *testing.T) {
	c := newSmallCluster(t, true, 3)
	c.Run(10 * time.Minute)

	// Agents must have learned entries for active destinations. Inspect
	// before Stop: closing an agent withdraws its routes and entries.
	agent := c.Agent("lhr")
	if agent == nil {
		t.Fatal("no agent for lhr")
	}
	if entries := agent.Entries(); len(entries) == 0 {
		t.Error("lhr agent learned nothing")
	}
	c.Stop()

	// Some fresh connections must have started above the default window.
	raised := 0
	fresh := 0
	for _, p := range c.ProbeRecords() {
		if !p.FreshConn {
			continue
		}
		fresh++
		if p.InitCwnd > kernel.DefaultInitCwnd {
			raised++
		}
	}
	if fresh == 0 {
		t.Fatal("no fresh connections (pool churn broken)")
	}
	if raised == 0 {
		t.Error("riptide never raised an initial window on a fresh connection")
	}
}

func TestRiptideImprovesLargeProbes(t *testing.T) {
	meanElapsed := func(riptide bool) map[int]float64 {
		c := newSmallCluster(t, riptide, 4)
		c.Run(15 * time.Minute)
		c.Stop()
		sums := map[int]float64{}
		counts := map[int]float64{}
		for _, p := range c.ProbeRecords() {
			// Skip the first 2 minutes: Riptide warm-up.
			if p.At < 2*time.Minute || !p.FreshConn {
				continue
			}
			sums[p.SizeBytes] += float64(p.Elapsed.Milliseconds())
			counts[p.SizeBytes]++
		}
		out := map[int]float64{}
		for s := range sums {
			out[s] = sums[s] / counts[s]
		}
		return out
	}
	control, riptide := meanElapsed(false), meanElapsed(true)
	if riptide[102400] >= control[102400] {
		t.Errorf("100KB probes: riptide %.1fms >= control %.1fms", riptide[102400], control[102400])
	}
	// 10KB probes fit in the default window: no effect expected (Fig 12).
	if control[10240] > 0 {
		ratio := riptide[10240] / control[10240]
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("10KB probes changed by ratio %.2f, want ~1.0 (paper Fig 12)", ratio)
		}
	}
}

func TestCwndSampling(t *testing.T) {
	c := newSmallCluster(t, true, 5)
	if err := c.StartCwndSampling(0); err == nil {
		t.Error("zero interval accepted")
	}
	if err := c.StartCwndSampling(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute)
	c.Stop()
	samples := c.CwndSamples()
	if len(samples) == 0 {
		t.Fatal("no cwnd samples")
	}
	for _, s := range samples {
		if s.Cwnd < 1 {
			t.Fatalf("sample with cwnd %d", s.Cwnd)
		}
	}
}

func TestClusterDeterministicReplay(t *testing.T) {
	run := func() (int, time.Duration) {
		c := newSmallCluster(t, true, 42)
		c.Run(5 * time.Minute)
		c.Stop()
		var total time.Duration
		probes := c.ProbeRecords()
		for _, p := range probes {
			total += p.Elapsed
		}
		return len(probes), total
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Errorf("replay diverged: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}

func TestOrganicTrafficRaisesWindows(t *testing.T) {
	// Figure 11: a PoP with organic traffic should learn larger windows
	// than a probe-only PoP.
	c, err := NewCluster(Config{
		PoPs:     smallTopology(),
		Seed:     6,
		LossRate: 0.001,
		Riptide:  RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 30 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.StartCwndSampling(time.Minute)
	c.Run(15 * time.Minute)
	c.Stop()

	byPoP := map[string][]float64{}
	for _, s := range c.CwndSamples() {
		if s.OpenedAfterStart {
			byPoP[s.Src] = append(byPoP[s.Src], float64(s.Cwnd))
		}
	}
	busy, quiet := byPoP["lhr"], byPoP["jfk"]
	if len(busy) == 0 || len(quiet) == 0 {
		t.Fatalf("missing samples: busy=%d quiet=%d", len(busy), len(quiet))
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if mean(busy) <= mean(quiet) {
		t.Errorf("busy PoP mean cwnd %.1f <= probe-only %.1f (paper Fig 11 expects higher)", mean(busy), mean(quiet))
	}
}

func TestHostAndAgentAccessors(t *testing.T) {
	c := newSmallCluster(t, false, 7)
	if _, err := c.Host("lhr"); err != nil {
		t.Error(err)
	}
	if _, err := c.Host("nope"); err == nil {
		t.Error("unknown PoP accepted")
	}
	if c.Agent("lhr") != nil {
		t.Error("control cluster has agent")
	}
	if len(c.PoPs()) != 4 {
		t.Error("PoPs accessor wrong")
	}
	c.Stop()
}

func TestPairRTTsSorted(t *testing.T) {
	rtts := PairRTTs(smallTopology())
	if len(rtts) != 6 {
		t.Fatalf("pairs = %d, want 6", len(rtts))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if rtts[0] <= 0 {
		t.Error("non-positive RTT")
	}
}

func TestMultiHostPoPs(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:        smallTopology(),
		HostsPerPoP: 3,
		Seed:        21,
		Riptide:     RiptideOptions{Enabled: true},
		Traffic:     TrafficOptions{ProbeInterval: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := c.Hosts("lhr")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 3 {
		t.Fatalf("hosts = %d, want 3", len(hs))
	}
	seen := map[string]bool{}
	for _, h := range hs {
		if seen[h.Addr().String()] {
			t.Fatalf("duplicate host address %v", h.Addr())
		}
		seen[h.Addr().String()] = true
	}
	if c.HostsPerPoP() != 3 {
		t.Errorf("HostsPerPoP = %d", c.HostsPerPoP())
	}
	if got := len(c.Agents("lhr")); got != 3 {
		t.Errorf("agents = %d, want 3", got)
	}

	c.Run(5 * time.Minute)
	// Every machine probes: 3 hosts x 3 dests x 3 sizes per round.
	probes := c.ProbeRecords()
	if len(probes) == 0 {
		t.Fatal("no probes with multi-host PoPs")
	}
	srcHosts := map[string]bool{}
	for _, p := range probes {
		if p.Src == "lhr" {
			srcHosts[p.SrcHost.String()] = true
		}
	}
	if len(srcHosts) != 3 {
		t.Errorf("probing source hosts = %d, want 3", len(srcHosts))
	}
	c.Stop()
}

func TestMultiHostValidation(t *testing.T) {
	if _, err := NewCluster(Config{PoPs: smallTopology(), HostsPerPoP: -1}); err == nil {
		t.Error("negative hosts accepted")
	}
	if _, err := NewCluster(Config{PoPs: smallTopology(), HostsPerPoP: 300}); err == nil {
		t.Error("oversized hosts accepted")
	}
}

func TestPrefixAggregationAcrossHosts(t *testing.T) {
	// With /24 granularity, one agent aggregates its observations of all
	// machines in a remote PoP into a single route — the paper's
	// "Destinations as Routes" example becomes observable only with
	// multiple hosts per PoP.
	c, err := NewCluster(Config{
		PoPs:        smallTopology(),
		HostsPerPoP: 2,
		Seed:        22,
		Riptide:     RiptideOptions{Enabled: true, PrefixBits: 24},
		Traffic:     TrafficOptions{ProbeInterval: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	agent := c.Agent("lhr")
	if agent == nil {
		t.Fatal("no agent")
	}
	for _, e := range agent.Entries() {
		if e.Prefix.Bits() != 24 {
			t.Errorf("entry %v not aggregated to /24", e.Prefix)
		}
	}
	if len(agent.Entries()) == 0 {
		t.Error("agent learned nothing")
	}
	c.Stop()
}

func TestRebootPoPKillsStateAndRecovers(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs:    smallTopology(),
		Seed:    31,
		Riptide: RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 30 * time.Second,
			OrganicRates:  map[string]float64{"lhr": 3, "jfk": 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)

	jfkAgent := c.Agent("jfk")
	if len(jfkAgent.Entries()) == 0 {
		t.Fatal("jfk agent learned nothing before reboot")
	}
	jfkHost, _ := c.Host("jfk")
	if jfkHost.RouteCount() == 0 {
		t.Fatal("no routes before reboot")
	}

	closed, err := c.RebootPoP("jfk")
	if err != nil {
		t.Fatal(err)
	}
	if closed == 0 {
		t.Error("reboot closed no connections")
	}
	if jfkHost.ConnCount() != 0 {
		t.Errorf("jfk still has %d connections after reboot", jfkHost.ConnCount())
	}
	if jfkHost.RouteCount() != 0 {
		t.Errorf("jfk still has %d routes after reboot", jfkHost.RouteCount())
	}
	fresh := c.Agent("jfk")
	if fresh == jfkAgent {
		t.Error("agent not replaced by reboot")
	}
	if len(fresh.Entries()) != 0 {
		t.Errorf("fresh agent has %d entries", len(fresh.Entries()))
	}

	// The PoP relearns from post-reboot traffic.
	c.Run(5 * time.Minute)
	if len(fresh.Entries()) == 0 {
		t.Error("rebooted PoP never relearned")
	}
	c.Stop()
}

func TestRebootUnknownPoP(t *testing.T) {
	c := newSmallCluster(t, true, 32)
	if _, err := c.RebootPoP("atlantis"); err == nil {
		t.Error("unknown PoP accepted")
	}
	c.Stop()
}

func TestRebootControlClusterNoAgents(t *testing.T) {
	c := newSmallCluster(t, false, 33)
	c.Run(2 * time.Minute)
	if _, err := c.RebootPoP("lhr"); err != nil {
		t.Fatalf("reboot without agents: %v", err)
	}
	c.Stop()
}

// TestPoolSweeperDropsEmptyPools checks the sweeper's bookkeeping: the order
// list names exactly the pools in the map, and once every pooled connection
// has idled out the sweeper holds nothing to walk.
func TestPoolSweeperDropsEmptyPools(t *testing.T) {
	c, err := NewCluster(Config{
		PoPs: smallTopology(),
		Seed: 1,
		Traffic: TrafficOptions{
			ProbeInterval:          10 * time.Minute,
			IdleTimeout:            time.Minute,
			CloseAfterTransferProb: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	checkOrder := func() {
		t.Helper()
		seen := make(map[poolKey]bool)
		for _, key := range c.poolOrder {
			if _, ok := c.pools[key]; !ok || seen[key] {
				t.Fatalf("poolOrder entry %v is duplicated or has no pool", key)
			}
			seen[key] = true
		}
		if len(seen) != len(c.pools) {
			t.Fatalf("poolOrder names %d pools, the map holds %d", len(seen), len(c.pools))
		}
	}
	c.Run(10*time.Minute + 30*time.Second) // one probe round, connections pooled
	checkOrder()
	if len(c.pools) == 0 || c.net.OpenConns() == 0 {
		t.Fatalf("after the probe round: %d pools, %d open connections, want some", len(c.pools), c.net.OpenConns())
	}
	c.Run(2 * time.Minute) // every pooled connection is past the idle timeout
	checkOrder()
	if len(c.pools) != 0 || c.net.OpenConns() != 0 {
		t.Errorf("after the idle timeout: %d pools and %d open connections remain", len(c.pools), c.net.OpenConns())
	}
	c.Run(8 * time.Minute) // 20m30s: the second probe round has re-created pools
	checkOrder()
	if len(c.pools) == 0 {
		t.Error("no pool re-created by the second probe round")
	}
}

// TestStopCancelsOrganicTraffic: Stop cancels every periodic activity,
// organic arrivals included. Once the transfers in flight at Stop drain the
// queue is empty — Engine().Run() returns — and no connection was opened
// after Stop, so no organic transfer started.
func TestStopCancelsOrganicTraffic(t *testing.T) {
	pops := smallTopology()[:3]
	c, err := NewCluster(Config{
		PoPs:     pops,
		Seed:     3,
		LossRate: 0.001,
		Riptide:  RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: time.Minute,
			OrganicRates:  map[string]float64{pops[0].Name: 4, pops[1].Name: 1, pops[2].Name: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	c.Stop()
	opened, fired := c.net.Opened(), c.Engine().Fired()
	c.Run(10 * time.Minute)
	if n := c.Engine().Pending(); n != 0 {
		t.Fatalf("10 simulated minutes after Stop %d events are still queued (%d fired since Stop)", n, c.Engine().Fired()-fired)
	}
	c.Engine().Run()
	if n := c.net.Opened() - opened; n != 0 {
		t.Errorf("%d connections opened after Stop", n)
	}
}

// sampledHost builds a two-host network with n open connections from the
// first host to the second; with load, each connection first carries a
// transfer over a lossy path, so its snapshot's counters are not zero.
func sampledHost(t testing.TB, n int, load bool) (h *kernel.Host, dst netip.Addr) {
	t.Helper()
	engine := eventsim.NewEngine()
	net, err := netsim.NewNetwork(netsim.Config{Engine: engine, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.2.0.1")
	if h, err = net.AddHost(src); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost(dst); err != nil {
		t.Fatal(err)
	}
	path := netsim.PathConfig{RTT: 80 * time.Millisecond}
	if load {
		path.LossRate = 0.05
	}
	if err := net.SetBidiPath(src, dst, path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c, err := net.Open(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if load {
			if err := c.Transfer(int64(i+1)*20_000, func(netsim.TransferResult) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine.Run()
	return h, dst
}

// TestHostSamplerSteadyDoesNotAllocate: sampling a host whose 25 connections
// stay open, into a buffer the caller reuses, allocates nothing — the
// snapshot buffer is the sampler's own and each connection writes its slot
// in place.
func TestHostSamplerSteadyDoesNotAllocate(t *testing.T) {
	h, dst := sampledHost(t, 25, false)
	s := &hostSampler{host: h}
	var buf []core.Observation
	var err error
	sample := func() {
		if buf, err = s.SampleConnections(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	sample()
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Errorf("a steady 25-connection sample allocates %.0f times, want 0", allocs)
	}
	if len(buf) != 25 || buf[24].Dst != dst || buf[24].Cwnd != kernel.DefaultInitCwnd {
		t.Errorf("sampled %d observations, last %+v", len(buf), buf[len(buf)-1])
	}
}

// fillGarbage sets every field of every observation to a non-zero value no
// snapshot carries. A field of a kind it cannot fill fails the test, so a new
// Observation field cannot slip past the sampler's field-completeness check.
func fillGarbage(t *testing.T, obs []core.Observation) {
	t.Helper()
	addrType := reflect.TypeOf(netip.Addr{})
	for i := range obs {
		v := reflect.ValueOf(&obs[i]).Elem()
		for f := 0; f < v.NumField(); f++ {
			field, junk := v.Field(f), int64(1_000_003+97*i+f)
			switch {
			case field.Type() == addrType:
				field.Set(reflect.ValueOf(netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})))
			case field.CanInt():
				field.SetInt(junk)
			case field.CanUint():
				field.SetUint(uint64(junk))
			case field.CanFloat():
				field.SetFloat(float64(junk) + 0.5)
			case field.Kind() == reflect.Bool:
				field.SetBool(true)
			case field.Kind() == reflect.String:
				field.SetString("garbage")
			default:
				t.Fatalf("Observation.%s has type %s, which fillGarbage cannot fill", v.Type().Field(f).Name, field.Type())
			}
			if field.IsZero() {
				t.Fatalf("Observation.%s left zero by fillGarbage", v.Type().Field(f).Name)
			}
		}
	}
}

// TestHostSamplerWritesEveryField: the sampler writes each observation field
// by field into a slot of the caller's buffer, so a field it does not write
// keeps whatever the slot held before. Slots full of garbage in every field
// must come back equal to the observation built from each snapshot, and the
// caller's entries before them must be untouched.
func TestHostSamplerWritesEveryField(t *testing.T) {
	const n, kept = 25, 3
	h, _ := sampledHost(t, n, true)
	snaps := h.Connections()
	if snaps[n-1].Retrans == 0 || snaps[n-1].BytesAcked == 0 {
		t.Fatalf("fixture carried no loss or no bytes: %+v", snaps[n-1])
	}
	buf := make([]core.Observation, kept+n)
	fillGarbage(t, buf)
	prefix := slices.Clone(buf[:kept])
	out, err := (&hostSampler{host: h}).SampleConnections(buf[:kept])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != kept+n || &out[0] != &buf[0] {
		t.Fatalf("sampled %d observations (reallocated: %v), want %d in the caller's buffer", len(out), &out[0] != &buf[0], kept+n)
	}
	if !slices.Equal(out[:kept], prefix) {
		t.Errorf("the caller's first %d observations changed: %+v, were %+v", kept, out[:kept], prefix)
	}
	for i, c := range snaps {
		want := core.Observation{
			Dst:        c.Dst,
			Cwnd:       c.Cwnd,
			RTT:        c.RTT,
			BytesAcked: c.BytesAcked,
			Retrans:    c.Retrans,
			SegsOut:    c.SegsOut,
		}
		if got := out[kept+i]; got != want {
			t.Errorf("slot %d = %+v, want %+v", i, got, want)
		}
	}
}

// BenchmarkHostSampler samples a 25-connection host, the size a sim-34pop
// agent tick sees, into a buffer the caller reuses.
func BenchmarkHostSampler(b *testing.B) {
	h, _ := sampledHost(b, 25, true)
	s := &hostSampler{host: h}
	buf, err := s.SampleConnections(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = s.SampleConnections(buf[:0])
	}
}
