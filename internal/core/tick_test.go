package core

import (
	"errors"
	"math"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// --- Phantom-entry regression (satellite bugfix) ---------------------------
//
// On the seed code, a failed first SetInitCwnd still inserted the entry:
// Lookup reported window 0 and Close/expiry issued a spurious ClearInitCwnd
// for a route that was never installed. The three-stage Tick records an
// entry only after its route is actually programmed.

func TestFailedFirstProgramLeavesNoPhantomEntry(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	routes.failSet = errors.New("ip route exploded")

	if err := a.Tick(); err == nil {
		t.Fatal("route error swallowed")
	}
	if _, ok := a.Lookup(d); ok {
		t.Error("Lookup reports a phantom entry after a failed first program")
	}
	if got := len(a.Entries()); got != 0 {
		t.Errorf("Entries = %d, want 0", got)
	}

	// Close must not withdraw a route that was never installed.
	routes.failSet = nil
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if routes.clrOps != 0 {
		t.Errorf("Close issued %d spurious ClearInitCwnd calls for a never-installed route", routes.clrOps)
	}
}

func TestFailedFirstProgramNoSpuriousExpiry(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 50}},
		{}, // destination disappears
	}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, TTL: time.Second})
	routes.failSet = errors.New("ip route exploded")
	if err := a.Tick(); err == nil {
		t.Fatal("route error swallowed")
	}
	routes.failSet = nil
	clock.Advance(time.Hour) // far past TTL
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if routes.clrOps != 0 {
		t.Errorf("expiry issued %d ClearInitCwnd calls for a never-installed route", routes.clrOps)
	}
	if s := a.Stats(); s.EntriesExpired != 0 {
		t.Errorf("EntriesExpired = %d, want 0", s.EntriesExpired)
	}
}

func TestFailedReprogramKeepsInstalledWindow(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 50}},
		{{Dst: d, Cwnd: 90}},
	}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, History: NoHistory{}})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	routes.failSet = errors.New("ip route exploded")
	if err := a.Tick(); err == nil {
		t.Fatal("route error swallowed")
	}
	// The installed route still carries 50; the entry must agree.
	if w, ok := a.Lookup(d); !ok || w != 50 {
		t.Errorf("Lookup = %d,%v; want 50,true (the installed window)", w, ok)
	}
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 50 {
		t.Errorf("installed route = %d, want 50", got)
	}
}

// --- Reader liveness under a slow backend (tentpole) -----------------------

// slowSampler signals when sampling starts, then sleeps.
type slowSampler struct {
	started chan struct{}
	delay   time.Duration
	obs     []Observation
}

func (s *slowSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	time.Sleep(s.delay)
	return append(buf, s.obs...), nil
}

func TestReadersReturnWhileTickBlockedInSampler(t *testing.T) {
	d := netip.MustParseAddr("10.0.0.7")
	sampler := &slowSampler{
		started: make(chan struct{}, 1),
		delay:   time.Second,
		obs:     []Observation{{Dst: d, Cwnd: 64}},
	}
	clock := &fakeClock{}
	routes := newFakeRoutes()
	a, err := New(Config{Sampler: sampler, Routes: routes, Clock: clock.fn()})
	if err != nil {
		t.Fatal(err)
	}

	tickDone := make(chan error, 1)
	go func() { tickDone <- a.Tick() }()
	<-sampler.started // Tick is now inside SampleConnections for ~1s

	readersDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(readersDone)
		_ = a.Entries()
		_, _ = a.Lookup(d)
		_ = a.Stats()
	}()
	select {
	case <-readersDone:
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Errorf("readers took %v while Tick was sampling; want immediate return", elapsed)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Entries/Lookup/Stats blocked while Tick was inside the sampler")
	}

	if err := <-tickDone; err != nil {
		t.Fatal(err)
	}
	if w, ok := a.Lookup(d); !ok || w != 64 {
		t.Errorf("post-tick Lookup = %d,%v; want 64,true", w, ok)
	}
}

// --- Non-finite clamp and Advisor guards (satellite bugfix) ----------------

// constCombiner returns a fixed value regardless of observations.
type constCombiner struct{ v float64 }

func (c constCombiner) Name() string                  { return "const" }
func (c constCombiner) Combine([]Observation) float64 { return c.v }

func TestClampGuardsNonFiniteCombinerOutput(t *testing.T) {
	for name, v := range map[string]float64{
		"nan":  math.NaN(),
		"+inf": math.Inf(1),
		"-inf": math.Inf(-1),
	} {
		t.Run(name, func(t *testing.T) {
			d := dst(t, "10.0.0.1")
			sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
			a, routes, _ := newAgent(t, Config{
				Sampler:  sampler,
				Combiner: constCombiner{v: v},
				History:  NoHistory{},
			})
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
			// A non-finite combined value is dropped before it can
			// poison history state or reach a route program: the
			// destination is skipped for the round, not clamped.
			if got, ok := routes.set[pfx(t, "10.0.0.1/32")]; ok {
				t.Errorf("route programmed with window %d for %s combiner output; want none", got, name)
			}
			if got := a.Stats().CombinerRejects; got != 1 {
				t.Errorf("CombinerRejects = %d, want 1", got)
			}
		})
	}
}

// nanPoisonHistory proves rejection happens before History.Update: a single
// bad round must not contaminate the EWMA that good rounds built.
func TestNonFiniteCombinerDoesNotPoisonHistory(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 50}},
		{{Dst: d, Cwnd: 50}},
	}}
	var comb atomicCombiner
	comb.v.Store(math.Float64bits(50))
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Combiner: &comb})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	comb.v.Store(math.Float64bits(math.NaN()))
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 50 {
		t.Errorf("window after NaN round = %d, want 50 (history preserved)", got)
	}
}

// atomicCombiner returns a runtime-adjustable fixed value.
type atomicCombiner struct{ v atomic.Uint64 }

func (c *atomicCombiner) Name() string { return "atomic-const" }
func (c *atomicCombiner) Combine([]Observation) float64 {
	return math.Float64frombits(c.v.Load())
}

// badAdvisor returns a fixed multiplier for every destination.
type badAdvisor struct{ m float64 }

func (b badAdvisor) Advise(netip.Prefix) float64 { return b.m }

func TestNonFiniteAdvisorOutputRejected(t *testing.T) {
	for name, m := range map[string]float64{
		"nan":  math.NaN(),
		"+inf": math.Inf(1),
		"-inf": math.Inf(-1),
	} {
		t.Run(name, func(t *testing.T) {
			d := dst(t, "10.0.0.1")
			sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
			a, routes, _ := newAgent(t, Config{Sampler: sampler, Advisor: badAdvisor{m: m}})
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
			// The multiplier is rejected: the window reflects the
			// observations alone.
			if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 50 {
				t.Errorf("window = %d, want 50 (non-finite advisor multiplier must be ignored)", got)
			}
			if got := a.Metrics().Counter("riptide_advisor_rejects").Value(); got != 1 {
				t.Errorf("advisor rejects = %d, want 1", got)
			}
		})
	}
}

func TestFiniteAdvisorStillApplies(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 80}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Advisor: badAdvisor{m: 0.5}})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 40 {
		t.Errorf("window = %d, want 40 (0.5 damping applied)", got)
	}
}

// --- Sampler circuit breaker (tentpole) ------------------------------------

func TestBreakerOpensAfterConsecutiveSampleErrors(t *testing.T) {
	sampler := &fakeSampler{err: errors.New("ss wedged")}
	a, _, clock := newAgent(t, Config{
		Sampler:          sampler,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Second,
	})

	for i := 0; i < 3; i++ {
		if err := a.Tick(); err == nil {
			t.Fatalf("tick %d: sampler error swallowed", i)
		}
		clock.Advance(time.Second)
	}
	s := a.Stats()
	if s.SampleErrors != 3 || s.BreakerOpens != 1 {
		t.Fatalf("stats after threshold = %+v", s)
	}

	// Open: ticks degrade to expiry-only passes and return nil.
	for i := 0; i < 4; i++ {
		if err := a.Tick(); err != nil {
			t.Fatalf("degraded tick returned %v", err)
		}
		clock.Advance(time.Second)
	}
	s = a.Stats()
	if s.DegradedTicks != 4 {
		t.Errorf("DegradedTicks = %d, want 4", s.DegradedTicks)
	}
	if s.SampleErrors != 3 {
		t.Errorf("SampleErrors = %d, want 3 (no sampling while open)", s.SampleErrors)
	}

	// After the cooldown a probe tick samples again; failure re-arms the
	// breaker without counting another open.
	clock.Advance(30 * time.Second)
	if err := a.Tick(); err == nil {
		t.Fatal("probe tick error swallowed")
	}
	s = a.Stats()
	if s.SampleErrors != 4 || s.BreakerOpens != 1 {
		t.Errorf("stats after failed probe = %+v", s)
	}
	if err := a.Tick(); err != nil {
		t.Fatalf("tick after failed probe should be degraded, got %v", err)
	}

	// A healthy probe closes the breaker and normal operation resumes.
	clock.Advance(31 * time.Second)
	d := dst(t, "10.0.0.1")
	sampler.err = nil
	sampler.rounds = [][]Observation{{{Dst: d, Cwnd: 50}}}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if w, ok := a.Lookup(d); !ok || w != 50 {
		t.Errorf("post-recovery Lookup = %d,%v; want 50,true", w, ok)
	}
	if err := a.Tick(); err != nil {
		t.Fatalf("tick after recovery = %v (breaker must be closed)", err)
	}
}

func TestBreakerDegradedTicksStillExpire(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, clock := newAgent(t, Config{
		Sampler:          sampler,
		TTL:              10 * time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	sampler.err = errors.New("ss wedged")
	_ = a.Tick()
	_ = a.Tick() // breaker opens
	if a.Stats().BreakerOpens != 1 {
		t.Fatal("breaker did not open")
	}
	clock.Advance(time.Minute) // past TTL, still inside cooldown
	if err := a.Tick(); err != nil {
		t.Fatalf("degraded tick = %v", err)
	}
	if len(routes.set) != 0 {
		t.Error("stale route survived a degraded tick past its TTL")
	}
	if _, ok := a.Lookup(d); ok {
		t.Error("stale entry survived a degraded tick past its TTL")
	}
}

func TestBreakerDisabled(t *testing.T) {
	sampler := &fakeSampler{err: errors.New("ss wedged")}
	a, _, clock := newAgent(t, Config{Sampler: sampler, BreakerThreshold: -1})
	for i := 0; i < 20; i++ {
		if err := a.Tick(); err == nil {
			t.Fatalf("tick %d: error swallowed with breaker disabled", i)
		}
		clock.Advance(time.Second)
	}
	s := a.Stats()
	if s.SampleErrors != 20 || s.DegradedTicks != 0 || s.BreakerOpens != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// --- Metrics wiring --------------------------------------------------------

func TestTickRecordsDurationsInMetrics(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, _, _ := newAgent(t, Config{Sampler: sampler})
	for i := 0; i < 3; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	snap := a.Metrics().Snapshot()
	if got := snap.Histograms["riptide_tick_duration"].Count; got != 3 {
		t.Errorf("tick duration observations = %d, want 3", got)
	}
	if got := snap.Histograms["riptide_sample_duration"].Count; got != 3 {
		t.Errorf("sample duration observations = %d, want 3", got)
	}
	// One successful program (first round), stable value afterwards.
	if got := snap.Histograms["riptide_program_duration"].Count; got != 1 {
		t.Errorf("program duration observations = %d, want 1", got)
	}
}

// TestRebuildReasonsCounted drives each reason a round rebuilds, in turn, and
// checks that every rebuild round counts under exactly one of them: the
// reason counters move one at a time and always sum to
// riptide_tick_rounds_rebuild.
func TestRebuildReasonsCounted(t *testing.T) {
	// 100 sockets on one destination bar the last; moving the last one onto
	// the crowded destination relocates that group's full span (199 slots)
	// past the rebuild's tail room (100 + 25 + 64).
	const n = 100
	spread := make([]Observation, n)
	for i := range spread {
		spread[i] = Observation{Dst: dst(t, "10.0.0.1"), Cwnd: 40}
	}
	spread[n-1].Dst = dst(t, "10.0.0.2")
	crowded := append([]Observation(nil), spread...)
	crowded[n-1].Dst = dst(t, "10.0.0.1")

	sampler := &fakeSampler{}
	a, _, clock := newAgent(t, Config{Sampler: sampler})
	reg := a.Metrics()
	counts := func() (stable, rebuild uint64, why [numRebuildReasons]uint64) {
		for r, name := range rebuildCounters {
			why[r] = reg.Counter(name).Value()
		}
		return reg.Counter("riptide_tick_rounds_stable").Value(), reg.Counter("riptide_tick_rounds_rebuild").Value(), why
	}
	for _, step := range []struct {
		name   string
		sample []Observation
		down   bool // the round's sample fails, a TTL after the last plan round
		want   rebuildReason
		stable bool
	}{
		{name: "first round", sample: spread, want: rebuildNoPrev},
		{name: "empty sample", sample: []Observation{}, want: rebuildEmpty},
		{name: "every position joins", sample: spread, want: rebuildEditBudget},
		{name: "one socket moves", sample: crowded, stable: true},
		{name: "span tail past its limit", sample: crowded, want: rebuildMemberTail},
		{name: "sampler down a TTL", down: true},
		{name: "grouping disbanded", sample: crowded, want: rebuildNoGrouping},
	} {
		stable0, rebuild0, why0 := counts()
		sampler.rounds, sampler.i, sampler.err = [][]Observation{step.sample}, 0, nil
		if step.down {
			sampler.err = errors.New("sampler down")
			clock.Advance(a.Config().TTL)
		}
		clock.Advance(time.Second)
		if err := a.Tick(); (err != nil) != step.down {
			t.Fatalf("%s: Tick = %v", step.name, err)
		}
		var wantStable, wantRebuild uint64
		switch {
		case step.stable:
			wantStable = 1
		case !step.down:
			wantRebuild = 1
		}
		stable, rebuild, why := counts()
		if stable-stable0 != wantStable || rebuild-rebuild0 != wantRebuild {
			t.Errorf("%s: %d stable and %d rebuild rounds, want %d and %d",
				step.name, stable-stable0, rebuild-rebuild0, wantStable, wantRebuild)
		}
		var sum uint64
		for r := range why {
			sum += why[r]
			want := uint64(0)
			if rebuildReason(r) == step.want {
				want = wantRebuild
			}
			if why[r]-why0[r] != want {
				t.Errorf("%s: %s moved by %d, want %d", step.name, rebuildCounters[r], why[r]-why0[r], want)
			}
		}
		if sum != rebuild {
			t.Errorf("%s: reasons sum to %d, riptide_tick_rounds_rebuild is %d", step.name, sum, rebuild)
		}
	}
}

// TestEditBudgetCoversTheStream pins the edit budget at its boundary: a
// round may carry len/editShareDiv + editFloor membership edits wherever in
// the stream they fall. With all of them at one end of 800 sockets the round
// stays stable; one more makes it rebuild, counted under the edit budget.
func TestEditBudgetCoversTheStream(t *testing.T) {
	const n = 800
	budget := n/editShareDiv + editFloor
	base := make([]Observation, n)
	for i := range base {
		base[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(1 + i%250)}), Cwnd: 10 + i%90}
	}
	for _, tc := range []struct {
		name   string
		edits  int
		tail   bool
		stable bool
	}{
		{"head at the budget", budget, false, true},
		{"head past the budget", budget + 1, false, false},
		{"tail at the budget", budget, true, true},
		{"tail past the budget", budget + 1, true, false},
	} {
		moved := slices.Clone(base)
		for k := range tc.edits {
			i := k
			if tc.tail {
				i = n - 1 - k
			}
			moved[i].Dst = netip.AddrFrom4([4]byte{10, 2, byte(i / 250), byte(1 + i%250)})
		}
		a, _, clock := newAgent(t, Config{Sampler: &fakeSampler{rounds: [][]Observation{base, moved}}})
		for range 2 {
			clock.Advance(time.Second)
			if err := a.Tick(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		wantStable, wantOver := uint64(0), uint64(1)
		if tc.stable {
			wantStable, wantOver = 1, 0
		}
		reg := a.Metrics()
		stable, over := reg.Counter("riptide_tick_rounds_stable").Value(), reg.Counter(rebuildCounters[rebuildEditBudget]).Value()
		if stable != wantStable || over != wantOver {
			t.Errorf("%s: %d edits of %d sockets: %d stable rounds and %s %d, want %d and %d",
				tc.name, tc.edits, n, stable, rebuildCounters[rebuildEditBudget], over, wantStable, wantOver)
		}
		if got := a.Len(); got != n+tc.edits {
			t.Errorf("%s: %d routes, want %d", tc.name, got, n+tc.edits)
		}
	}
}
