package core

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

// fakeSampler returns canned observation rounds.
type fakeSampler struct {
	rounds [][]Observation
	i      int
	err    error
}

func (f *fakeSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	if f.err != nil {
		return nil, f.err
	}
	if len(f.rounds) == 0 {
		return nil, nil
	}
	idx := f.i
	if idx >= len(f.rounds) {
		idx = len(f.rounds) - 1 // keep returning the final round
	}
	f.i++
	return f.rounds[idx], nil
}

// fakeRoutes records programmed windows.
type fakeRoutes struct {
	set     map[netip.Prefix]int
	setOps  int
	clrOps  int
	failSet error
	failClr error
}

func newFakeRoutes() *fakeRoutes {
	return &fakeRoutes{set: make(map[netip.Prefix]int)}
}

func (f *fakeRoutes) SetInitCwnd(p netip.Prefix, c int) error {
	if f.failSet != nil {
		return f.failSet
	}
	f.set[p] = c
	f.setOps++
	return nil
}

func (f *fakeRoutes) ClearInitCwnd(p netip.Prefix) error {
	if f.failClr != nil {
		return f.failClr
	}
	delete(f.set, p)
	f.clrOps++
	return nil
}

// fakeClock is a manually advanced monotonic clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration       { return c.now }
func (c *fakeClock) Advance(d time.Duration)  { c.now += d }
func (c *fakeClock) fn() func() time.Duration { return func() time.Duration { return c.now } }

func dst(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func pfx(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newAgent(t *testing.T, cfg Config) (*Agent, *fakeRoutes, *fakeClock) {
	t.Helper()
	clock := &fakeClock{}
	routes := newFakeRoutes()
	if cfg.Sampler == nil {
		cfg.Sampler = &fakeSampler{}
	}
	cfg.Routes = routes
	cfg.Clock = clock.fn()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, routes, clock
}

func TestNewValidation(t *testing.T) {
	s := &fakeSampler{}
	r := newFakeRoutes()
	clk := func() time.Duration { return 0 }
	bad := []Config{
		{Routes: r, Clock: clk},                                  // no sampler
		{Sampler: s, Clock: clk},                                 // no routes
		{Sampler: s, Routes: r},                                  // no clock
		{Sampler: s, Routes: r, Clock: clk, Alpha: 1.5},          // bad alpha
		{Sampler: s, Routes: r, Clock: clk, Alpha: -0.5},         // bad alpha
		{Sampler: s, Routes: r, Clock: clk, CMin: 50, CMax: 20},  // inverted bounds
		{Sampler: s, Routes: r, Clock: clk, CMin: -1, CMax: 100}, // negative min
		{Sampler: s, Routes: r, Clock: clk, CMax: 1 << 31},       // window past 32 bits
		{Sampler: s, Routes: r, Clock: clk, PrefixBits: 200},     // bad bits
		{Sampler: s, Routes: r, Clock: clk, PrefixBits: -4},      // bad bits
		{Sampler: s, Routes: r, Clock: clk, TTL: -time.Second},   // bad ttl
		{Sampler: s, Routes: r, Clock: clk, UpdateInterval: -1},  // bad interval
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	a, _, _ := newAgent(t, Config{})
	cfg := a.Config()
	if cfg.UpdateInterval != time.Second {
		t.Errorf("i_u = %v, want 1s", cfg.UpdateInterval)
	}
	if cfg.TTL != 90*time.Second {
		t.Errorf("TTL = %v, want 90s (paper Section III-B)", cfg.TTL)
	}
	if cfg.CMax != 100 {
		t.Errorf("CMax = %d, want 100 (paper Figure 10)", cfg.CMax)
	}
	if cfg.CMin != 10 {
		t.Errorf("CMin = %d, want kernel default 10", cfg.CMin)
	}
	if cfg.Combiner.Name() != "average" {
		t.Errorf("combiner = %q, want average", cfg.Combiner.Name())
	}
	if cfg.History.Name() != "ewma" {
		t.Errorf("history = %q, want ewma", cfg.History.Name())
	}
}

func TestTickProgramsAverageWindow(t *testing.T) {
	d := dst(t, "10.0.0.127")
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: d, Cwnd: 60},
		{Dst: d, Cwnd: 100},
	}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	// Paper's Figure 7: average of observed windows -> initcwnd 80.
	if got := routes.set[pfx(t, "10.0.0.127/32")]; got != 80 {
		t.Errorf("programmed window = %d, want 80", got)
	}
	if w, ok := a.Lookup(d); !ok || w != 80 {
		t.Errorf("Lookup = %d,%v; want 80,true", w, ok)
	}
}

func TestTickGroupsByDestination(t *testing.T) {
	d1, d2 := dst(t, "10.0.0.1"), dst(t, "10.0.0.2")
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: d1, Cwnd: 20},
		{Dst: d1, Cwnd: 40},
		{Dst: d2, Cwnd: 90},
	}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 30 {
		t.Errorf("d1 window = %d, want 30", got)
	}
	if got := routes.set[pfx(t, "10.0.0.2/32")]; got != 90 {
		t.Errorf("d2 window = %d, want 90", got)
	}
	if len(a.Entries()) != 2 {
		t.Errorf("entries = %d, want 2", len(a.Entries()))
	}
}

func TestEWMASmoothing(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 100}},
		{{Dst: d, Cwnd: 20}},
	}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Alpha: 0.75})
	_ = a.Tick() // history = 100
	_ = a.Tick() // 0.75*100 + 0.25*20 = 80
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 80 {
		t.Errorf("smoothed window = %d, want 80 (prevents plummeting)", got)
	}
}

func TestClampingToCMaxCMin(t *testing.T) {
	d := dst(t, "10.0.0.1")
	tests := []struct {
		name string
		cwnd int
		want int
	}{
		{"above cmax", 500, 100},
		{"below cmin", 3, 10},
		{"in range", 55, 55},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: tt.cwnd}}}}
			a, routes, _ := newAgent(t, Config{Sampler: sampler})
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
			if got := routes.set[pfx(t, "10.0.0.1/32")]; got != tt.want {
				t.Errorf("window = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestTTLExpiryRemovesRoute(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 50}},
		{}, // connection closed: no observations from now on
	}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, TTL: 90 * time.Second})
	_ = a.Tick()
	if len(routes.set) != 1 {
		t.Fatalf("route not programmed")
	}
	// Sampler now returns empty rounds; advance within TTL.
	clock.Advance(60 * time.Second)
	_ = a.Tick()
	if len(routes.set) != 1 {
		t.Fatal("route removed before TTL")
	}
	// Past TTL: entry expires, route withdrawn, default restored.
	clock.Advance(31 * time.Second)
	_ = a.Tick()
	if len(routes.set) != 0 {
		t.Error("route not withdrawn after TTL")
	}
	if _, ok := a.Lookup(d); ok {
		t.Error("entry still present after TTL")
	}
	if s := a.Stats(); s.EntriesExpired != 1 || s.RoutesCleared != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTTLRefreshedByObservations(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, TTL: 90 * time.Second})
	for i := 0; i < 10; i++ {
		clock.Advance(60 * time.Second) // beyond TTL if not refreshed
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(routes.set) != 1 {
		t.Error("continuously observed destination expired")
	}
}

func TestHistoryForgottenOnExpiry(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 100}},
		{},
		{{Dst: d, Cwnd: 20}},
	}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, Alpha: 0.9, TTL: time.Second})
	_ = a.Tick() // learn 100
	clock.Advance(10 * time.Second)
	_ = a.Tick() // expires
	clock.Advance(10 * time.Second)
	_ = a.Tick() // relearn from scratch: should be 20, not 0.9*100+0.1*20=92
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 20 {
		t.Errorf("window after expiry+relearn = %d, want 20 (history must reset)", got)
	}
}

func TestPrefixGranularity(t *testing.T) {
	// Hosts in the same /24 aggregate into one route (paper: PoP prefixes).
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: dst(t, "10.1.2.3"), Cwnd: 40},
		{Dst: dst(t, "10.1.2.200"), Cwnd: 80},
		{Dst: dst(t, "10.9.9.9"), Cwnd: 30},
	}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, PrefixBits: 24})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(routes.set) != 2 {
		t.Fatalf("routes = %v, want 2 aggregated prefixes", routes.set)
	}
	if got := routes.set[pfx(t, "10.1.2.0/24")]; got != 60 {
		t.Errorf("aggregated window = %d, want 60 (mean of 40,80)", got)
	}
	if got := routes.set[pfx(t, "10.9.9.0/24")]; got != 30 {
		t.Errorf("second prefix window = %d, want 30", got)
	}
}

func TestRouteOnlyReprogrammedOnChange(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	for i := 0; i < 5; i++ {
		_ = a.Tick()
	}
	if routes.setOps != 1 {
		t.Errorf("setOps = %d, want 1 (stable value should not be reprogrammed)", routes.setOps)
	}
}

func TestMaxCombiner(t *testing.T) {
	obs := []Observation{{Cwnd: 10}, {Cwnd: 90}, {Cwnd: 40}}
	if got := (MaxCombiner{}).Combine(obs); got != 90 {
		t.Errorf("max = %v, want 90", got)
	}
}

func TestTrafficWeightedCombiner(t *testing.T) {
	obs := []Observation{
		{Cwnd: 100, BytesAcked: 9000},
		{Cwnd: 10, BytesAcked: 1000},
	}
	if got := (TrafficWeightedCombiner{}).Combine(obs); got != 91 {
		t.Errorf("weighted = %v, want 91", got)
	}
	// Zero-traffic connections get weight 1, not 0.
	obs = []Observation{{Cwnd: 50, BytesAcked: 0}}
	if got := (TrafficWeightedCombiner{}).Combine(obs); got != 50 {
		t.Errorf("zero-traffic weighted = %v, want 50", got)
	}
}

func TestAverageCombiner(t *testing.T) {
	obs := []Observation{{Cwnd: 1}, {Cwnd: 2}, {Cwnd: 3}}
	if got := (AverageCombiner{}).Combine(obs); got != 2 {
		t.Errorf("average = %v, want 2", got)
	}
}

func TestNoHistoryPolicy(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 100}},
		{{Dst: d, Cwnd: 20}},
	}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, History: NoHistory{}})
	_ = a.Tick()
	_ = a.Tick()
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 20 {
		t.Errorf("no-history window = %d, want 20 (instant tracking)", got)
	}
}

func TestWindowedHistory(t *testing.T) {
	h, err := NewWindowedHistory(3)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.1/32")
	vals := []float64{10, 20, 30, 40}
	var got float64
	for _, v := range vals {
		got = h.Update(p, v)
	}
	if got != 30 { // mean of last 3: (20+30+40)/3
		t.Errorf("windowed = %v, want 30", got)
	}
	h.Forget(p)
	if got = h.Update(p, 5); got != 5 {
		t.Errorf("after Forget = %v, want 5", got)
	}
	if _, err := NewWindowedHistory(0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSamplerErrorCounted(t *testing.T) {
	sampler := &fakeSampler{err: errors.New("ss exploded")}
	a, _, _ := newAgent(t, Config{Sampler: sampler})
	if err := a.Tick(); err == nil {
		t.Error("sampler error swallowed")
	}
	if s := a.Stats(); s.SampleErrors != 1 {
		t.Errorf("SampleErrors = %d", s.SampleErrors)
	}
}

func TestSamplerErrorStillExpires(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, TTL: time.Second})
	_ = a.Tick()
	sampler.err = errors.New("ss exploded")
	clock.Advance(10 * time.Second)
	_ = a.Tick() // errors, but must still expire the stale entry
	if len(routes.set) != 0 {
		t.Error("stale route survived a failing sampler")
	}
}

func TestRouteErrorSurfaced(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	routes.failSet = errors.New("ip route exploded")
	if err := a.Tick(); err == nil {
		t.Error("route error swallowed")
	}
	if s := a.Stats(); s.RouteErrors != 1 {
		t.Errorf("RouteErrors = %d", s.RouteErrors)
	}
	// The entry must not record a window that was never programmed.
	if w, ok := a.Lookup(d); ok && w != 0 {
		t.Errorf("Lookup after failed programming = %d,%v", w, ok)
	}
}

func TestInvalidObservationsSkipped(t *testing.T) {
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: netip.Addr{}, Cwnd: 50},       // invalid addr
		{Dst: dst(t, "10.0.0.1"), Cwnd: 0},  // no window
		{Dst: dst(t, "10.0.0.1"), Cwnd: -5}, // negative
	}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(routes.set) != 0 {
		t.Errorf("invalid observations programmed routes: %v", routes.set)
	}
}

func TestCloseWithdrawsRoutes(t *testing.T) {
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: dst(t, "10.0.0.1"), Cwnd: 50},
		{Dst: dst(t, "10.0.0.2"), Cwnd: 60},
	}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	_ = a.Tick()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if len(routes.set) != 0 {
		t.Errorf("routes remain after Close: %v", routes.set)
	}
	if err := a.Tick(); !errors.Is(err, ErrClosed) {
		t.Errorf("Tick after Close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// TestLenMatchesEntries pins the O(1) count to the table it summarises,
// after installs, a fleet merge, expiries and Close.
func TestLenMatchesEntries(t *testing.T) {
	obs := func(hosts ...byte) []Observation {
		var out []Observation
		for _, h := range hosts {
			out = append(out, Observation{Dst: netip.AddrFrom4([4]byte{10, 0, 0, h}), Cwnd: 40})
		}
		return out
	}
	sampler := &fakeSampler{rounds: [][]Observation{obs(1, 2, 3, 4), obs(1, 2, 3, 4), obs(1, 2), obs(1, 2)}}
	a, _, clock := newAgent(t, Config{Sampler: sampler})
	check := func(when string, want int) {
		t.Helper()
		if got, n := a.Len(), len(a.Entries()); got != n || got != want {
			t.Errorf("%s: Len = %d, len(Entries()) = %d, want %d", when, got, n, want)
		}
	}
	check("empty", 0)
	_ = a.Tick()
	check("installed", 4)
	if _, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.1.1/32"), Window: 30, Samples: 5},
		{Prefix: pfx(t, "10.0.0.1/32"), Window: 30, Samples: 5}, // local entry wins
	}, MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	check("merged", 5)
	clock.Advance(60 * time.Second)
	_ = a.Tick()
	check("refreshed", 5)
	clock.Advance(60 * time.Second)
	_ = a.Tick() // the merged entry lapses; 3 and 4 were refreshed 60 s ago
	check("merged entry expired", 4)
	clock.Advance(60 * time.Second)
	_ = a.Tick()
	check("unobserved entries expired", 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed", 0)
}

func TestStatsCounters(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: d, Cwnd: 50}, {Dst: d, Cwnd: 70},
	}}}
	a, _, _ := newAgent(t, Config{Sampler: sampler})
	_ = a.Tick()
	_ = a.Tick()
	s := a.Stats()
	if s.Ticks != 2 {
		t.Errorf("Ticks = %d", s.Ticks)
	}
	if s.Observations != 4 {
		t.Errorf("Observations = %d", s.Observations)
	}
}

// Property: the programmed window is always within [CMin, CMax], for any
// observations.
func TestProgrammedWindowBoundedProperty(t *testing.T) {
	f := func(cwnds []uint16, cminRaw, spanRaw uint8) bool {
		if len(cwnds) == 0 {
			return true
		}
		cmin := int(cminRaw%50) + 1
		cmax := cmin + int(spanRaw%100) + 1
		obs := make([]Observation, 0, len(cwnds))
		d := netip.MustParseAddr("10.0.0.1")
		for _, c := range cwnds {
			obs = append(obs, Observation{Dst: d, Cwnd: int(c)%2000 + 1})
		}
		routes := newFakeRoutes()
		a, err := New(Config{
			Sampler: &fakeSampler{rounds: [][]Observation{obs}},
			Routes:  routes,
			Clock:   func() time.Duration { return 0 },
			CMin:    cmin,
			CMax:    cmax,
		})
		if err != nil {
			return false
		}
		if err := a.Tick(); err != nil {
			return false
		}
		w := routes.set[netip.MustParsePrefix("10.0.0.1/32")]
		return w >= cmin && w <= cmax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with the average combiner and no clamping pressure, the
// programmed window never exceeds the max observed cwnd nor drops below the
// min observed cwnd (Riptide "never hops ahead of observations").
func TestNeverHopsAheadOfObservationsProperty(t *testing.T) {
	f := func(cwndsRaw []uint8) bool {
		if len(cwndsRaw) == 0 {
			return true
		}
		d := netip.MustParseAddr("10.0.0.1")
		obs := make([]Observation, 0, len(cwndsRaw))
		lo, hi := 1<<30, 0
		for _, c := range cwndsRaw {
			v := int(c)%500 + 1
			obs = append(obs, Observation{Dst: d, Cwnd: v})
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		routes := newFakeRoutes()
		a, err := New(Config{
			Sampler: &fakeSampler{rounds: [][]Observation{obs}},
			Routes:  routes,
			Clock:   func() time.Duration { return 0 },
			CMin:    1,
			CMax:    1 << 20,
		})
		if err != nil {
			return false
		}
		if err := a.Tick(); err != nil {
			return false
		}
		w := routes.set[netip.MustParsePrefix("10.0.0.1/32")]
		return w >= lo-1 && w <= hi+1 // +-1 for rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
