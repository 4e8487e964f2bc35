package core

import (
	"cmp"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestLoadBalanceAdvisorValidation(t *testing.T) {
	a := NewLoadBalanceAdvisor()
	p := netip.MustParsePrefix("10.0.0.0/24")
	for _, bad := range []float64{0, -0.5, 1.5} {
		if err := a.ExpectShift(p, bad); err == nil {
			t.Errorf("factor %v accepted", bad)
		}
	}
	if err := a.ExpectShift(p, 1); err != nil {
		t.Errorf("factor 1 rejected: %v", err)
	}
}

func TestLoadBalanceAdvisorDamping(t *testing.T) {
	a := NewLoadBalanceAdvisor()
	host := netip.MustParsePrefix("10.0.0.5/32")
	if got := a.Advise(host); got != 1 {
		t.Errorf("Advise with no shifts = %v, want 1", got)
	}
	if err := a.ExpectShift(netip.MustParsePrefix("10.0.0.0/24"), 0.5); err != nil {
		t.Fatal(err)
	}
	if got := a.Advise(host); got != 0.5 {
		t.Errorf("Advise under /24 shift = %v, want 0.5", got)
	}
	// More specific entries win.
	if err := a.ExpectShift(host, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := a.Advise(host); got != 0.25 {
		t.Errorf("Advise with /32 shift = %v, want 0.25", got)
	}
	a.ShiftComplete(host)
	if got := a.Advise(host); got != 0.5 {
		t.Errorf("Advise after /32 complete = %v, want 0.5", got)
	}
	a.ShiftComplete(netip.MustParsePrefix("10.0.0.0/24"))
	if got := a.Advise(host); got != 1 {
		t.Errorf("Advise after all complete = %v, want 1", got)
	}
}

func TestLoadBalanceAdvisorUnrelatedPrefix(t *testing.T) {
	a := NewLoadBalanceAdvisor()
	_ = a.ExpectShift(netip.MustParsePrefix("10.0.0.0/24"), 0.5)
	if got := a.Advise(netip.MustParsePrefix("192.168.0.1/32")); got != 1 {
		t.Errorf("Advise for unrelated prefix = %v, want 1", got)
	}
}

func TestAgentWithAdvisorDampsWindows(t *testing.T) {
	d := dst(t, "10.0.0.127")
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 80}}}}
	advisor := NewLoadBalanceAdvisor()
	clock := &fakeClock{}
	routes := newFakeRoutes()
	a, err := New(Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   clock.fn(),
		Advisor: advisor,
		CMin:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without a shift the full window programs.
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	key := pfx(t, "10.0.0.127/32")
	if routes.set[key] != 80 {
		t.Fatalf("window = %d, want 80", routes.set[key])
	}
	// Declare an imminent shift: next round damps to half.
	if err := advisor.ExpectShift(key, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if routes.set[key] != 40 {
		t.Errorf("damped window = %d, want 40", routes.set[key])
	}
	// Shift done: window recovers (EWMA glides back toward 80).
	advisor.ShiftComplete(key)
	for i := 0; i < 30; i++ {
		_ = a.Tick()
	}
	if routes.set[key] != 80 {
		t.Errorf("recovered window = %d, want 80", routes.set[key])
	}
}

func TestTrendHistoryValidation(t *testing.T) {
	if _, err := NewTrendHistory(2, 0.5); err == nil {
		t.Error("bad alpha accepted")
	}
	for _, bad := range []float64{0, 1, -0.1} {
		if _, err := NewTrendHistory(0.75, bad); err == nil {
			t.Errorf("collapse fraction %v accepted", bad)
		}
	}
}

// TestHistoryByName pins the scenario file's history values: "ewma" must
// stay the nil policy, the agent's inline EWMA, which is what keeps the
// plan stage's drain path open (canDrain).
func TestHistoryByName(t *testing.T) {
	ewma, err := HistoryByName("ewma", 0.9)
	if ewma != nil || err != nil {
		t.Errorf("ewma = %T, %v; want nil, nil", ewma, err)
	}
	if a, _, _ := newAgent(t, Config{History: ewma}); !a.canDrain {
		t.Error("an agent given the ewma policy lost the drain path")
	}
	if h, err := HistoryByName("none", 0.9); h != (NoHistory{}) || err != nil {
		t.Errorf("none = %#v, %v; want NoHistory{}, nil", h, err)
	}
	var trends []*TrendHistory
	for _, alpha := range []float64{0.9, 0.9, 0} {
		h, err := HistoryByName("trend", alpha)
		th, ok := h.(*TrendHistory)
		if err != nil || !ok {
			t.Fatalf("trend(%v) = %T, %v; want *TrendHistory", alpha, h, err)
		}
		if want := cmp.Or(alpha, DefaultAlpha); th.alpha != want || th.collapseFraction != TrendCollapse {
			t.Errorf("trend(%v): alpha %v, collapse %v; want %v, %v", alpha, th.alpha, th.collapseFraction, want, TrendCollapse)
		}
		trends = append(trends, th)
	}
	if trends[0] == trends[1] {
		t.Error("two trend calls share one policy")
	}
	for _, tc := range []struct {
		name  string
		alpha float64
		want  string
	}{
		{"", 0.9, `history "" unknown`},
		{"fifo", 0.9, `history "fifo" unknown`},
		{"trend", 1.5, "alpha 1.5 out of range"},
	} {
		if h, err := HistoryByName(tc.name, tc.alpha); h != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q (alpha %v) = %T, %v; want an error naming %q", tc.name, tc.alpha, h, err, tc.want)
		}
	}
}

func TestTrendHistorySnapsOnCollapse(t *testing.T) {
	h, err := NewTrendHistory(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.1/32")
	h.Update(p, 100)
	// Mild decline smooths: 0.9*100 + 0.1*60 = 96.
	if got := h.Update(p, 60); got != 96 {
		t.Errorf("mild decline = %v, want 96 (EWMA)", got)
	}
	// Collapse below half of 96 snaps immediately.
	if got := h.Update(p, 20); got != 20 {
		t.Errorf("collapse = %v, want snap to 20", got)
	}
	if h.Collapses() != 1 {
		t.Errorf("Collapses = %d, want 1", h.Collapses())
	}
	// Recovery glides, never snaps up.
	if got := h.Update(p, 100); got != 0.9*20+0.1*100 {
		t.Errorf("recovery = %v, want EWMA glide", got)
	}
}

func TestTrendHistoryForget(t *testing.T) {
	h, err := NewTrendHistory(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.0.0.1/32")
	h.Update(p, 100)
	h.Forget(p)
	if got := h.Update(p, 7); got != 7 {
		t.Errorf("after Forget = %v, want 7", got)
	}
}

func TestAgentWithTrendHistoryReactsFast(t *testing.T) {
	d := dst(t, "10.0.0.1")
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 100}},
		{{Dst: d, Cwnd: 100}},
		{{Dst: d, Cwnd: 20}}, // sudden collapse: congestion event
	}}
	trend, err := NewTrendHistory(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	routes := newFakeRoutes()
	a, err := New(Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   clock.fn(),
		History: trend,
		CMin:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Plain EWMA(0.9) would give 0.9*100+0.1*20 = 92; trend must snap.
	if got := routes.set[pfx(t, "10.0.0.1/32")]; got != 20 {
		t.Errorf("window after collapse = %d, want 20 (aggressive decrease)", got)
	}
}

// Property: advisor output always shrinks or preserves, never grows, the
// programmed window.
func TestAdvisorNeverIncreasesWindowProperty(t *testing.T) {
	f := func(cwnd uint8, factorRaw uint8) bool {
		w := int(cwnd)%200 + 1
		factor := (float64(factorRaw%100) + 1) / 100
		advisor := NewLoadBalanceAdvisor()
		d := netip.MustParseAddr("10.0.0.1")
		key := netip.PrefixFrom(d, 32)
		if err := advisor.ExpectShift(key, factor); err != nil {
			return false
		}
		routes := newFakeRoutes()
		a, err := New(Config{
			Sampler: &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: w}}}},
			Routes:  routes,
			Clock:   func() time.Duration { return 0 },
			Advisor: advisor,
			CMin:    1,
			CMax:    1 << 20,
		})
		if err != nil {
			return false
		}
		if err := a.Tick(); err != nil {
			return false
		}
		return routes.set[key] <= w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TrendHistory output is bounded by the min/max of observations.
func TestTrendHistoryBoundedProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		h, err := NewTrendHistory(0.8, 0.5)
		if err != nil {
			return false
		}
		p := netip.MustParsePrefix("10.0.0.1/32")
		lo, hi := 1e18, -1e18
		for _, raw := range vals {
			v := float64(raw%1000) + 1
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			got := h.Update(p, v)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
