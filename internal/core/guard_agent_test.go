package core

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// scriptedGovernor is a test double for the governor: Review answers come
// from a per-destination script that tests mutate between ticks.
type scriptedGovernor struct {
	mu      sync.Mutex
	actions map[netip.Prefix]GuardAction
	windows map[netip.Prefix]int // window returned with GuardCap
	samples []Observation
	ticks   int
	quar    []Quarantine
}

func newScriptedGovernor() *scriptedGovernor {
	return &scriptedGovernor{
		actions: make(map[netip.Prefix]GuardAction),
		windows: make(map[netip.Prefix]int),
	}
}

func (s *scriptedGovernor) set(dst netip.Prefix, a GuardAction, window int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.actions[dst] = a
	s.windows[dst] = window
}

func (s *scriptedGovernor) ObserveSample(_ netip.Prefix, o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, o)
}

func (s *scriptedGovernor) ObserveTick(time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks++
}

func (s *scriptedGovernor) Review(dst netip.Prefix, window int) (int, GuardAction) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.actions[dst]
	if !ok {
		return window, GuardAllow
	}
	if a == GuardCap {
		return s.windows[dst], GuardCap
	}
	return 0, a
}

func (s *scriptedGovernor) Quarantines() []Quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantine(nil), s.quar...)
}

var _ Governor = (*scriptedGovernor)(nil)

// TestGovernorPlannerInteraction is the satellite's table-driven check of
// the four Review outcomes inside one tick.
func TestGovernorPlannerInteraction(t *testing.T) {
	cases := []struct {
		name       string
		action     GuardAction
		capWindow  int
		wantWindow int  // programmed window; 0 = no route
		wantCapped bool // GuardCapped incremented
		wantVetoed bool
	}{
		{name: "allow", action: GuardAllow, wantWindow: 50},
		{name: "capped", action: GuardCap, capWindow: 25, wantWindow: 25, wantCapped: true},
		{name: "cap above plan is a no-op", action: GuardCap, capWindow: 60, wantWindow: 50},
		{name: "cap floors at CMin", action: GuardCap, capWindow: 3, wantWindow: 10, wantCapped: true},
		{name: "vetoed", action: GuardVeto, wantWindow: 0, wantVetoed: true},
		{name: "quarantined", action: GuardQuarantine, wantWindow: 0, wantVetoed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dst(t, "10.0.0.1")
			p := pfx(t, "10.0.0.1/32")
			gov := newScriptedGovernor()
			gov.set(p, tc.action, tc.capWindow)
			sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
			a, routes, _ := newAgent(t, Config{Sampler: sampler, Guard: gov, History: NoHistory{}})
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
			got, installed := routes.set[p]
			if tc.wantWindow == 0 {
				if installed {
					t.Errorf("route installed at %d, want none", got)
				}
			} else if got != tc.wantWindow {
				t.Errorf("programmed window = %d, want %d", got, tc.wantWindow)
			}
			st := a.Stats()
			if capped := st.GuardCapped == 1; capped != tc.wantCapped {
				t.Errorf("GuardCapped = %d, want capped=%v", st.GuardCapped, tc.wantCapped)
			}
			if vetoed := st.GuardVetoed == 1; vetoed != tc.wantVetoed {
				t.Errorf("GuardVetoed = %d, want vetoed=%v", st.GuardVetoed, tc.wantVetoed)
			}
			if tc.action == GuardQuarantine && st.GuardQuarantined != 1 {
				t.Errorf("GuardQuarantined = %d, want 1", st.GuardQuarantined)
			}
		})
	}
}

func TestGovernorFeedsOnSamplesAndTicks(t *testing.T) {
	d := dst(t, "10.0.0.1")
	gov := newScriptedGovernor()
	sampler := &fakeSampler{rounds: [][]Observation{{
		{Dst: d, Cwnd: 50, Retrans: 7, SegsOut: 900},
		{Dst: d, Cwnd: 40, Retrans: 1, SegsOut: 100},
	}}}
	a, _, _ := newAgent(t, Config{Sampler: sampler, Guard: gov})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if gov.ticks != 2 {
		t.Errorf("ObserveTick calls = %d, want 2", gov.ticks)
	}
	if len(gov.samples) != 4 {
		t.Fatalf("ObserveSample calls = %d, want 4", len(gov.samples))
	}
	// Telemetry fields travel intact from sampler to governor.
	if gov.samples[0].Retrans != 7 || gov.samples[0].SegsOut != 900 {
		t.Errorf("sample telemetry = %+v, want Retrans 7 / SegsOut 900", gov.samples[0])
	}
}

// TestQuarantineClearsRouteExactlyOnce: the veto withdraws an installed
// route on the first tick, and subsequent vetoed ticks do not re-clear.
func TestQuarantineClearsRouteExactlyOnce(t *testing.T) {
	d := dst(t, "10.0.0.1")
	p := pfx(t, "10.0.0.1/32")
	gov := newScriptedGovernor()
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Guard: gov})

	if err := a.Tick(); err != nil { // healthy: route installs
		t.Fatal(err)
	}
	if _, ok := routes.set[p]; !ok {
		t.Fatal("route not installed while healthy")
	}

	gov.set(p, GuardQuarantine, 0)
	if err := a.Tick(); err != nil { // quarantine: route cleared
		t.Fatal(err)
	}
	if _, ok := routes.set[p]; ok {
		t.Fatal("route still installed after quarantine")
	}
	if routes.clrOps != 1 {
		t.Fatalf("clear ops = %d, want 1", routes.clrOps)
	}
	if _, ok := a.Lookup(d); ok {
		t.Error("Lookup still reports the quarantined entry")
	}

	for i := 0; i < 3; i++ { // still quarantined: nothing left to clear
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if routes.clrOps != 1 {
		t.Errorf("clear ops after repeat vetoes = %d, want exactly 1", routes.clrOps)
	}
	st := a.Stats()
	if st.GuardCleared != 1 {
		t.Errorf("GuardCleared = %d, want 1", st.GuardCleared)
	}
	if st.GuardVetoed != 4 || st.GuardQuarantined != 4 {
		t.Errorf("GuardVetoed/GuardQuarantined = %d/%d, want 4/4", st.GuardVetoed, st.GuardQuarantined)
	}
}

// TestGuardClearFailureRetriesNextRound: a failed withdrawal keeps the entry
// so the clear is retried, and the route is never silently leaked.
func TestGuardClearFailureRetriesNextRound(t *testing.T) {
	d := dst(t, "10.0.0.1")
	p := pfx(t, "10.0.0.1/32")
	gov := newScriptedGovernor()
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, clock := newAgent(t, Config{Sampler: sampler, Guard: gov})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}

	gov.set(p, GuardQuarantine, 0)
	routes.failClr = errors.New("ip route del exploded")
	if err := a.Tick(); err == nil {
		t.Fatal("clear failure swallowed")
	}
	if _, ok := routes.set[p]; !ok {
		t.Fatal("fake lost the route despite failed clear")
	}

	// The held route is not refreshed, so its TTL keeps running: once it
	// lapses the expiry path retries the withdrawal as well.
	before := a.Stats().RouteErrors
	clock.Advance(DefaultTTL)
	if err := a.Tick(); err == nil {
		t.Fatal("clear failure swallowed")
	}
	if got := a.Stats().RouteErrors - before; got != 2 {
		t.Errorf("withdrawal attempts on a lapsed held route = %d, want 2 (guard and expiry)", got)
	}

	routes.failClr = nil
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := routes.set[p]; ok {
		t.Error("route still installed after retried clear")
	}
	if routes.clrOps != 1 {
		t.Errorf("successful clear ops = %d, want 1", routes.clrOps)
	}
}

// TestRecoveryReprogramsAfterCoolDown: when the governor stops vetoing, the
// next tick's observations re-program the destination.
func TestRecoveryReprogramsAfterCoolDown(t *testing.T) {
	d := dst(t, "10.0.0.1")
	p := pfx(t, "10.0.0.1/32")
	gov := newScriptedGovernor()
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Guard: gov, History: NoHistory{}})

	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	gov.set(p, GuardQuarantine, 0)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := routes.set[p]; ok {
		t.Fatal("route survived quarantine")
	}

	// Cool-down over: the governor probes at half window first.
	gov.set(p, GuardCap, 25)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := routes.set[p]; got != 25 {
		t.Fatalf("probe window = %d, want 25", got)
	}

	// Fully recovered: the plan goes through unmodified again.
	gov.set(p, GuardAllow, 0)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := routes.set[p]; got != 50 {
		t.Errorf("recovered window = %d, want 50", got)
	}
}

// TestGuardVetoWithNoInstalledRoute: vetoing a destination that never got a
// route programs nothing and clears nothing.
func TestGuardVetoWithNoInstalledRoute(t *testing.T) {
	d := dst(t, "10.0.0.1")
	p := pfx(t, "10.0.0.1/32")
	gov := newScriptedGovernor()
	gov.set(p, GuardVeto, 0)
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, routes, _ := newAgent(t, Config{Sampler: sampler, Guard: gov})
	for i := 0; i < 3; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if routes.setOps != 0 || routes.clrOps != 0 {
		t.Errorf("route ops = %d set / %d clear, want 0/0", routes.setOps, routes.clrOps)
	}
	if st := a.Stats(); st.RouteErrors != 0 {
		t.Errorf("RouteErrors = %d, want 0", st.RouteErrors)
	}
}

// --- Snapshot integration --------------------------------------------------

func TestExportSnapshotCarriesQuarantineMarkers(t *testing.T) {
	d := dst(t, "10.0.0.1")
	gov := newScriptedGovernor()
	gov.quar = []Quarantine{
		{Prefix: pfx(t, "10.0.0.9/32"), Age: 30 * time.Second},
		{Prefix: pfx(t, "10.0.0.1/32"), Age: 5 * time.Second}, // overlaps live entry
	}
	sampler := &fakeSampler{rounds: [][]Observation{{{Dst: d, Cwnd: 50}}}}
	a, _, _ := newAgent(t, Config{Sampler: sampler, Guard: gov})
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}

	snap, _ := a.ExportDelta(0)
	if len(snap) != 2 {
		t.Fatalf("snapshot entries = %d, want 2 (live + marker)", len(snap))
	}
	var marker *SnapshotEntry
	for i := range snap {
		if snap[i].Quarantined {
			marker = &snap[i]
		}
	}
	if marker == nil {
		t.Fatal("no quarantine marker exported")
	}
	if marker.Prefix != pfx(t, "10.0.0.9/32") || marker.Window != 0 || marker.Age != 30*time.Second {
		t.Errorf("marker = %+v, want 10.0.0.9/32 window 0 age 30s", *marker)
	}
	// The live entry's prefix must not be exported as quarantined too.
	for _, se := range snap {
		if se.Prefix == pfx(t, "10.0.0.1/32") && se.Quarantined {
			t.Error("live entry exported as quarantined")
		}
	}
}

func TestMergeSnapshotSkipsQuarantinedEntries(t *testing.T) {
	a, routes, _ := newAgent(t, Config{})
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.0.9/32"), Quarantined: true, Age: 10 * time.Second},
		{Prefix: pfx(t, "10.0.0.2/32"), Window: 40, Samples: 5, Age: time.Second},
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedQuarantined != 1 || stats.Merged != 1 {
		t.Fatalf("stats = %+v, want 1 skipped-quarantined + 1 merged", stats)
	}
	if _, ok := routes.set[pfx(t, "10.0.0.9/32")]; ok {
		t.Error("quarantined remote entry was programmed")
	}
	if _, ok := routes.set[pfx(t, "10.0.0.2/32")]; !ok {
		t.Error("healthy remote entry was not programmed")
	}
	if st := a.Stats(); st.FleetSkippedQuarantined != 1 {
		t.Errorf("FleetSkippedQuarantined = %d, want 1", st.FleetSkippedQuarantined)
	}
}

// TestMergeSnapshotConsultsLocalGovernor: a locally quarantined destination
// has no local entry (its route was cleared), so the local-entry check alone
// would let a peer snapshot re-program it. The governor must veto the seed.
func TestMergeSnapshotConsultsLocalGovernor(t *testing.T) {
	gov := newScriptedGovernor()
	gov.set(pfx(t, "10.0.0.9/32"), GuardQuarantine, 0)
	gov.set(pfx(t, "10.0.0.8/32"), GuardCap, 20)
	a, routes, _ := newAgent(t, Config{Guard: gov})

	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.0.9/32"), Window: 80, Samples: 5},
		{Prefix: pfx(t, "10.0.0.8/32"), Window: 80, Samples: 5},
		{Prefix: pfx(t, "10.0.0.7/32"), Window: 80, Samples: 5},
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedQuarantined != 1 || stats.Merged != 2 {
		t.Fatalf("stats = %+v, want 1 skipped + 2 merged", stats)
	}
	if _, ok := routes.set[pfx(t, "10.0.0.9/32")]; ok {
		t.Error("locally quarantined destination re-programmed from peer snapshot")
	}
	if got := routes.set[pfx(t, "10.0.0.8/32")]; got != 20 {
		t.Errorf("governor-capped merge window = %d, want 20", got)
	}
	if got := routes.set[pfx(t, "10.0.0.7/32")]; got != 80 {
		t.Errorf("unguarded merge window = %d, want 80", got)
	}
}
