package core

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the hot path: a round whose scans fan out over several workers
// must produce byte-identical route programs to the one-worker serial
// reference, and the agent's public surface must stay race-free under
// concurrent ticks, snapshot traffic, and reads.

// stubGovernor is a deterministic, concurrency-safe Governor for in-package
// tests (internal/guard cannot be imported here without a cycle).
type stubGovernor struct {
	samples atomic.Uint64
	ticks   atomic.Uint64

	capAbove   int
	veto       func(netip.Prefix) bool
	quarantine func(netip.Prefix) bool
}

func (g *stubGovernor) ObserveSample(netip.Prefix, Observation) { g.samples.Add(1) }
func (g *stubGovernor) ObserveTick(time.Duration)               { g.ticks.Add(1) }

func (g *stubGovernor) Review(dst netip.Prefix, window int) (int, GuardAction) {
	if g.quarantine != nil && g.quarantine(dst) {
		return 0, GuardQuarantine
	}
	if g.veto != nil && g.veto(dst) {
		return 0, GuardVeto
	}
	if g.capAbove > 0 && window > g.capAbove {
		return g.capAbove, GuardCap
	}
	return window, GuardAllow
}

func (g *stubGovernor) Quarantines() []Quarantine { return nil }

// recordingRoutes records every route operation, in order, as a string; an
// optional fail predicate injects deterministic per-prefix failures.
type recordingRoutes struct {
	mu   sync.Mutex
	ops  []string
	fail func(netip.Prefix) bool
	// failClear fails withdrawals only, so an installed route's expiry can
	// be made to retry.
	failClear func(netip.Prefix) bool
	// failWith (batched surface only) picks the error itself.
	failWith func(RouteOp) error
}

func (r *recordingRoutes) SetInitCwnd(p netip.Prefix, w int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil && r.fail(p) {
		r.ops = append(r.ops, fmt.Sprintf("set-fail %v %d", p, w))
		return errors.New("injected set failure")
	}
	r.ops = append(r.ops, fmt.Sprintf("set %v %d", p, w))
	return nil
}

func (r *recordingRoutes) ClearInitCwnd(p netip.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if (r.fail != nil && r.fail(p)) || (r.failClear != nil && r.failClear(p)) {
		r.ops = append(r.ops, fmt.Sprintf("clear-fail %v", p))
		return errors.New("injected clear failure")
	}
	r.ops = append(r.ops, fmt.Sprintf("clear %v", p))
	return nil
}

func (r *recordingRoutes) recorded() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.ops))
	copy(out, r.ops)
	return out
}

// recordingBatchRoutes adds the batched surface: each batch is recorded as
// one entry listing its members in order.
type recordingBatchRoutes struct {
	recordingRoutes
}

func (r *recordingBatchRoutes) ProgramRoutes(ops []RouteOp) []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	var s strings.Builder
	s.WriteString("batch:")
	for i, op := range ops {
		verb := "set"
		if op.Clear {
			verb = "clear"
		}
		if (r.fail != nil && r.fail(op.Prefix)) || (op.Clear && r.failClear != nil && r.failClear(op.Prefix)) {
			verb += "-fail"
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = errors.New("injected batch failure")
		} else if err := r.failWithOp(op); err != nil {
			verb += "-fail"
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = err
		}
		fmt.Fprintf(&s, " %s %v %d;", verb, op.Prefix, op.Window)
	}
	r.ops = append(r.ops, s.String())
	return errs
}

func (r *recordingRoutes) failWithOp(op RouteOp) error {
	if r.failWith == nil {
		return nil
	}
	return r.failWith(op)
}

var (
	_ RouteProgrammer      = (*recordingRoutes)(nil)
	_ BatchRouteProgrammer = (*recordingBatchRoutes)(nil)
)

// playbackSampler replays one fixed round per tick (repeating the last).
type playbackSampler struct {
	mu     sync.Mutex
	rounds [][]Observation
	next   int
}

func (s *playbackSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	if i >= len(s.rounds) {
		i = len(s.rounds) - 1
	}
	s.next++
	return append(buf, s.rounds[i]...), nil
}

// determinismRounds builds a deterministic multi-round observation schedule:
// hundreds of /24 groups (past the parallel-path threshold), drifting
// windows, per-round membership churn so entries expire, and a sprinkle of
// invalid samples that must be skipped identically on every path.
func determinismRounds(rounds, n int) [][]Observation {
	out := make([][]Observation, rounds)
	for r := 0; r < rounds; r++ {
		obs := make([]Observation, 0, n)
		for i := 0; i < n; i++ {
			if (i+r)%17 == 0 {
				continue // churn: this destination sits the round out
			}
			o := Observation{
				Dst:        netip.AddrFrom4([4]byte{10, byte(i / 200 % 200), byte(i % 200), byte(1 + i%3)}),
				Cwnd:       10 + (i*7+r*13)%90,
				RTT:        time.Duration(20+(i+r)%200) * time.Millisecond,
				BytesAcked: int64(i%97) * 1500,
			}
			if (i+2*r)%41 == 0 {
				o.Cwnd = 0 // invalid: must be dropped, not planned
			}
			out[r] = obs // keep the slice header fresh while appending
			obs = append(obs, o)
		}
		out[r] = obs
	}
	return out
}

// runScanSchedule drives an agent whose scans fan out over the given number
// of workers over the schedule, advancing the clock 30s per tick so TTL
// expiry fires for destinations that churn out, and returns the final
// entries and stats.
func runScanSchedule(t *testing.T, workers int, routes RouteProgrammer, gov Governor, rounds [][]Observation) ([]Entry, Stats, []string) {
	t.Helper()
	var now atomic.Int64
	cfg := Config{
		Sampler:    &playbackSampler{rounds: rounds},
		Routes:     routes,
		Clock:      func() time.Duration { return time.Duration(now.Load()) },
		PrefixBits: 24,
	}
	if gov != nil {
		cfg.Guard = gov
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.scanWorkers = workers
	if a.scanWidth() != workers {
		t.Fatalf("scanWidth() = %d, want %d", a.scanWidth(), workers)
	}
	// Route-programming failures surface as Tick errors; their rendered
	// text is part of the determinism contract, so collect rather than
	// fail on them.
	var tickErrs []string
	for range rounds {
		now.Add(int64(30 * time.Second))
		if err := a.Tick(); err != nil {
			tickErrs = append(tickErrs, err.Error())
		}
	}
	entries := a.Entries()
	stats := a.Stats()
	// Leave installed routes behind so the recorded op streams end at the
	// same point on every variant; Close ordering is covered elsewhere.
	return entries, stats, tickErrs
}

// determinismVariant checks that every scan width produces the identical
// route-op stream, learned table, and counters as the one-worker serial
// reference. (The TestShardedPlanMatchesSerial* names predate the single
// destination table; the scan width is what remains to vary.)
func determinismVariant(t *testing.T, newRoutes func() RouteProgrammer, newGov func() Governor) {
	t.Helper()
	rounds := determinismRounds(6, 900)
	type result struct {
		ops      []string
		entries  []Entry
		stats    Stats
		tickErrs []string
	}
	run := func(workers int) result {
		routes := newRoutes()
		var gov Governor
		if newGov != nil {
			gov = newGov()
		}
		entries, stats, tickErrs := runScanSchedule(t, workers, routes, gov, rounds)
		var ops []string
		switch r := routes.(type) {
		case *recordingBatchRoutes:
			ops = r.recorded()
		case *recordingRoutes:
			ops = r.recorded()
		}
		return result{ops: ops, entries: entries, stats: stats, tickErrs: tickErrs}
	}
	ref := run(1)
	if len(ref.ops) == 0 || len(ref.entries) == 0 {
		t.Fatalf("serial reference did nothing: %d ops, %d entries", len(ref.ops), len(ref.entries))
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.ops, ref.ops) {
			t.Errorf("workers=%d: route-op stream diverged from serial (got %d ops, want %d)",
				workers, len(got.ops), len(ref.ops))
			for i := range got.ops {
				if i < len(ref.ops) && got.ops[i] != ref.ops[i] {
					t.Errorf("first divergence at op %d:\n  got  %s\n  want %s", i, got.ops[i], ref.ops[i])
					break
				}
			}
		}
		if !reflect.DeepEqual(got.entries, ref.entries) {
			t.Errorf("workers=%d: learned table diverged (%d vs %d entries)",
				workers, len(got.entries), len(ref.entries))
		}
		if got.stats != ref.stats {
			t.Errorf("workers=%d: stats diverged:\n  got  %+v\n  want %+v", workers, got.stats, ref.stats)
		}
		if !reflect.DeepEqual(got.tickErrs, ref.tickErrs) {
			t.Errorf("workers=%d: tick errors diverged:\n  got  %q\n  want %q", workers, got.tickErrs, ref.tickErrs)
		}
	}
}

func TestShardedPlanMatchesSerial(t *testing.T) {
	determinismVariant(t, func() RouteProgrammer { return &recordingRoutes{} }, nil)
}

func TestShardedPlanMatchesSerialBatched(t *testing.T) {
	determinismVariant(t, func() RouteProgrammer { return &recordingBatchRoutes{} }, nil)
}

func TestShardedPlanMatchesSerialWithFailures(t *testing.T) {
	failer := func(p netip.Prefix) bool { return p.Addr().As4()[2]%5 == 0 }
	t.Run("per-op", func(t *testing.T) {
		determinismVariant(t, func() RouteProgrammer { return &recordingRoutes{fail: failer} }, nil)
	})
	t.Run("batch", func(t *testing.T) {
		determinismVariant(t, func() RouteProgrammer {
			return &recordingBatchRoutes{recordingRoutes: recordingRoutes{fail: failer}}
		}, nil)
	})
}

func TestShardedPlanMatchesSerialGoverned(t *testing.T) {
	determinismVariant(t,
		func() RouteProgrammer { return &recordingBatchRoutes{} },
		func() Governor {
			return &stubGovernor{
				capAbove:   40,
				veto:       func(p netip.Prefix) bool { return p.Addr().As4()[2]%11 == 0 },
				quarantine: func(p netip.Prefix) bool { return p.Addr().As4()[2]%13 == 0 },
			}
		})
}

// TestAgentConcurrentAccess hammers the full public surface from concurrent
// goroutines while the scans fan out over four workers; run under -race
// (make race / CI) it proves readers need nothing beyond the table lock.
func TestAgentConcurrentAccess(t *testing.T) {
	rounds := determinismRounds(8, 600)
	gov := &stubGovernor{
		capAbove: 50,
		veto:     func(p netip.Prefix) bool { return p.Addr().As4()[2]%19 == 0 },
	}
	var now atomic.Int64
	a, err := New(Config{
		Sampler:    &playbackSampler{rounds: rounds},
		Routes:     &recordingBatchRoutes{},
		Clock:      func() time.Duration { return time.Duration(now.Load()) },
		PrefixBits: 24,
		Guard:      gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.scanWorkers = 4

	remote := []SnapshotEntry{
		{Prefix: netip.MustParsePrefix("172.16.1.0/24"), Window: 44, Samples: 9, Age: time.Second},
		{Prefix: netip.MustParsePrefix("172.16.2.0/24"), Window: 61, Samples: 12, Age: 2 * time.Second},
		{Prefix: netip.MustParsePrefix("172.16.3.0/24"), Window: 0, Quarantined: true},
	}
	lookupAddr := netip.MustParseAddr("10.0.5.1")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 40; i++ {
			now.Add(int64(time.Second))
			if err := a.Tick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()
	spin := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	spin(func() { _, _ = a.ExportDelta(0) })
	spin(func() {
		if _, err := a.MergeSnapshot(remote, MergePolicy{}); err != nil {
			t.Errorf("merge: %v", err)
		}
	})
	spin(func() { _ = a.Entries() })
	spin(func() { _, _ = a.Lookup(lookupAddr) })
	spin(func() { _ = a.Stats() })
	wg.Wait()

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if gov.samples.Load() == 0 || gov.ticks.Load() == 0 {
		t.Errorf("governor unexercised: samples=%d ticks=%d", gov.samples.Load(), gov.ticks.Load())
	}
	if got := a.Stats(); got.Ticks != 40 {
		t.Errorf("ticks = %d, want 40", got.Ticks)
	}
}

// TestCloseClearsRoutesSorted verifies Close withdraws every installed route
// exactly once, in sorted order, regardless of scan width.
func TestCloseClearsRoutesSorted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		routes := &recordingRoutes{}
		rounds := determinismRounds(2, 600)
		var now atomic.Int64
		a, err := New(Config{
			Sampler:    &playbackSampler{rounds: rounds},
			Routes:     routes,
			Clock:      func() time.Duration { return time.Duration(now.Load()) },
			PrefixBits: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		a.scanWorkers = workers
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		installed := len(a.Entries())
		before := len(routes.recorded())
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		ops := routes.recorded()[before:]
		if len(ops) != installed {
			t.Fatalf("workers=%d: close issued %d clears for %d entries", workers, len(ops), installed)
		}
		prefixes := make([]netip.Prefix, len(ops))
		for i, op := range ops {
			var raw string
			if _, err := fmt.Sscanf(op, "clear %s", &raw); err != nil {
				t.Fatalf("workers=%d: unexpected close op %q", workers, op)
			}
			prefixes[i] = netip.MustParsePrefix(raw)
		}
		for i := 1; i < len(prefixes); i++ {
			if comparePrefix(prefixes[i-1], prefixes[i]) >= 0 {
				t.Errorf("workers=%d: close clears not sorted at %d: %v then %v",
					workers, i, prefixes[i-1], prefixes[i])
				break
			}
		}
	}
}
