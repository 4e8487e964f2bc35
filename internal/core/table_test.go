package core

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the agent's public surface: it must stay race-free under
// concurrent ticks, snapshot traffic, and reads, and Close must withdraw
// every route in order. The fixtures here drive the other tests' schedules.

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
// hundreds of /24 groups, drifting
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

// TestAgentConcurrentAccess hammers the full public surface from concurrent
// goroutines while Tick runs; run under -race (make race / CI) it proves
// readers need nothing beyond the table lock.
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
// exactly once, in sorted order.
func TestCloseClearsRoutesSorted(t *testing.T) {
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
		t.Fatalf("close issued %d clears for %d entries", len(ops), installed)
	}
	prefixes := make([]netip.Prefix, len(ops))
	for i, op := range ops {
		var raw string
		if _, err := fmt.Sscanf(op, "clear %s", &raw); err != nil {
			t.Fatalf("unexpected close op %q", op)
		}
		prefixes[i] = netip.MustParsePrefix(raw)
	}
	for i := 1; i < len(prefixes); i++ {
		if comparePrefix(prefixes[i-1], prefixes[i]) >= 0 {
			t.Errorf("close clears not sorted at %d: %v then %v",
				i, prefixes[i-1], prefixes[i])
			break
		}
	}
}
