package core

import (
	"context"
	"errors"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"riptide/internal/metrics"
)

// flakyRoutes fails the first failN SetInitCwnd calls, then succeeds.
type flakyRoutes struct {
	*fakeRoutes
	failN   int
	setTry  int
	clrFail error
}

func newFlakyRoutes(failN int) *flakyRoutes {
	return &flakyRoutes{fakeRoutes: newFakeRoutes(), failN: failN}
}

func (f *flakyRoutes) SetInitCwnd(p netip.Prefix, c int) error {
	f.setTry++
	if f.setTry <= f.failN {
		return errors.New("transient EBUSY")
	}
	return f.fakeRoutes.SetInitCwnd(p, c)
}

func (f *flakyRoutes) ClearInitCwnd(p netip.Prefix) error {
	if f.clrFail != nil {
		return f.clrFail
	}
	return f.fakeRoutes.ClearInitCwnd(p)
}

// sleepRecorder captures backoff delays without sleeping.
type sleepRecorder struct{ delays []time.Duration }

func (s *sleepRecorder) fn() func(time.Duration) {
	return func(d time.Duration) { s.delays = append(s.delays, d) }
}

func mustRetry(t *testing.T, inner RouteProgrammer, policy RetryPolicy) *RetryingRouteProgrammer {
	t.Helper()
	r, err := NewRetryingRouteProgrammer(inner, policy)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetryPolicyValidation(t *testing.T) {
	if _, err := NewRetryingRouteProgrammer(nil, RetryPolicy{}); err == nil {
		t.Error("nil inner accepted")
	}
	bad := []RetryPolicy{
		{MaxAttempts: -1},
		{BaseDelay: -time.Second},
		{BaseDelay: time.Second, MaxDelay: time.Millisecond},
	}
	for i, p := range bad {
		if _, err := NewRetryingRouteProgrammer(newFakeRoutes(), p); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	inner := newFlakyRoutes(2)
	rec := &sleepRecorder{}
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    time.Second,
		Sleep:       rec.fn(),
	})
	p := netip.MustParsePrefix("10.0.0.1/32")
	if err := r.SetInitCwnd(p, 40); err != nil {
		t.Fatal(err)
	}
	if inner.set[p] != 40 {
		t.Errorf("route not installed: %v", inner.set)
	}
	// Exponential backoff: 50ms then 100ms.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(rec.delays) != 2 || rec.delays[0] != want[0] || rec.delays[1] != want[1] {
		t.Errorf("backoff delays = %v, want %v", rec.delays, want)
	}
	s := r.Stats()
	if s.Attempts != 3 || s.Retries != 2 || s.Exhausted != 0 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	inner := newFlakyRoutes(1 << 20) // never succeeds
	rec := &sleepRecorder{}
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts:   6,
		BaseDelay:     100 * time.Millisecond,
		MaxDelay:      300 * time.Millisecond,
		FailureBudget: -1,
		Sleep:         rec.fn(),
	})
	_ = r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40)
	// 100, 200, then capped at 300 for the rest.
	want := []time.Duration{100, 200, 300, 300, 300}
	for i, w := range want {
		if rec.delays[i] != w*time.Millisecond {
			t.Fatalf("delays = %v, want %v (ms)", rec.delays, want)
		}
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 2, FailureBudget: -1, Sleep: func(time.Duration) {}})
	err := r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40)
	if err == nil || errors.Is(err, ErrFallbackCleared) {
		t.Fatalf("err = %v, want plain exhaustion error", err)
	}
	if s := r.Stats(); s.Exhausted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFailureBudgetFallsBackToClear(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	reg := metrics.NewRegistry()
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts:   2,
		FailureBudget: 3,
		Sleep:         func(time.Duration) {},
		Metrics:       reg,
	})
	p := netip.MustParsePrefix("10.0.0.1/32")

	// Two exhausted calls stay plain errors; the third exhausts the
	// budget and falls back to clearing the route.
	for i := 0; i < 2; i++ {
		if err := r.SetInitCwnd(p, 40); err == nil || errors.Is(err, ErrFallbackCleared) {
			t.Fatalf("call %d: err = %v, want plain error", i, err)
		}
	}
	err := r.SetInitCwnd(p, 40)
	if !errors.Is(err, ErrFallbackCleared) {
		t.Fatalf("err = %v, want ErrFallbackCleared", err)
	}
	if inner.clrOps != 1 {
		t.Errorf("fallback clears = %d, want 1", inner.clrOps)
	}
	s := r.Stats()
	if s.Fallbacks != 1 || s.Exhausted != 3 {
		t.Errorf("stats = %+v", s)
	}
	if got := reg.Counter("riptide_route_fallbacks").Value(); got != 1 {
		t.Errorf("fallback metric = %d, want 1", got)
	}

	// The budget resets after the fallback: the next failure is 1 of 3
	// again, not an immediate re-fallback.
	if err := r.SetInitCwnd(p, 40); errors.Is(err, ErrFallbackCleared) {
		t.Error("budget did not reset after fallback")
	}
}

func TestFailureBudgetResetBySuccess(t *testing.T) {
	inner := newFlakyRoutes(0)
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 1, FailureBudget: 2, Sleep: func(time.Duration) {}})
	p := netip.MustParsePrefix("10.0.0.1/32")

	inner.failN = 1 << 20 // fail from now on
	inner.setTry = 0
	if err := r.SetInitCwnd(p, 40); err == nil {
		t.Fatal("expected failure")
	}
	inner.failN = 0 // recover
	if err := r.SetInitCwnd(p, 40); err != nil {
		t.Fatal(err)
	}
	inner.failN = 1 << 20
	inner.setTry = 0
	// One more failure must NOT trip the budget (consecutive count reset).
	if err := r.SetInitCwnd(p, 40); errors.Is(err, ErrFallbackCleared) {
		t.Error("budget not reset by intervening success")
	}
}

func TestFallbackClearFailureIsNotFallbackCleared(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	inner.clrFail = errors.New("clear also failed")
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 1, FailureBudget: 1, Sleep: func(time.Duration) {}})
	err := r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40)
	if err == nil || errors.Is(err, ErrFallbackCleared) {
		t.Fatalf("err = %v; a failed fallback clear must not claim the route was cleared", err)
	}
	if s := r.Stats(); s.FallbackErrors != 1 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestClearRetriesAndSurfacesError(t *testing.T) {
	inner := newFakeRoutes()
	inner.failClr = errors.New("EBUSY")
	rec := &sleepRecorder{}
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 3, Sleep: rec.fn()})
	if err := r.ClearInitCwnd(netip.MustParsePrefix("10.0.0.1/32")); err == nil {
		t.Fatal("clear error swallowed")
	}
	if len(rec.delays) != 2 {
		t.Errorf("clear retried %d times, want 2", len(rec.delays))
	}
}

// --- Context cancellation --------------------------------------------------

func TestRetryContextCancelledSkipsAttempts(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 3, FailureBudget: 1, Context: ctx})

	err := r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inner.setTry != 0 {
		t.Errorf("inner called %d times after cancellation, want 0", inner.setTry)
	}
	// Abandonment must not charge the failure budget: no fallback clear,
	// no exhaustion.
	if errors.Is(err, ErrFallbackCleared) || inner.clrOps != 0 {
		t.Errorf("cancelled call triggered fallback (err=%v, clears=%d)", err, inner.clrOps)
	}
	if s := r.Stats(); s.Attempts != 0 || s.Exhausted != 0 || s.Fallbacks != 0 {
		t.Errorf("stats = %+v, want all zero", s)
	}
}

func TestRetryContextCancelInterruptsBackoff(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An hour-long backoff: only cancellation can end this call promptly.
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Hour,
		MaxDelay:    time.Hour,
		Context:     ctx,
	})

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40) }()
	time.Sleep(20 * time.Millisecond) // let the call reach the backoff wait
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SetInitCwnd did not return promptly after cancellation")
	}
	if inner.setTry != 1 {
		t.Errorf("inner called %d times, want exactly 1 (no post-cancel attempts)", inner.setTry)
	}

	// No goroutine may outlive the call (the timer wait runs inline).
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d after cancelled retry", before, after)
	}
}

func TestRetryContextDeadlineBypassesBudget(t *testing.T) {
	inner := newFlakyRoutes(1 << 20)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(30*time.Millisecond))
	defer cancel()
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts:   3,
		BaseDelay:     10 * time.Second,
		MaxDelay:      10 * time.Second,
		FailureBudget: 1,
		Context:       ctx,
	})
	err := r.SetInitCwnd(netip.MustParsePrefix("10.0.0.1/32"), 40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrFallbackCleared) || inner.clrOps != 0 {
		t.Errorf("deadline expiry triggered fallback (err=%v, clears=%d)", err, inner.clrOps)
	}
}

func TestClearRunsOnceAfterCancel(t *testing.T) {
	inner := newFakeRoutes()
	p := netip.MustParsePrefix("10.0.0.1/32")
	if err := inner.SetInitCwnd(p, 40); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 3, Context: ctx})

	// Shutdown withdraws routes after the signal context is cancelled; the
	// clear must still reach the backend once.
	if err := r.ClearInitCwnd(p); err != nil {
		t.Fatalf("post-cancel clear failed: %v", err)
	}
	if len(inner.set) != 0 {
		t.Errorf("route survived a post-cancel clear: %v", inner.set)
	}

	// But a failing clear gets no retries once cancelled: one attempt, then
	// the context error surfaces.
	inner.failClr = errors.New("EBUSY")
	before := r.Stats()
	err := r.ClearInitCwnd(p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := r.Stats()
	if got := after.Attempts - before.Attempts; got != 1 {
		t.Errorf("clear attempted %d times post-cancel, want exactly 1", got)
	}
	if after.Retries != before.Retries {
		t.Errorf("clear retried post-cancel (retries %d -> %d)", before.Retries, after.Retries)
	}
}

// --- Agent + decorator integration ----------------------------------------

func TestAgentDropsEntryOnFallbackCleared(t *testing.T) {
	d := dst(t, "10.0.0.1")
	inner := newFakeRoutes()
	retry := mustRetry(t, inner, RetryPolicy{MaxAttempts: 1, FailureBudget: 1, Sleep: func(time.Duration) {}})
	sampler := &fakeSampler{rounds: [][]Observation{
		{{Dst: d, Cwnd: 50}},
		{{Dst: d, Cwnd: 90}},
	}}
	clock := &fakeClock{}
	a, err := New(Config{
		Sampler: sampler,
		Routes:  retry,
		Clock:   clock.fn(),
		History: NoHistory{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if w, ok := a.Lookup(d); !ok || w != 50 {
		t.Fatalf("Lookup = %d,%v", w, ok)
	}

	// The substrate breaks; the reprogram to 90 exhausts the budget, the
	// decorator clears the route, and the agent must drop its entry.
	inner.failSet = errors.New("substrate broke")
	if err := a.Tick(); err == nil {
		t.Fatal("fallback error swallowed")
	}
	if _, ok := a.Lookup(d); ok {
		t.Error("entry survived a fallback clear; Lookup must report kernel default")
	}
	if len(inner.set) != 0 {
		t.Errorf("route still installed after fallback: %v", inner.set)
	}
	s := a.Stats()
	if s.RouteErrors != 1 || s.RoutesCleared != 1 {
		t.Errorf("stats = %+v", s)
	}

	// Recovery: the next round re-learns the destination from scratch.
	inner.failSet = nil
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if w, ok := a.Lookup(d); !ok || w != 90 {
		t.Errorf("post-recovery Lookup = %d,%v; want 90,true", w, ok)
	}
}

// batchInner wraps fakeRoutes with a scripted batch surface: members listed
// in batchFail are reported failed by the batch (like a backend that cannot
// attribute a batch failure), members in setFail also fail the individual
// re-drive.
type batchInner struct {
	*fakeRoutes
	batchCalls int
	batchFail  map[netip.Prefix]bool
	setFail    map[netip.Prefix]bool
}

func newBatchInner() *batchInner {
	return &batchInner{
		fakeRoutes: newFakeRoutes(),
		batchFail:  make(map[netip.Prefix]bool),
		setFail:    make(map[netip.Prefix]bool),
	}
}

func (b *batchInner) SetInitCwnd(p netip.Prefix, c int) error {
	if b.setFail[p] {
		return errors.New("persistent ENETUNREACH")
	}
	return b.fakeRoutes.SetInitCwnd(p, c)
}

func (b *batchInner) ProgramRoutes(ops []RouteOp) []error {
	b.batchCalls++
	var errs []error
	for i, op := range ops {
		var err error
		switch {
		case b.batchFail[op.Prefix]:
			err = errors.New("batch member failed")
		case op.Clear:
			err = b.fakeRoutes.ClearInitCwnd(op.Prefix)
		default:
			err = b.fakeRoutes.SetInitCwnd(op.Prefix, op.Window)
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = err
		}
	}
	return errs
}

func TestProgramRoutesBatchAllSuccess(t *testing.T) {
	inner := newBatchInner()
	r := mustRetry(t, inner, RetryPolicy{Sleep: func(time.Duration) {}})
	ops := []RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Window: 40},
		{Prefix: netip.MustParsePrefix("10.0.1.0/24"), Window: 20},
		{Prefix: netip.MustParsePrefix("10.0.2.0/24"), Clear: true},
	}
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("ProgramRoutes = %v, want nil", errs)
	}
	if inner.batchCalls != 1 {
		t.Errorf("batchCalls = %d, want 1 (whole set through one batch)", inner.batchCalls)
	}
	if inner.set[ops[0].Prefix] != 40 || inner.set[ops[1].Prefix] != 20 {
		t.Errorf("installed windows = %v", inner.set)
	}
	st := r.Stats()
	if st.Batches != 1 || st.Attempts != 1 || st.BatchFallbacks != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v, want Batches=1 Attempts=1 no fallbacks", st)
	}
}

func TestProgramRoutesRedrivesFailedMembersIndividually(t *testing.T) {
	inner := newBatchInner()
	bad := netip.MustParsePrefix("10.0.1.0/24")
	inner.batchFail[bad] = true // batch rejects it; individual path recovers
	r := mustRetry(t, inner, RetryPolicy{Sleep: func(time.Duration) {}})
	ops := []RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Window: 40},
		{Prefix: bad, Window: 28},
	}
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("ProgramRoutes = %v, want nil after individual recovery", errs)
	}
	if inner.set[bad] != 28 {
		t.Errorf("re-driven member not installed: %v", inner.set)
	}
	st := r.Stats()
	if st.Batches != 1 || st.BatchFallbacks != 1 {
		t.Errorf("stats = %+v, want Batches=1 BatchFallbacks=1", st)
	}
	if st.Attempts != 2 { // one batch attempt + one individual attempt
		t.Errorf("Attempts = %d, want 2", st.Attempts)
	}
}

func TestProgramRoutesFallbackClearsPersistentMember(t *testing.T) {
	inner := newBatchInner()
	bad := netip.MustParsePrefix("10.0.1.0/24")
	inner.batchFail[bad] = true
	inner.setFail[bad] = true // individual re-drive fails too
	r := mustRetry(t, inner, RetryPolicy{
		MaxAttempts:   2,
		FailureBudget: 1,
		Sleep:         func(time.Duration) {},
	})
	ops := []RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Window: 40},
		{Prefix: bad, Window: 28},
	}
	errs := r.ProgramRoutes(ops)
	if errs == nil {
		t.Fatal("ProgramRoutes = nil, want per-op errors")
	}
	if errs[0] != nil {
		t.Errorf("healthy member errored: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrFallbackCleared) {
		t.Errorf("errs[1] = %v, want ErrFallbackCleared", errs[1])
	}
	if _, ok := inner.set[bad]; ok {
		t.Error("fallback did not clear the failing destination")
	}
	st := r.Stats()
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}
}

// TestProgramRoutesBatchSuccessResetsBudget: a member the batch installs
// resets its destination's consecutive-failure count like an individual
// success, and a batch that does not carry the destination leaves the count
// alone.
func TestProgramRoutesBatchSuccessResetsBudget(t *testing.T) {
	p := netip.MustParsePrefix("10.0.1.0/24")
	other := []RouteOp{{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Window: 40}}
	withP := append([]RouteOp{{Prefix: p, Window: 28}}, other...)
	for _, tc := range []struct {
		name      string
		batch     []RouteOp
		wantReset bool
	}{
		{"batch installs P", withP, true},
		{"batch without P", other, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := newBatchInner()
			r := mustRetry(t, inner, RetryPolicy{MaxAttempts: 1, FailureBudget: 3, Sleep: func(time.Duration) {}})
			// A failure streak of budget-1 on P, through the batch path.
			inner.batchFail[p], inner.setFail[p] = true, true
			for i := 0; i < 2; i++ {
				if errs := r.ProgramRoutes(withP); errs == nil || errs[0] == nil || errors.Is(errs[0], ErrFallbackCleared) {
					t.Fatalf("streak round %d: errs = %v, want a plain failure on P", i, errs)
				}
			}
			inner.batchFail[p], inner.setFail[p] = false, false
			if errs := r.ProgramRoutes(tc.batch); errs != nil {
				t.Fatalf("recovery batch: errs = %v, want nil", errs)
			}
			// One more failure trips the budget only if the count survived.
			inner.setFail[p] = true
			err := r.SetInitCwnd(p, 28)
			if reset := !errors.Is(err, ErrFallbackCleared); reset != tc.wantReset {
				t.Errorf("after the recovery batch, one failure gave %v: reset = %v, want %v", err, reset, tc.wantReset)
			}
		})
	}
}

func TestProgramRoutesWithoutInnerBatchPath(t *testing.T) {
	inner := newFakeRoutes() // plain RouteProgrammer, no ProgramRoutes
	r := mustRetry(t, inner, RetryPolicy{Sleep: func(time.Duration) {}})
	ops := []RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Window: 40},
		{Prefix: netip.MustParsePrefix("10.0.1.0/24"), Clear: true},
	}
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("ProgramRoutes = %v, want nil", errs)
	}
	if inner.setOps != 1 || inner.clrOps != 1 {
		t.Errorf("setOps=%d clrOps=%d, want each op driven individually", inner.setOps, inner.clrOps)
	}
	st := r.Stats()
	if st.Batches != 1 || st.BatchFallbacks != 0 {
		t.Errorf("stats = %+v, want Batches=1 and no batch fallbacks", st)
	}
}

func TestProgramRoutesEmptySet(t *testing.T) {
	r := mustRetry(t, newFakeRoutes(), RetryPolicy{Sleep: func(time.Duration) {}})
	if errs := r.ProgramRoutes(nil); errs != nil {
		t.Fatalf("ProgramRoutes(nil) = %v, want nil", errs)
	}
	if st := r.Stats(); st.Batches != 0 {
		t.Errorf("Batches = %d, want 0 for empty set", st.Batches)
	}
}
