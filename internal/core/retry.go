package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"riptide/internal/metrics"
)

// ErrFallbackCleared marks a SetInitCwnd failure where the retry decorator
// exhausted the destination's failure budget and withdrew the route instead,
// restoring the kernel-default initial window — the paper's conservative
// fallback when Riptide cannot maintain an override. The agent reacts by
// dropping its entry for the destination.
var ErrFallbackCleared = errors.New("riptide/core: route withdrawn after exhausting failure budget")

// Retry defaults, tuned for iproute2 execs that fail transiently during
// route churn: three quick attempts spread over ~150ms, never more than a
// second apart.
const (
	DefaultRetryAttempts      = 3
	DefaultRetryBaseDelay     = 50 * time.Millisecond
	DefaultRetryMaxDelay      = 1 * time.Second
	DefaultRetryFailureBudget = 3
)

// RetryPolicy configures a RetryingRouteProgrammer.
type RetryPolicy struct {
	// MaxAttempts is the total tries per route operation (first attempt
	// included). 0 means DefaultRetryAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry. 0 means DefaultRetryBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means DefaultRetryMaxDelay.
	MaxDelay time.Duration
	// FailureBudget is the number of consecutive exhausted SetInitCwnd
	// calls for one destination before the decorator falls back to
	// clearing the route. 0 means DefaultRetryFailureBudget; a negative
	// value disables the fallback.
	FailureBudget int
	// Context, when non-nil, bounds every route operation: cancellation
	// aborts an in-flight backoff wait immediately, suppresses any
	// remaining attempts, and surfaces as the context's error. A context
	// error never counts against the failure budget — shutdown is not a
	// substrate failure, so no route is withdrawn for it.
	Context context.Context
	// Sleep is the delay hook, for tests. Nil means time.Sleep. When
	// Context is set, backoff waits instead select on a timer and
	// Context.Done(), and Sleep is not used.
	Sleep func(time.Duration)
	// Metrics receives riptide_route_attempts / _retries /
	// _retry_exhausted / _fallbacks counters. Nil means metrics are not
	// recorded.
	Metrics *metrics.Registry
}

// RetryStats counts decorator activity.
type RetryStats struct {
	// Attempts is every call into the wrapped programmer.
	Attempts uint64 `json:"attempts"`
	// Retries is attempts beyond the first for an operation.
	Retries uint64 `json:"retries"`
	// Exhausted counts operations that failed every attempt.
	Exhausted uint64 `json:"exhausted"`
	// Fallbacks counts destinations cleared after exhausting the budget.
	Fallbacks uint64 `json:"fallbacks"`
	// FallbackErrors counts fallback clears that themselves failed.
	FallbackErrors uint64 `json:"fallbackErrors"`
	// Batches counts ProgramRoutes calls.
	Batches uint64 `json:"batches"`
	// BatchFallbacks counts batch members re-driven individually after
	// the batch reported them failed (or the inner programmer had no
	// batch path).
	BatchFallbacks uint64 `json:"batchFallbacks"`
}

// RetryingRouteProgrammer decorates a RouteProgrammer with bounded
// exponential backoff and a per-destination failure budget. When a
// destination keeps failing after retries, the decorator clears its route —
// reverting to the kernel default is always safe, while leaving a stale
// aggressive window installed is not — and reports ErrFallbackCleared so the
// agent can drop the entry.
//
// It is safe for concurrent use and implements RouteProgrammer, so it nests
// between the agent and any backend (netlink, the simulated kernel, or
// another decorator).
type RetryingRouteProgrammer struct {
	inner  RouteProgrammer
	policy RetryPolicy

	mu       sync.Mutex
	failures map[netip.Prefix]int
	stats    RetryStats
}

// NewRetryingRouteProgrammer wraps inner with the given policy.
func NewRetryingRouteProgrammer(inner RouteProgrammer, policy RetryPolicy) (*RetryingRouteProgrammer, error) {
	if inner == nil {
		return nil, errors.New("riptide/core: nil inner RouteProgrammer")
	}
	if policy.MaxAttempts == 0 {
		policy.MaxAttempts = DefaultRetryAttempts
	}
	if policy.MaxAttempts < 1 {
		return nil, fmt.Errorf("riptide/core: MaxAttempts %d must be >= 1", policy.MaxAttempts)
	}
	if policy.BaseDelay == 0 {
		policy.BaseDelay = DefaultRetryBaseDelay
	}
	if policy.BaseDelay < 0 {
		return nil, fmt.Errorf("riptide/core: BaseDelay %v must be positive", policy.BaseDelay)
	}
	if policy.MaxDelay == 0 {
		policy.MaxDelay = DefaultRetryMaxDelay
	}
	if policy.MaxDelay < policy.BaseDelay {
		return nil, fmt.Errorf("riptide/core: MaxDelay %v below BaseDelay %v", policy.MaxDelay, policy.BaseDelay)
	}
	if policy.FailureBudget == 0 {
		policy.FailureBudget = DefaultRetryFailureBudget
	}
	if policy.Sleep == nil {
		policy.Sleep = time.Sleep
	}
	return &RetryingRouteProgrammer{
		inner:    inner,
		policy:   policy,
		failures: make(map[netip.Prefix]int),
	}, nil
}

var (
	_ RouteProgrammer      = (*RetryingRouteProgrammer)(nil)
	_ BatchRouteProgrammer = (*RetryingRouteProgrammer)(nil)
)

// Stats returns a copy of the decorator's counters.
func (r *RetryingRouteProgrammer) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// backoff returns the delay before the given retry (1-based).
func (r *RetryingRouteProgrammer) backoff(retry int) time.Duration {
	d := r.policy.BaseDelay
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= r.policy.MaxDelay || d < 0 {
			return r.policy.MaxDelay
		}
	}
	if d > r.policy.MaxDelay {
		return r.policy.MaxDelay
	}
	return d
}

// wait blocks for the backoff delay; with a policy context it selects on
// a timer so cancellation interrupts the wait without leaking a goroutine.
func (r *RetryingRouteProgrammer) wait(d time.Duration) error {
	ctx := r.policy.Context
	if ctx == nil {
		r.policy.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs op with retries; it returns the last error when every attempt
// failed, or a context error when the policy context is cancelled first.
// firstDespiteCancel lets the initial attempt run even under a cancelled
// context — route withdrawal relies on it during shutdown — while retries
// and backoff waits are always abandoned on cancellation.
func (r *RetryingRouteProgrammer) do(op func() error, firstDespiteCancel bool) error {
	ctx := r.policy.Context
	var err error
	for attempt := 1; attempt <= r.policy.MaxAttempts; attempt++ {
		if ctx != nil && ctx.Err() != nil && !(attempt == 1 && firstDespiteCancel) {
			if err != nil {
				return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), err)
			}
			return ctx.Err()
		}
		if attempt > 1 {
			r.count(func(s *RetryStats) { s.Retries++ }, "riptide_route_retries")
			if werr := r.wait(r.backoff(attempt - 1)); werr != nil {
				return fmt.Errorf("%w (last attempt: %v)", werr, err)
			}
		}
		r.count(func(s *RetryStats) { s.Attempts++ }, "riptide_route_attempts")
		if err = op(); err == nil {
			return nil
		}
	}
	r.count(func(s *RetryStats) { s.Exhausted++ }, "riptide_route_retry_exhausted")
	return err
}

// count applies a stats mutation and mirrors it into the metrics registry.
func (r *RetryingRouteProgrammer) count(f func(*RetryStats), metric string) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
	if r.policy.Metrics != nil {
		r.policy.Metrics.Counter(metric).Inc()
	}
}

// SetInitCwnd implements RouteProgrammer with retries and the fallback
// budget.
func (r *RetryingRouteProgrammer) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	err := r.do(func() error { return r.inner.SetInitCwnd(prefix, cwnd) }, false)
	if err == nil {
		r.ForgetRoute(prefix)
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The operation was abandoned, not refused: shutdown must neither
		// charge the destination's failure budget nor withdraw its route.
		return err
	}

	r.mu.Lock()
	r.failures[prefix]++
	consecutive := r.failures[prefix]
	budget := r.policy.FailureBudget
	exhausted := budget > 0 && consecutive >= budget
	if exhausted {
		delete(r.failures, prefix)
	}
	r.mu.Unlock()
	if !exhausted {
		return err
	}

	// Budget exhausted: withdraw the route so the destination reverts to
	// the kernel default rather than keeping whatever half-state the
	// failing substrate left behind.
	if clrErr := r.inner.ClearInitCwnd(prefix); clrErr != nil {
		r.count(func(s *RetryStats) { s.FallbackErrors++ }, "riptide_route_fallback_errors")
		return fmt.Errorf("set initcwnd %v after %d consecutive failures: %v (fallback clear failed: %w)",
			prefix, consecutive, err, clrErr)
	}
	r.count(func(s *RetryStats) { s.Fallbacks++ }, "riptide_route_fallbacks")
	return fmt.Errorf("%w (dst %v, %d consecutive failures, last: %v)",
		ErrFallbackCleared, prefix, consecutive, err)
}

// ProgramRoutes implements BatchRouteProgrammer. When the wrapped programmer
// has a batch path, the whole set goes through it first — one netlink batch
// or one kernel lock acquisition for the common all-success round —
// and only the members it reports failed (which, for a backend that cannot
// attribute batch failures, may be all of them) are re-driven individually
// through the full retry/budget/fallback machinery. Without an inner batch
// path every member takes the individual path directly. The result follows
// the BatchRouteProgrammer contract: nil when everything (eventually)
// succeeded, else one error slot per op.
func (r *RetryingRouteProgrammer) ProgramRoutes(ops []RouteOp) []error {
	if len(ops) == 0 {
		return nil
	}
	r.count(func(s *RetryStats) { s.Batches++ }, "riptide_route_batches")
	bp, hasBatch := r.inner.(BatchRouteProgrammer)
	var batchErrs []error
	if hasBatch {
		r.count(func(s *RetryStats) { s.Attempts++ }, "riptide_route_attempts")
		batchErrs = bp.ProgramRoutes(ops)
		// The batch installed every member it did not report failed: their
		// failure budgets reset like an individual success's would, under
		// one lock for the whole batch, and with no walk at all while no
		// destination is failing. The batch ran before any re-drive below,
		// so its resets come first.
		r.mu.Lock()
		if len(r.failures) > 0 {
			for i, op := range ops {
				if batchErrs == nil || batchErrs[i] == nil {
					delete(r.failures, op.Prefix)
				}
			}
		}
		r.mu.Unlock()
		if batchErrs == nil {
			return nil
		}
	}
	var errs []error
	for i, op := range ops {
		if hasBatch {
			if batchErrs[i] == nil {
				continue
			}
			r.count(func(s *RetryStats) { s.BatchFallbacks++ }, "riptide_route_batch_fallbacks")
		}
		var err error
		if op.Clear {
			err = r.ClearInitCwnd(op.Prefix)
		} else {
			err = r.SetInitCwnd(op.Prefix, op.Window)
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

// ForgetRoute drops prefix's failure count, as a success does. The agent
// calls it when it deletes a destination it never installed, so no later
// install continues that destination's failures (see RouteProgrammer).
func (r *RetryingRouteProgrammer) ForgetRoute(prefix netip.Prefix) {
	r.mu.Lock()
	delete(r.failures, prefix)
	r.mu.Unlock()
}

// ClearInitCwnd implements RouteProgrammer with retries (no fallback — the
// clear is already the conservative action; a failure is reported so the
// agent keeps the entry and retries next round). Cancelling the policy
// context does not abandon a clear outright: shutdown withdraws every
// installed route through this path, so the first attempt always runs;
// only the retries after it are dropped.
func (r *RetryingRouteProgrammer) ClearInitCwnd(prefix netip.Prefix) error {
	err := r.do(func() error { return r.inner.ClearInitCwnd(prefix) }, true)
	if err == nil {
		r.ForgetRoute(prefix)
	}
	return err
}
