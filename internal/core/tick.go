package core

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"
)

// This file implements the agent's poll round as a four-stage pipeline:
//
//	sample  — outside any lock: run the sampler (which may block for
//	          seconds against a wedged kernel dump) into a pooled buffer.
//	plan    — scan the stream: compare it with last round's records for
//	          what changed (a stable round) or key all of it (a rebuild),
//	          and show it to the governor; then, under the table lock,
//	          apply the edits to the retained grouping, combine, smooth,
//	          clamp, review, refresh TTLs, and emit the round's route plan
//	          (table.go).
//	commit  — sort the plan and the withdrawal lists by prefix for
//	          deterministic programming order, and fold the plan's stat
//	          deltas into Stats.
//	program — outside the lock again: apply the whole plan through the
//	          BatchRouteProgrammer when the backend offers one (one
//	          netlink batch / one kernel lock acquisition), falling
//	          back to per-op SetInitCwnd / ClearInitCwnd calls. The table
//	          lock is re-taken only to record results. An entry is
//	          recorded only after its route is actually installed, so a
//	          failed first program leaves no phantom entry.
//
// Every stage runs on the goroutine that calls Tick; a round starts none.
// tickMu serializes whole rounds (and Close) so the stages of two mutators
// cannot interleave; the table lock is never held across a backend call, so
// Lookup, Entries, and Stats wait at most one plan stage, even mid-round.
// The plan is sorted by prefix before programming, so the agent's output —
// route ops, their order, and first-error identity — does not depend on the
// order in which the plan visited the destinations.

// programOp is one planned route installation. A destination carries at
// most one per round.
type programOp struct {
	window int32
	obs    int32 // group size this round, recorded on success
	// st is the destination's state, which holds its route key: the commit
	// stage reaches it without re-resolving the prefix. Plan ops never
	// outlive their tick, so the pointer cannot go stale.
	st *destState
}

// rebuildReason is why a round was planned by a rebuild. Each rebuild round
// counts under exactly one: the first of these that applies.
type rebuildReason int

const (
	// rebuildNoPrev: there is no previous stream — the agent's first round.
	rebuildNoPrev rebuildReason = iota
	// rebuildEmpty: the sample is empty.
	rebuildEmpty
	// rebuildNoGrouping: the table holds no grouping — the last one was
	// disbanded after a TTL with no plan round (a sampler outage).
	rebuildNoGrouping
	// rebuildMemberTail: relocated member spans have used up the tail room
	// of memberIdx (past memberLimit).
	rebuildMemberTail
	// rebuildEditBudget: the stream's membership edits exceeded their share.
	rebuildEditBudget
	numRebuildReasons
)

// rebuildCounters names each reason's registry counter; together they sum to
// riptide_tick_rounds_rebuild.
var rebuildCounters = [numRebuildReasons]string{
	rebuildNoPrev:     "riptide_tick_rebuild_no_prev",
	rebuildEmpty:      "riptide_tick_rebuild_empty_sample",
	rebuildNoGrouping: "riptide_tick_rebuild_no_grouping",
	rebuildMemberTail: "riptide_tick_rebuild_member_tail",
	rebuildEditBudget: "riptide_tick_rebuild_edit_budget",
}

// clearKind distinguishes why a route withdrawal was planned, which decides
// the stats it bumps and whether expiry is re-checked before clearing.
type clearKind int

const (
	clearKindExpired clearKind = iota
	clearKindGuard
)

// Tick executes one iteration of Algorithm 1: sample, group, combine,
// smooth, clamp, program, expire. It returns the first route-programming
// error encountered (after attempting all destinations) or a sampling
// error. While the sampler circuit breaker is open, Tick degrades to an
// expiry-only pass and returns nil; the degradation is visible in Stats.
func (a *Agent) Tick() error {
	// The stage histograms are chained: each stage ends at the clock read
	// that starts the next, so a round reads the wall clock five times. The
	// sample stage's span opens at the tick's start.
	start := time.Now()
	a.tickMu.Lock()
	defer a.tickMu.Unlock()
	defer func() { a.mTick.Observe(time.Since(start)) }()

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	a.stats.Ticks++
	a.mu.Unlock()
	// Whichever way the round ends, what it used far less of goes back.
	defer a.giveBack()
	// The plan stage stamps destStates with this sequence to detect "first
	// touch this tick" without clearing per-tick fields across the table.
	a.tickSeq++

	now := a.cfg.Clock()

	// Sample stage, outside any lock.
	if a.breakerBlocks(now) {
		a.countLocked(func(s *Stats) { s.DegradedTicks++ })
		return a.expirePass(now)
	}
	// The sampler decodes over last round's stream: the sample cache holds
	// all the compare needs of it. An array the stream outgrew, or now uses
	// far less of, is replaced at the stream's size plus an eighth, without
	// copying: its contents are dead. A nil obsBuf is none to hand.
	prevN := len(a.cache)
	if c := cap(a.obsBuf); c < prevN && a.obsBuf != nil || farLess(prevN, c) {
		a.obsBuf = make([]Observation, 0, prevN+prevN/8)
	}
	obs, err := a.cfg.Sampler.SampleConnections(a.obsBuf[:0])
	planStart := time.Now()
	a.mSample.Observe(planStart.Sub(start))
	if err != nil {
		a.noteSampleFailure(now)
		// Expire stale entries even when sampling fails, so a dead
		// sampler cannot pin stale aggressive windows forever.
		if expErr := a.expirePass(now); expErr != nil {
			return fmt.Errorf("sample connections: %v (also: %w)", err, expErr)
		}
		return fmt.Errorf("sample connections: %w", err)
	}
	a.noteSampleSuccess()
	// A slice longer than obsBuf is one the sampler grew past it (or its
	// own, which ignores buf anyway) and becomes obsBuf. Any other slice
	// outside obsBuf is the sampler's own (ownSlice), after which it is
	// handed none (obsBuf nil), or, with no obsBuf to tell the two apart, a
	// first fill grown from nothing; obsBuf is then empty but not nil, so the
	// next round replaces it, and the fill's append doubling is not kept.
	switch c := cap(a.obsBuf); {
	case c > 0 && len(obs) > c:
		a.obsBuf, a.ownSlice = obs, false
	case len(obs) == 0 || c > 0 && &obs[0] == &a.obsBuf[:1][0]:
		a.ownSlice = false // decoded into obsBuf, or empty
	case a.obsBuf == nil && !a.ownSlice:
		a.obsBuf, a.ownSlice = obs[:0:0], true
	default:
		a.obsBuf, a.ownSlice = nil, true
	}

	// Plan stage.
	a.cache = append(a.cache, make([]cachedSample, max(len(obs)-len(a.cache), 0))...)
	tb := &a.tab
	tb.plan, tb.guardClears, tb.expired = tb.plan[:0], tb.guardClears[:0], tb.expired[:0]

	// A round is stable when the table still holds the grouping of last
	// round's stream with tail room left, and this round's stream differs
	// from it by a small share of positions: those are listed as edits and
	// the grouping is patched. Anything else is a rebuild, which regroups
	// from nothing (leaving a partially filled edit list unread), counted
	// under the first reason that applies. Only tickMu writes the grouping,
	// so it is read here without the table lock.
	var stable bool
	var why rebuildReason
	switch {
	case !a.havePrev:
		why = rebuildNoPrev
	case len(obs) == 0:
		why = rebuildEmpty
	case tb.fullSeq == 0:
		why = rebuildNoGrouping
	case len(tb.memberIdx) > tb.memberLimit:
		why = rebuildMemberTail
	default:
		stable, why = a.compareStream(obs), rebuildEditBudget
	}
	// A rebuild records every position afresh; planRebuild keys them.
	if !stable {
		for i := range obs {
			a.cache[i] = cachedSample{word: sampleWord(&obs[i])}
		}
	}
	// The governor sees every valid sample under the key its record gives,
	// and closes its round before any Review call.
	if a.cfg.Guard != nil {
		a.observeStream(obs)
		a.cfg.Guard.ObserveTick(now)
	}
	if stable {
		a.mStable.Inc()
		a.planStable(obs, now)
	} else {
		a.mRebuild.Inc()
		a.mRebuildWhy[why].Inc()
		a.planRebuild(obs, now)
	}
	commitStart := time.Now()
	a.mPlan.Observe(commitStart.Sub(planStart))

	// Commit stage: order the plan and the withdrawals, fold the stat deltas.
	plan, guardClears, expired := tb.plan, tb.guardClears, tb.expired
	delta := tb.delta
	tb.delta = tickDelta{}
	sortByPrefix(plan, &a.sortKeys, func(op *programOp) netip.Prefix { return op.st.key })
	sortPrefixes(guardClears, &a.sortKeys)
	sortPrefixes(expired, &a.sortKeys)

	a.mu.Lock()
	a.stats.Observations += uint64(len(obs))
	a.stats.CombinerRejects += delta.combinerRejects
	a.stats.GuardCapped += delta.guardCapped
	a.stats.GuardVetoed += delta.guardVetoed
	a.stats.GuardQuarantined += delta.guardQuarantined
	a.mu.Unlock()
	if delta.combinerRejects > 0 {
		a.cfg.Metrics.Counter("riptide_combiner_rejects").Add(delta.combinerRejects)
	}
	if delta.advisorRejects > 0 {
		a.cfg.Metrics.Counter("riptide_advisor_rejects").Add(delta.advisorRejects)
	}
	a.mCommit.Observe(time.Since(commitStart))

	// The records cover this round's stream, and follow the socket count
	// down under the retention rule; the positions it lost pin no state.
	clear(a.cache[len(obs):])
	a.cache = fit(a.cache[:len(obs)])
	a.havePrev = true

	// Program stage, outside the locks.
	firstErr := a.programPlan(plan, now)
	if err := a.clearTargets(guardClears, clearKindGuard, now); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := a.clearTargets(expired, clearKindExpired, now); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// programPlan installs the round's route plan, in plan order — through one
// batch call when the backend supports it — and commits each success into
// the table. The commit's table versions are handed out from a local counter
// and published with one add: tickMu orders every writer of the version.
func (a *Agent) programPlan(plan []programOp, now time.Duration) error {
	if len(plan) == 0 {
		return nil
	}
	ops := a.opsBuf.Take(len(plan))
	for i := range plan {
		ops = append(ops, RouteOp{Prefix: plan[i].st.key, Window: int(plan[i].window)})
	}
	errs := a.applyOps(ops)
	a.opsBuf.Keep(ops, len(ops))

	var firstErr error
	var set, routeErrs, cleared uint64
	// Nothing blocking happens while the table lock is held: the backend's
	// results are already in hand.
	tb := &a.tab
	tb.mu.Lock()
	// Every planned op that installs appends one export-log ref: make the
	// room in one step, so a cold table does not double its way up.
	tb.log = slices.Grow(tb.log, len(plan))
	base := a.tableVer.Load()
	ver := base
	for i := range plan {
		op := &plan[i]
		st := op.st
		if errs != nil && errs[i] != nil {
			err := errs[i]
			routeErrs++
			// The retry decorator gave up and withdrew the route: drop our
			// entry so Lookup reports the kernel default rather than a
			// window that is no longer installed.
			if errors.Is(err, ErrFallbackCleared) && a.dropInstalled(st.key) {
				cleared++
				ver++
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("set initcwnd %v=%d: %w", st.key, op.window, err)
			}
			continue
		}
		// Only members of the grouping are planned and nothing between plan
		// and commit ends a membership, so the planned pointer is the map
		// occupant and needs no deadline: whatever ends the membership queues
		// one.
		wasInstalled := st.installed
		if !wasInstalled {
			st.installed = true
			tb.installed++
			// New destination: the plan stage could not count its samples
			// because no entry existed yet.
			st.samples = uint64(op.obs)
		}
		st.window = op.window
		st.expires = now + a.cfg.TTL
		st.updated = now
		st.lastObs = op.obs
		st.mergedAge = 0
		ver++
		st.version = ver
		tb.logStamp(st, wasInstalled)
		set++
	}
	a.tableVer.Add(ver - base)
	tb.mu.Unlock()
	a.mu.Lock()
	a.stats.RoutesSet += set
	a.stats.RouteErrors += routeErrs
	a.stats.RoutesCleared += cleared
	a.mu.Unlock()
	return firstErr
}

// clearTargets withdraws the given routes and, for each success, removes
// the entry and forgets its history. A failed withdrawal keeps the entry so
// the next round retries it. Expired targets re-check their deadline under
// the table lock, so a destination re-observed between collection and
// withdrawal is skipped; guard targets are withdrawn as long as the entry
// still exists (the governor's verdict already decided the round).
func (a *Agent) clearTargets(targets []netip.Prefix, kind clearKind, now time.Duration) error {
	if len(targets) == 0 {
		return nil
	}
	// Re-check which targets still need clearing; filtering in place is
	// safe because targets aliases the table's scratch for this round.
	tb := &a.tab
	live := targets[:0]
	tb.mu.Lock()
	for _, dst := range targets {
		if st := tb.states.get(dst); st != nil && st.installed && (kind == clearKindGuard || st.expires <= now) {
			live = append(live, dst)
		}
	}
	tb.mu.Unlock()
	if len(live) == 0 {
		return nil
	}

	ops := a.clearOps.Take(len(live))
	for _, dst := range live {
		ops = append(ops, RouteOp{Prefix: dst, Clear: true})
	}
	errs := a.applyOps(ops)
	a.clearOps.Keep(ops, len(ops))

	var firstErr error
	var clearedN, dropped, routeErrs uint64
	tb.mu.Lock()
	for i, dst := range live {
		if errs != nil && errs[i] != nil {
			routeErrs++
			if firstErr == nil {
				if kind == clearKindGuard {
					firstErr = fmt.Errorf("guard clear initcwnd %v: %w", dst, errs[i])
				} else {
					firstErr = fmt.Errorf("clear initcwnd %v: %w", dst, errs[i])
				}
			}
			continue
		}
		if a.dropInstalled(dst) {
			dropped++
		}
		clearedN++
	}
	a.tableVer.Add(dropped)
	tb.mu.Unlock()
	a.mu.Lock()
	a.stats.RoutesCleared += clearedN
	if kind == clearKindGuard {
		a.stats.GuardCleared += clearedN
	} else {
		a.stats.EntriesExpired += clearedN
	}
	a.stats.RouteErrors += routeErrs
	a.mu.Unlock()
	if kind == clearKindGuard && clearedN > 0 {
		a.cfg.Metrics.Counter("riptide_guard_clears").Add(clearedN)
	}
	return firstErr
}

// expirePass runs only the TTL-expiry portion of a round: collect lapsed
// entries under the table lock, withdraw their routes outside it. Only
// deadlines that have come due are looked at, so a no-op expiry round costs
// O(1).
func (a *Agent) expirePass(now time.Duration) error {
	tb := &a.tab
	tb.mu.Lock()
	tb.expired = tb.expired[:0]
	a.expireDueLocked(now)
	tb.mu.Unlock()
	sortPrefixes(tb.expired, &a.sortKeys)
	return a.clearTargets(tb.expired, clearKindExpired, now)
}

// breakerBlocks reports whether the sampler circuit breaker suppresses
// sampling this round. Once the cooldown lapses the round is allowed
// through as a probe; its outcome re-arms or closes the breaker. Called
// under tickMu.
func (a *Agent) breakerBlocks(now time.Duration) bool {
	if a.cfg.BreakerThreshold < 0 || !a.breakerOpen {
		return false
	}
	return now < a.breakerUntil
}

// noteSampleFailure records a sampler error and advances the breaker state.
// Called under tickMu.
func (a *Agent) noteSampleFailure(now time.Duration) {
	a.countLocked(func(s *Stats) { s.SampleErrors++ })
	if a.cfg.BreakerThreshold < 0 {
		return
	}
	a.sampleFailures++
	if a.sampleFailures < a.cfg.BreakerThreshold {
		return
	}
	// Threshold crossed, or a half-open probe failed: (re)open.
	if !a.breakerOpen {
		a.countLocked(func(s *Stats) { s.BreakerOpens++ })
		a.cfg.Metrics.Counter("riptide_breaker_opens").Inc()
	}
	a.breakerOpen = true
	a.breakerUntil = now + a.cfg.BreakerCooldown
}

// noteSampleSuccess resets the breaker after a healthy sample. Called under
// tickMu.
func (a *Agent) noteSampleSuccess() {
	a.sampleFailures = 0
	a.breakerOpen = false
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
