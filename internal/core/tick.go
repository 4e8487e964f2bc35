package core

import (
	"encoding/binary"
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
//	plan    — fanned out over the state shards: route what changed since
//	          last round to its shard as edits to the retained grouping (a
//	          stable round), or key and regroup the whole stream (a
//	          rebuild); then per shard combine, smooth, clamp, review,
//	          refresh TTLs, and emit the shard's route plan (shard.go).
//	          Workers touch disjoint shards, so the only shared state is
//	          each shard's own lock.
//	commit  — a short global section: merge the per-shard plans, sort
//	          them for deterministic programming order, and fold the
//	          shards' stat deltas into Stats.
//	program — outside the locks again: apply the whole plan through the
//	          BatchRouteProgrammer when the backend offers one (one
//	          netlink batch / one kernel lock acquisition), falling
//	          back to per-op SetInitCwnd / ClearInitCwnd calls. Each
//	          shard lock is re-taken only to record results. An entry is
//	          recorded only after its route is actually installed, so a
//	          failed first program leaves no phantom entry.
//
// tickMu serializes whole rounds (and Close) so the stages of two mutators
// cannot interleave; no shard lock is held across a backend call, so Lookup,
// Entries, and Stats return promptly even mid-round. The merged plan is
// sorted by prefix before programming, so the agent's output — route ops,
// their order, and first-error identity — is byte-identical for every shard
// and worker count.

// programOp is one planned route installation. A destination carries at
// most one per round.
type programOp struct {
	dst    netip.Prefix
	window int
	obs    int // group size this round, recorded on success
	// st and shard let the commit stage reach the destination's state
	// without re-hashing and re-resolving the prefix. Plan ops never outlive
	// their tick, so the pointer cannot go stale.
	st    *destState
	shard int32
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
	// The plan stage stamps destStates with this sequence to detect "first
	// touch this tick" without clearing per-tick fields across the table.
	a.tickSeq++

	now := a.cfg.Clock()

	// Sample stage, outside any lock.
	if a.breakerBlocks(now) {
		a.countLocked(func(s *Stats) { s.DegradedTicks++ })
		return a.expirePass(now)
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
	if obs != nil {
		a.obsBuf = obs // keep the grown buffer for the next round
	}
	a.noteSampleSuccess()

	// Plan stage. Small rounds stay serial — goroutines cost more than they
	// save.
	nShards := len(a.shards)
	workers := 1
	if nShards > 1 && len(obs) >= parallelThreshold {
		workers = nShards
	}
	a.ingestWorkers = workers
	resetBuckets := func() {
		for i := 0; i < workers*nShards; i++ {
			a.buckets[i] = a.buckets[i][:0]
		}
	}
	resetBuckets()
	eachShard := func(fn func(s int)) {
		if workers > 1 {
			runParallel(nShards, fn)
			return
		}
		for s := 0; s < nShards; s++ {
			fn(s)
		}
	}
	a.tickObs, a.tickNow = obs, now
	if n := max(len(obs), len(a.obsPrev)); len(a.cache) < n {
		a.cache = append(a.cache, make([]cachedSample, n-len(a.cache))...)
	}

	// A round is stable when every shard still holds the grouping of last
	// round's stream with tail room left, and this round's stream differs
	// from it by a small share of positions: those are routed to the shards
	// as edits and the grouping is patched. Anything else is a rebuild, which
	// regroups from nothing (and resets the partially filled buckets).
	stable := a.havePrev && len(obs) > 0
	for _, sh := range a.shards {
		if sh.fullSeq == 0 || len(sh.memberIdx) > sh.memberLimit {
			stable = false
		}
	}
	// A stream that is literally last round's slice (a sampler with a fixed
	// set returning its own backing array) has nothing to compare.
	if stable && !(len(obs) == len(a.obsPrev) && &obs[0] == &a.obsPrev[0]) {
		runParallel(workers, a.compareW)
		stable = !slices.Contains(a.compareOK[:workers], false)
	}
	if stable {
		a.mStable.Inc()
		if a.cfg.Guard != nil {
			runParallel(workers, a.observeW)
		}
	} else {
		a.mRebuild.Inc()
		resetBuckets()
		runParallel(workers, a.ingestW)
	}
	// The governor has seen every valid sample; it closes its round before
	// any Review call.
	if a.cfg.Guard != nil {
		a.cfg.Guard.ObserveTick(now)
	}
	if stable {
		eachShard(a.planQuiescentS)
	} else {
		eachShard(a.planS)
	}
	a.tickObs = nil
	commitStart := time.Now()
	a.mPlan.Observe(commitStart.Sub(planStart))

	// Commit stage: merge the per-shard plans deterministically and fold
	// the stat deltas — the only remaining global critical section.
	var plan []programOp
	if len(a.shards) == 1 {
		// One shard: adopt its plan in place rather than copying the ops
		// through the merge buffer (the shard rebuilds it next round).
		plan = a.shards[0].plan
	} else {
		plan = a.planBuf[:0]
		for _, sh := range a.shards {
			plan = append(plan, sh.plan...)
		}
		a.planBuf = plan
	}
	clears := a.clearBuf[:0]
	var delta tickDelta
	for _, sh := range a.shards {
		clears = append(clears, sh.guardClears...)
		delta.add(sh.delta)
		sh.delta = tickDelta{}
	}
	expiredStart := len(clears)
	for _, sh := range a.shards {
		clears = append(clears, sh.expired...)
	}
	a.clearBuf = clears
	guardClears, expired := clears[:expiredStart], clears[expiredStart:]
	planIdx := a.sortPlan(plan)
	slices.SortFunc(guardClears, comparePrefix)
	slices.SortFunc(expired, comparePrefix)

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

	// Retain this round's stream as the next round's baseline. The sample
	// buffer hand-off keeps the invariant that obsPrev and obsBuf never share
	// a backing array: next round's sample appends into the retiring buffer
	// (or fresh space) while obsPrev stays frozen.
	prevScratch := a.obsPrev
	a.obsPrev = obs
	a.havePrev = true
	if sameBacking(obs, prevScratch) {
		a.obsBuf = nil
	} else {
		a.obsBuf = prevScratch[:0]
	}

	// Program stage, outside the locks.
	firstErr := a.programPlan(plan, planIdx, now)
	if err := a.clearTargets(guardClears, clearKindGuard, now); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := a.clearTargets(expired, clearKindExpired, now); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// planIdxBits is the width of the plan index a packed key carries in its low
// bits, below the 32 address bits and 6 prefix-length bits.
const planIdxBits = 26

// packOpKey encodes an IPv4 destination — address, then prefix length — and
// the op's index in the unsorted plan into one uint64 whose unsigned order
// equals comparePrefix's. It refuses IPv6 and 4-in-6 addresses and indices
// past planIdxBits; the caller then falls back to the comparator sort.
func packOpKey(op *programOp, idx int) (uint64, bool) {
	addr := op.dst.Addr()
	if !addr.Is4() || idx >= 1<<planIdxBits {
		return 0, false
	}
	b := addr.As4()
	return uint64(binary.BigEndian.Uint32(b[:]))<<32 | uint64(op.dst.Bits())<<planIdxBits | uint64(idx), true
}

// sortPlan orders the merged plan by destination without moving the ops. An
// all-IPv4 plan — the overwhelmingly common case — gets its packed 8-byte
// keys sorted and returned, so the sort compares integers instead of swapping
// 64-byte ops through a prefix comparator; the caller walks the plan through
// the indices in the keys. Plans with anything unpackable are
// comparator-sorted in place and get a nil key slice. Destinations are unique
// within a plan, so the order is total either way.
func (a *Agent) sortPlan(plan []programOp) []uint64 {
	keys := a.planKeys[:0]
	for i := range plan {
		k, ok := packOpKey(&plan[i], i)
		if !ok {
			slices.SortFunc(plan, func(x, y programOp) int { return comparePrefix(x.dst, y.dst) })
			return nil
		}
		keys = append(keys, k)
	}
	a.planKeys = keys
	slices.Sort(keys)
	return keys
}

// sameBacking reports whether two slices share a backing array (checked via
// their first element at full capacity).
func sameBacking(a, b []Observation) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][0] == &b[:cap(b)][0]
}

// programPlan installs the round's route plan — through one batch call when
// the backend supports it — and commits each success into its shard. keys,
// when non-nil, gives the sorted program order as indices into plan (which
// then stays unsorted); a nil keys means plan itself is already ordered.
func (a *Agent) programPlan(plan []programOp, keys []uint64, now time.Duration) error {
	if len(plan) == 0 {
		return nil
	}
	opAt := func(i int) *programOp {
		if keys != nil {
			return &plan[keys[i]&(1<<planIdxBits-1)]
		}
		return &plan[i]
	}
	ops := a.opsBuf.Take(len(plan))
	for i := range plan {
		op := opAt(i)
		ops = append(ops, RouteOp{Prefix: op.dst, Window: op.window})
	}
	errs := a.applyOps(ops)
	a.opsBuf.Keep(ops, len(ops))

	// Every planned op that installs appends one export-log ref: make the
	// room in one step, so a cold table does not double its way up.
	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.log = slices.Grow(sh.log, len(sh.plan))
		sh.mu.Unlock()
	}

	var firstErr error
	var set, routeErrs, cleared uint64
	// The shard lock is held across runs of consecutive same-shard ops
	// (with one shard, the whole plan) instead of being retaken per op.
	// Nothing blocking happens while it is held: the backend's results are
	// already in hand.
	var cur *shard
	unlockCur := func() {
		if cur != nil {
			cur.mu.Unlock()
			cur = nil
		}
	}
	defer unlockCur()
	for i := range plan {
		op := opAt(i)
		var err error
		if errs != nil {
			err = errs[i]
		}

		sh := a.shards[op.shard]
		if err != nil {
			unlockCur()
			routeErrs++
			if errors.Is(err, ErrFallbackCleared) {
				// The retry decorator gave up and withdrew the route;
				// drop our entry so Lookup reports the kernel default
				// rather than a window that is no longer installed.
				sh.mu.Lock()
				if sh.dropInstalled(a, op.dst) {
					cleared++
				}
				sh.mu.Unlock()
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("set initcwnd %v=%d: %w", op.dst, op.window, err)
			}
			continue
		}
		if sh != cur {
			unlockCur()
			sh.mu.Lock()
			cur = sh
		}
		// Only members of the grouping are planned and nothing between plan
		// and commit ends a membership, so the planned pointer is the map
		// occupant and needs no deadline: whatever ends the membership queues
		// one.
		st := op.st
		wasInstalled := st.installed
		if !wasInstalled {
			st.installed = true
			sh.installed++
			// New destination: the plan stage could not count its samples
			// because no entry existed yet.
			st.samples = uint64(op.obs)
		}
		st.window = op.window
		st.expires = now + a.cfg.TTL
		st.updated = now
		st.lastObs = op.obs
		st.merged = false
		st.mergedAge = 0
		st.programs++
		st.version = a.bumpVersion()
		sh.logStamp(op.dst, st, wasInstalled)
		set++
	}
	unlockCur()
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
// the shard lock, so a destination re-observed between collection and
// withdrawal is skipped; guard targets are withdrawn as long as the entry
// still exists (the governor's verdict already decided the round).
func (a *Agent) clearTargets(targets []netip.Prefix, kind clearKind, now time.Duration) error {
	if len(targets) == 0 {
		return nil
	}
	// Re-check which targets still need clearing; filtering in place is
	// safe because targets aliases the agent's scratch for this round.
	live := targets[:0]
	for _, dst := range targets {
		sh := a.shardFor(dst)
		sh.mu.Lock()
		st, ok := sh.states[dst]
		needed := ok && st.installed && (kind == clearKindGuard || st.expires <= now)
		sh.mu.Unlock()
		if needed {
			live = append(live, dst)
		}
	}
	if len(live) == 0 {
		return nil
	}

	ops := make([]RouteOp, len(live))
	for i, dst := range live {
		ops[i] = RouteOp{Prefix: dst, Clear: true}
	}
	errs := a.applyOps(ops)

	var firstErr error
	var expiredN, clearedN, guardClearedN, routeErrs uint64
	for i, dst := range live {
		var err error
		if errs != nil {
			err = errs[i]
		}
		sh := a.shardFor(dst)
		if err != nil {
			routeErrs++
			if firstErr == nil {
				if kind == clearKindGuard {
					firstErr = fmt.Errorf("guard clear initcwnd %v: %w", dst, err)
				} else {
					firstErr = fmt.Errorf("clear initcwnd %v: %w", dst, err)
				}
			}
			continue
		}
		sh.mu.Lock()
		sh.dropInstalled(a, dst)
		sh.mu.Unlock()
		clearedN++
		switch kind {
		case clearKindGuard:
			guardClearedN++
			a.cfg.Metrics.Counter("riptide_guard_clears").Inc()
		case clearKindExpired:
			expiredN++
		}
	}
	a.mu.Lock()
	a.stats.RoutesCleared += clearedN
	a.stats.EntriesExpired += expiredN
	a.stats.GuardCleared += guardClearedN
	a.stats.RouteErrors += routeErrs
	a.mu.Unlock()
	return firstErr
}

// expirePass runs only the TTL-expiry portion of a round: collect lapsed
// entries under the shard locks, withdraw their routes outside them. Only
// deadlines that have come due are looked at, so a no-op expiry round costs
// O(shards).
func (a *Agent) expirePass(now time.Duration) error {
	expired := a.clearBuf[:0]
	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.expired = sh.expired[:0]
		a.expireDueLocked(sh, now)
		expired = append(expired, sh.expired...)
		sh.mu.Unlock()
	}
	a.clearBuf = expired
	slices.SortFunc(expired, comparePrefix)
	return a.clearTargets(expired, clearKindExpired, now)
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
