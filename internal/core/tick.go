package core

import (
	"cmp"
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
//	          seconds against a wedged `ss`) into a pooled buffer.
//	plan    — fanned out over the state shards: validate and route each
//	          observation to its shard (ingest), then per shard regroup,
//	          combine, smooth, clamp, review, refresh TTLs, and emit the
//	          shard's route plan. Workers touch disjoint shards, so the
//	          only shared state is each shard's own lock.
//	commit  — a short global section: merge the per-shard plans, sort
//	          them for deterministic programming order, and fold the
//	          shards' stat deltas into Stats.
//	program — outside the locks again: apply the whole plan through the
//	          BatchRouteProgrammer when the backend offers one (a single
//	          `ip -batch` exec / one kernel lock acquisition), falling
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

// programOp is one planned route installation.
type programOp struct {
	dst    netip.Prefix
	window int
	obs    int // group size this round, recorded on success
	// st and shard let the commit stage reach the destination's state
	// without re-hashing and re-resolving the prefix. st may be nil
	// (aggregate parent ops); the commit stage trusts it only while it is
	// still the installed map occupant, falling back to the map otherwise.
	// Plan ops never outlive their tick, so the pointer cannot go stale.
	st    *destState
	shard int32
	// aggregate marks a covering-route installation planned by the
	// aggregate pass; committing it marks the aggState installed.
	aggregate bool
	// split marks the reinstallation of an absorbed child whose window
	// diverged from its aggregate; committing it counts AggregateSplits.
	split bool
}

// clearKind distinguishes why a route withdrawal was planned, which decides
// the stats it bumps and whether expiry is re-checked before clearing.
type clearKind int

const (
	clearKindExpired clearKind = iota
	clearKindGuard
	// clearKindAbsorb withdraws a child route now covered by an installed
	// aggregate; the state is kept (marked absorbed), not dropped.
	clearKindAbsorb
	// clearKindDissolve withdraws a covering aggregate route after its
	// members were reinstalled (or lapsed).
	clearKindDissolve
)

// Tick executes one iteration of Algorithm 1: sample, group, combine,
// smooth, clamp, program, expire. It returns the first route-programming
// error encountered (after attempting all destinations) or a sampling
// error. While the sampler circuit breaker is open, Tick degrades to an
// expiry-only pass and returns nil; the degradation is visible in Stats.
func (a *Agent) Tick() error {
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
	sampleStart := time.Now()
	obs, err := a.cfg.Sampler.SampleConnections(a.obsBuf[:0])
	a.mSample.Observe(time.Since(sampleStart))
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

	// Delta setup: size this round's sample cache.
	if a.delta {
		if cap(a.cacheCur) < len(obs) {
			a.cacheCur = make([]cachedSample, len(obs))
		} else {
			a.cacheCur = a.cacheCur[:cap(a.cacheCur)]
		}
	}

	// Plan stage: route observations to shards, then plan each shard.
	// Small rounds stay serial — goroutines cost more than they save.
	planStart := time.Now()
	nShards := len(a.shards)
	workers := 1
	if nShards > 1 && len(obs) >= parallelThreshold {
		workers = nShards
	}
	a.ingestWorkers = workers
	for i := 0; i < workers*nShards; i++ {
		a.buckets[i] = a.buckets[i][:0]
	}
	eachShard := func(fn func(s int)) {
		if workers > 1 {
			runParallel(nShards, fn)
			return
		}
		for s := 0; s < nShards; s++ {
			fn(s)
		}
	}

	// Stable-round detection (the quiescent fast path): with an eligible
	// config and a retained grouping with tail room left on every shard,
	// compare this round's sample against last round's. Positions that kept
	// their destination and validity need no ingest or regroup, and the few
	// that did not are applied to the grouping as edits; each shard then
	// patches only its edited and dirty groups and still-converging states.
	// A round whose edited share is too large falls back to the full path
	// below, which resets the (partially filled) buckets itself.
	stable := false
	if a.quiescentOK && a.havePrev && len(obs) > 0 {
		stable = true
		for _, sh := range a.shards {
			if sh.fullSeq == 0 || len(sh.memberIdx) > sh.memberLimit {
				stable = false
			}
		}
		// A stream that is literally last round's slice (a sampler with a
		// fixed set returning its own backing array) has nothing to compare.
		if stable && !(len(obs) == len(a.obsPrev) && &obs[0] == &a.obsPrev[0]) {
			if n := max(len(obs), len(a.obsPrev)); len(a.cachePrev) < n {
				a.cachePrev = append(a.cachePrev, make([]cachedSample, n-len(a.cachePrev))...)
			}
			runParallel(workers, func(w int) { a.compareOK[w] = a.compareChunk(w, obs) })
			stable = !slices.Contains(a.compareOK[:workers], false)
		}
	}

	if stable {
		a.mStable.Inc()
		eachShard(func(s int) { a.planShardQuiescent(s, obs, now) })
	} else {
		a.mRebuild.Inc()
		for i := 0; i < workers*nShards; i++ {
			a.buckets[i] = a.buckets[i][:0]
		}
		runParallel(workers, func(w int) { a.ingestChunk(w, obs) })
		// The governor sees every valid sample above, then closes its
		// round before any Review call.
		if a.cfg.Guard != nil {
			a.cfg.Guard.ObserveTick(now)
		}
		eachShard(func(s int) { a.planShard(s, obs, now) })
	}
	a.mPlan.Observe(time.Since(planStart))

	// Commit stage: merge the per-shard plans deterministically and fold
	// the stat deltas — the only remaining global critical section.
	commitStart := time.Now()
	var plan []programOp
	if len(a.shards) == 1 {
		// One shard: adopt its plan in place rather than copying ~150-byte
		// ops through the merge buffer (the shard rebuilds it next round).
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
	absorbStart := len(clears)
	for _, sh := range a.shards {
		clears = append(clears, sh.absorbs...)
	}
	dissolveStart := len(clears)
	for _, sh := range a.shards {
		clears = append(clears, sh.dissolves...)
	}
	a.clearBuf = clears
	guardClears := clears[:expiredStart]
	expired := clears[expiredStart:absorbStart]
	absorbs := clears[absorbStart:dissolveStart]
	dissolves := clears[dissolveStart:]
	// The plan comparator is total (dst, then window, then flags): the
	// same destination can legitimately carry two byte-identical-dst ops
	// in one round (a pass-3 split plus a dissolve reinstall), and an
	// unstable sort must still order them deterministically.
	planIdx := a.sortPlan(plan)
	for _, list := range [][]netip.Prefix{guardClears, expired, absorbs, dissolves} {
		slices.SortFunc(list, comparePrefix)
	}

	a.mu.Lock()
	a.stats.Observations += uint64(len(obs))
	a.stats.CombinerRejects += delta.combinerRejects
	a.stats.GuardCapped += delta.guardCapped
	a.stats.GuardVetoed += delta.guardVetoed
	a.stats.GuardQuarantined += delta.guardQuarantined
	a.stats.EntriesExpired += delta.expiredDropped
	a.mu.Unlock()
	if delta.combinerRejects > 0 {
		a.cfg.Metrics.Counter("riptide_combiner_rejects").Add(delta.combinerRejects)
	}
	if delta.advisorRejects > 0 {
		a.cfg.Metrics.Counter("riptide_advisor_rejects").Add(delta.advisorRejects)
	}
	a.mCommit.Observe(time.Since(commitStart))

	// Retain this round's stream as the next round's delta baseline. The
	// sample buffer hand-off keeps the invariant that obsPrev and obsBuf
	// never share a backing array: next round's sample appends into the
	// retiring buffer (or fresh space) while obsPrev stays frozen.
	if a.delta {
		// A stable round edits last round's cache in place; it stays
		// authoritative and is not swapped out.
		if !stable {
			a.cachePrev, a.cacheCur = a.cacheCur, a.cachePrev
		}
		prevScratch := a.obsPrev
		a.obsPrev = obs
		a.havePrev = true
		if sameBacking(obs, prevScratch) {
			a.obsBuf = nil
		} else {
			a.obsBuf = prevScratch[:0]
		}
	}

	// Program stage, outside the locks. Sets run first, so dissolve
	// reinstalls precede the covering-route withdrawal and absorb clears
	// follow their aggregate's installation — LPM coverage never gaps.
	firstErr := a.programPlan(plan, planIdx, now)
	if err := a.clearTargets(absorbs, clearKindAbsorb, now); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := a.clearTargets(guardClears, clearKindGuard, now); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := a.clearTargets(dissolves, clearKindDissolve, now); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := a.clearTargets(expired, clearKindExpired, now); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// planKey pairs a packed comparator key with the op's index in the
// unsorted plan, so the commit sort can order 8-byte keys instead of
// swapping 64-byte ops through a reflective comparator.
type planKey struct {
	key uint64
	idx int32
}

// packOpKey encodes every field compareProgramOp consults — IPv4 address,
// prefix length, window, split, aggregate — into one uint64 whose unsigned
// order equals the comparator's. It refuses anything it cannot encode
// exactly (IPv6 and 4-in-6 addresses, windows outside a byte); the caller
// then falls back to the comparator sort.
func packOpKey(op *programOp) (uint64, bool) {
	addr := op.dst.Addr()
	if !addr.Is4() || op.window < 0 || op.window > 0xff {
		return 0, false
	}
	b := addr.As4()
	k := uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 | uint64(b[3])<<16
	k |= uint64(op.dst.Bits()) << 10
	k |= uint64(op.window) << 2
	if op.split {
		k |= 2
	}
	if op.aggregate {
		k |= 1
	}
	return k, true
}

// sortPlan orders the merged plan by compareProgramOp without moving the ops.
// An all-IPv4 plan — the overwhelmingly common case — gets its packed
// 8-byte keys sorted and returned; the caller walks the plan through that
// index order. Plans with anything unpackable are comparator-sorted in
// place and get a nil key slice. Key ties break on emission index, which
// only matters for ops equal in every field the comparator sees (and
// therefore interchangeable anyway).
func (a *Agent) sortPlan(plan []programOp) []planKey {
	keys := a.planKeys[:0]
	packed := true
	for i := range plan {
		k, ok := packOpKey(&plan[i])
		if !ok {
			packed = false
			break
		}
		keys = append(keys, planKey{key: k, idx: int32(i)})
	}
	a.planKeys = keys
	if !packed {
		slices.SortFunc(plan, compareProgramOp)
		return nil
	}
	if len(keys) < 128 {
		slices.SortFunc(keys, func(x, y planKey) int {
			switch {
			case x.key < y.key:
				return -1
			case x.key > y.key:
				return 1
			default:
				return int(x.idx - y.idx)
			}
		})
		return keys
	}
	return a.radixSortPlanKeys(keys)
}

// radixSortPlanKeys stable-sorts keys by packed key ascending with LSD
// counting passes over the 48 significant bits, one byte at a time. The
// stability makes the emission-index tie-break implicit, so the order is
// identical to the comparison sort above; passes whose digit is constant
// across the whole plan (the top address bytes usually are) are skipped.
func (a *Agent) radixSortPlanKeys(keys []planKey) []planKey {
	tmp := a.planKeysTmp
	if cap(tmp) < len(keys) {
		tmp = make([]planKey, len(keys))
	}
	tmp = tmp[:len(keys)]
	src, dst := keys, tmp
	var count [256]int
	for shift := uint(0); shift < 48; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for i := range src {
			count[(src[i].key>>shift)&0xff]++
		}
		if count[(src[0].key>>shift)&0xff] == len(src) {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i := range src {
			d := (src[i].key >> shift) & 0xff
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	a.planKeys = src
	a.planKeysTmp = dst
	return src
}

// compareProgramOp is the total order for the round's merged plan: prefix
// first, then window, then the split/aggregate flags as tie-breakers.
func compareProgramOp(a, b programOp) int {
	if c := comparePrefix(a.dst, b.dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.window, b.window); c != 0 {
		return c
	}
	if a.split != b.split {
		return cmpBool(a.split, b.split)
	}
	return cmpBool(a.aggregate, b.aggregate)
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
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
func (a *Agent) programPlan(plan []programOp, keys []planKey, now time.Duration) error {
	if len(plan) == 0 {
		return nil
	}
	opAt := func(i int) *programOp {
		if keys != nil {
			return &plan[keys[i].idx]
		}
		return &plan[i]
	}
	ops := a.opsBuf[:0]
	for i := range plan {
		op := opAt(i)
		ops = append(ops, RouteOp{Prefix: op.dst, Window: op.window})
	}
	a.opsBuf = ops
	errs := a.applyOps(ops)

	var firstErr error
	var set, routeErrs, cleared, formed, splits uint64
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
			} else if op.aggregate {
				// A failed covering-route install leaves the children in
				// place; re-mark the parent so the formation retries.
				sh.mu.Lock()
				if agg := sh.aggs[op.dst]; agg != nil {
					a.aggMarkDirty(sh, op.dst, agg)
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
		// The planned state pointer short-circuits the map for the common
		// commit (a window change on an installed route). A state that lost
		// its installed flag since planning (an ErrFallbackCleared drop of
		// an earlier duplicate op) may no longer be the map occupant, so it
		// re-resolves.
		st := op.st
		if st == nil || !st.installed {
			st = sh.states[op.dst]
			if st == nil {
				st = sh.newDestState()
				sh.states[op.dst] = st
				a.aggRegister(sh, op.dst, st)
			}
		}
		wasInstalled := st.installed
		if !st.installed {
			st.installed = true
			sh.installed++
			if st.absorbed {
				// An absorbed child got its specific route back (window
				// divergence, or a dissolve reinstall); its accumulated
				// samples carry over.
				st.absorbed = false
				if op.split {
					splits++
				}
			} else {
				// New destination: the plan stage could not count its
				// samples because no entry existed yet.
				st.samples = uint64(op.obs)
			}
		}
		st.window = op.window
		st.expires = now + a.cfg.TTL
		st.updated = now
		st.lastObs = op.obs
		st.merged = false
		st.mergedAge = 0
		st.programs++
		st.version = a.bumpVersion()
		if wasInstalled {
			a.digestRefold(op.dst, st)
		} else {
			a.digestFold(op.dst, st)
			if !sh.grouped(st) {
				// An installed state is queued already, a grouped one
				// when it leaves the grouping.
				sh.noteExpiry(op.dst, st)
			}
		}
		if op.aggregate {
			if agg := sh.aggs[op.dst]; agg != nil && !agg.installed {
				agg.installed = true
				agg.window = op.window
				formed++
			}
		} else if parent, ok := a.aggKey(op.dst); ok {
			// A child install or window change can alter its aggregate's
			// membership maths; queue the parent for re-evaluation.
			if agg := sh.aggs[parent]; agg != nil {
				a.aggMarkDirty(sh, parent, agg)
			}
		}
		set++
	}
	unlockCur()
	a.mu.Lock()
	a.stats.RoutesSet += set
	a.stats.RouteErrors += routeErrs
	a.stats.RoutesCleared += cleared
	a.stats.AggregatesFormed += formed
	a.stats.AggregateSplits += splits
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
		var needed bool
		switch kind {
		case clearKindAbsorb:
			// Withdraw the child only while its covering route is actually
			// installed — a failed aggregate install must not strand the
			// child without any route.
			needed = ok && st.installed
			if needed {
				parent, pok := a.aggKey(dst)
				agg := sh.aggs[parent]
				needed = pok && agg != nil && agg.installed
			}
		case clearKindDissolve, clearKindGuard:
			needed = ok && st.installed
		default:
			needed = ok && st.installed && st.expires <= now
		}
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
	var absorbedN, dissolvedN uint64
	for i, dst := range live {
		var err error
		if errs != nil {
			err = errs[i]
		}
		sh := a.shardFor(dst)
		if err != nil {
			routeErrs++
			if kind == clearKindAbsorb || kind == clearKindDissolve {
				// Leave the route as-is and re-mark the aggregate so the
				// next round re-derives (and retries) the decision.
				key := dst
				if kind == clearKindAbsorb {
					if parent, ok := a.aggKey(dst); ok {
						key = parent
					}
				}
				sh.mu.Lock()
				if agg := sh.aggs[key]; agg != nil {
					a.aggMarkDirty(sh, key, agg)
				}
				sh.mu.Unlock()
			}
			if firstErr == nil {
				switch kind {
				case clearKindGuard:
					firstErr = fmt.Errorf("guard clear initcwnd %v: %w", dst, err)
				case clearKindAbsorb:
					firstErr = fmt.Errorf("absorb clear initcwnd %v: %w", dst, err)
				case clearKindDissolve:
					firstErr = fmt.Errorf("dissolve clear initcwnd %v: %w", dst, err)
				default:
					firstErr = fmt.Errorf("clear initcwnd %v: %w", dst, err)
				}
			}
			continue
		}
		sh.mu.Lock()
		if kind == clearKindAbsorb {
			// The covering route now serves this child; keep the state so
			// it goes on sampling and refreshing, but stop counting it as
			// an installed route.
			if st := sh.states[dst]; st != nil && st.installed {
				a.digestUnfold(st)
				st.installed = false
				st.absorbed = true
				sh.installed--
				absorbedN++
				// The child leaves the exported table (only specific
				// installed entries are shared); move the version so
				// delta peers notice.
				a.bumpVersion()
			}
		} else {
			sh.dropInstalled(a, dst)
			if kind == clearKindDissolve {
				dissolvedN++
			}
		}
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
	a.stats.ChildrenAbsorbed += absorbedN
	a.stats.AggregatesDissolved += dissolvedN
	a.mu.Unlock()
	return firstErr
}

// expirePass runs only the TTL-expiry portion of a round: collect lapsed
// entries under the shard locks, withdraw their routes outside them. Only
// deadlines that have come due are looked at, so a no-op expiry round costs
// O(shards).
func (a *Agent) expirePass(now time.Duration) error {
	expired := a.clearBuf[:0]
	var dropped uint64
	for _, sh := range a.shards {
		sh.mu.Lock()
		sh.expired = sh.expired[:0]
		dropped += a.expireDueLocked(sh, now)
		expired = append(expired, sh.expired...)
		sh.mu.Unlock()
	}
	a.clearBuf = expired
	if dropped > 0 {
		a.countLocked(func(s *Stats) { s.EntriesExpired += dropped })
	}
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
