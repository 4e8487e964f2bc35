package core

import (
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file holds the lock-striped shard machinery behind the agent's hot
// path. Per-destination state — the committed route entry, the smoothing
// state, and the per-tick grouping scratch — lives in ONE map slot per
// destination (destState), split across Config.Shards shards keyed by prefix
// hash. Tick fans its ingest and plan stages out over one worker per shard
// and merges the per-shard plans deterministically before the (short,
// global) commit stage. Collapsing entry + history + group bookkeeping into
// a single struct means the steady-state plan stage performs exactly one
// prefix-keyed map operation per observation; everything else is pointer
// chasing. See the pipeline overview in tick.go.

// maxShards bounds Config.Shards; beyond this the per-agent bucket matrix
// (shards² slice headers) costs more than the striping saves.
const maxShards = 256

// parallelThreshold is the observation count below which a tick stays on
// the serial path: spawning one goroutine per shard costs more than
// scanning a small sample set inline.
const parallelThreshold = 256

// MaxDefaultShards caps the Config.Shards default: plan-stage work per shard
// is tiny, so striping wider than this buys nothing while growing the bucket
// matrix quadratically. Benchmarks that derive a shard count from GOMAXPROCS
// clamp to it so their labels match the agent's effective configuration.
const MaxDefaultShards = 16

// defaultShards is the Config.Shards default: one shard per core, capped at
// MaxDefaultShards.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > MaxDefaultShards {
		n = MaxDefaultShards
	}
	return n
}

// destState is everything the agent knows about one destination, in one map
// slot: the committed route entry (valid while installed is true), the
// inline EWMA smoothing state (used unless a caller supplied a History
// policy), and the plan stage's grouping bookkeeping. Smoothing state
// outlives the installed route on purpose — a destination whose program
// keeps failing still accumulates history.
type destState struct {
	entry

	// Inline smoothing state for the default per-shard EWMA path (valid
	// while hasEwma).
	ewma float64

	// Grouping bookkeeping (tickMu only; see the plan-stage invariants
	// below). seq == sh.fullSeq marks a member of the shard's retained
	// grouping, whose prevN sample indices sit in
	// sh.memberIdx[memberOff:memberOff+prevN] (memberCap slots reserved);
	// lastValue is the Combine value of the latest round that changed the
	// group (valid while hasLast). dirtySeq dedups the group in a stable
	// round's dirty list; inActive tracks membership in sh.active.
	// cleanSeen is the sh.cleanRounds value up to which lazy TTL/sample
	// credit has been folded into the entry fields; ewmaSeen is the same
	// watermark for the smoothing state (replayed by forwardEWMALocked);
	// wakeAt is the sh.cleanRounds value at which the state's next window
	// flip is due (freezeHorizon's verdict) — until then the stable round
	// skips it, and 0 means the horizon must be recomputed on the next visit.
	seq       uint64
	prevN     int32
	memberOff int32
	memberCap int32
	lastValue float64
	dirtySeq  uint64
	cleanSeen uint64
	ewmaSeen  uint64
	wakeAt    uint64

	// due is the deadline of the state's live item in sh.deadlines, 0 when
	// none is queued (shard mu; see noteExpiry).
	due time.Duration

	// The flags sit together so they pack into one word.
	//
	// installed marks that a route is programmed and the embedded entry
	// fields are live; Lookup/Entries/snapshots ignore the state otherwise.
	installed bool
	// dead marks a state deleted from its shard (shard mu). Slab slots are
	// never recarved, so a pointer held by the sample cache or the deadline
	// queue stays readable and is validated against this mark alone.
	dead bool
	// held marks an installed route the governor vetoed in the latest round:
	// its withdrawal is pending and its TTL is not being refreshed.
	held     bool
	hasEwma  bool
	hasLast  bool
	inActive bool
}

// shard is one lock stripe of the agent's per-destination state, plus the
// scratch its plan worker reuses across ticks. mu guards states against
// concurrent readers (Lookup, Entries, ExportSnapshot) and cross-tick
// mutators; the scratch slices are touched only by the shard's worker under
// tickMu.
type shard struct {
	// idx is the shard's position in Agent.shards, stamped into plan ops so
	// the commit stage skips re-hashing the destination.
	idx    int32
	mu     sync.Mutex
	states map[netip.Prefix]*destState
	// installed counts states with a live route, maintained at every
	// commit/withdraw site — a sizing hint for Entries and snapshots.
	installed int
	// history is non-nil only when the caller supplied a shared History
	// policy; the default EWMA smoothing is inlined in destState.
	history HistoryPolicy

	// deadlines is a min-heap of TTL deadlines in due order (mu), at most one
	// live item per state: every installed state has one unless it is a
	// refreshed member of the retained grouping (expireDueLocked), so an
	// expiry round costs O(due), not O(entries).
	deadlines []expiryItem

	// log lists the shard's installed states in table-version order (mu; see
	// exportRef), so a delta export walks only the refs past its cursor.
	// logStale counts the refs whose state has since been re-stamped or
	// withdrawn.
	log      []exportRef
	logStale int

	// slab backs destState allocation in insertion-order blocks, so the
	// plan stage's pointer chasing walks mostly-sequential memory. Blocks
	// are never reallocated, keeping state pointers stable; slots of
	// deleted states are reclaimed only when their whole block is.
	slab    []destState
	slabOff int

	// Per-round plan output, reused across ticks (tickMu only).
	plan        []programOp
	guardClears []netip.Prefix
	expired     []netip.Prefix
	delta       tickDelta

	// The retained grouping (tickMu only, except where materializeLocked
	// runs under mu from readers; see the plan-stage invariants below).
	// memberIdx holds every group's member sample-indices in sample order,
	// packed by the last rebuild; stable rounds edit the spans in place and
	// relocate a full one to the tail, and a tail past memberLimit makes the
	// next round a (compacting) rebuild. touched lists the grouping's states
	// (plus, after edits, some that left). active lists those a stable round
	// must visit and drains as states converge. cleanRounds counts stable
	// rounds applied shard-wide since the agent started; refreshedAt is the
	// time of the latest plan round of either kind; fullSeq is the tick
	// sequence of the last rebuild, which every state in the grouping carries
	// in seq (0: no grouping). dirtyList and gather are per-round scratch.
	touched     []plannedDest
	memberIdx   []int32
	memberLimit int
	active      []plannedDest
	dirtyList   []plannedDest
	gather      []Observation
	cleanRounds uint64
	refreshedAt time.Duration
	fullSeq     uint64
	// creditPending marks that stable rounds ran since the covered set was
	// last settled: lazy credit is outstanding.
	creditPending bool
}

// grouped reports whether st is a member of the shard's retained grouping:
// observed when it was last rebuilt or edited, with a live member span.
func (sh *shard) grouped(st *destState) bool {
	return sh.fullSeq != 0 && st.seq == sh.fullSeq
}

// newDestState carves a destState from the shard's slab.
func (sh *shard) newDestState() *destState {
	if sh.slabOff == len(sh.slab) {
		n := 2 * len(sh.slab)
		if n == 0 {
			n = 64
		}
		if n > 4096 {
			n = 4096
		}
		sh.slab = make([]destState, n)
		sh.slabOff = 0
	}
	st := &sh.slab[sh.slabOff]
	sh.slabOff++
	// A brand-new state has earned no lazy clean-round credit, and its
	// window trajectory is unknown.
	st.cleanSeen = sh.cleanRounds
	st.ewmaSeen = sh.cleanRounds
	st.wakeAt = 0
	return st
}

// exportRef is one entry of a shard's export log: the table version a commit
// stamped on a state. Both stamp sites — programPlan and the merge commit —
// run under tickMu, which orders the agent-wide version counter, and append
// under the shard lock, so a shard's log ascends by version. A ref is live
// iff its state is installed, not dead and still carries that version; every
// installed state has exactly one live ref, so the live refs ARE the exported
// table, oldest commit first.
type exportRef struct {
	version uint64
	key     netip.Prefix
	st      *destState
}

// live needs one load: a state carries a non-zero version exactly while it is
// installed (dropState zeroes it), and slab slots are never recarved.
func (r *exportRef) live() bool {
	return r.st.version == r.version
}

// logAfter returns the index of the first ref stamped after version v. It
// gallops back from the tail before it bisects: a peer's cursor is almost
// always a round or two old, and that end of the log was just written.
func (sh *shard) logAfter(v uint64) int {
	log := sh.log
	lo, hi := 0, len(log) // log[hi:] is stamped after v, log[:lo] is not
	for step := 1; hi > 0; step *= 2 {
		p := max(hi-step, 0)
		if log[p].version <= v {
			lo = p + 1
			break
		}
		hi = p
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return log[lo+i].version > v })
}

// logStamp appends the ref for the version just stamped on st, under the
// shard lock; superseded says st already had a live ref, which the new stamp
// made stale.
func (sh *shard) logStamp(key netip.Prefix, st *destState, superseded bool) {
	if superseded {
		sh.logStaleRef()
	}
	sh.log = append(sh.log, exportRef{version: st.version, key: key, st: st})
}

// logStaleRef counts one ref gone stale and compacts the log in place once
// the stale refs pass half the live ones: the walk then covers at most three
// refs per stale-making commit since the last one, and the log (with the
// deleted states its stale refs pin) stays within 3/2 of the table. A log
// that drained (a whole table expired) gives its array back.
func (sh *shard) logStaleRef() {
	sh.logStale++
	if sh.logStale <= (len(sh.log)-sh.logStale)/2 {
		return
	}
	live := sh.log[:0]
	for _, r := range sh.log {
		if r.live() {
			live = append(live, r)
		}
	}
	clear(sh.log[len(live):]) // stale refs pin their states' slab blocks
	if cap(live) > 1024 && len(live) < cap(live)/4 {
		live = append(make([]exportRef, 0, 2*len(live)), live...)
	}
	sh.log, sh.logStale = live, 0
}

// expiryItem is one queued TTL deadline.
type expiryItem struct {
	due time.Duration
	key netip.Prefix
	st  *destState
}

// noteExpiry queues st's deadline unless an item due no later is already
// queued; a superseded item is recognised by its mismatching due when it
// pops. Called at a first install outside the retained grouping, a fleet
// merge and every eager full-path refresh, and whenever a state stops being
// refreshed as a member of the grouping. Deadlines are almost always written
// in due order (now+TTL), so the sift is O(1).
func (sh *shard) noteExpiry(key netip.Prefix, st *destState) {
	if st.due != 0 && st.due <= st.expires {
		return
	}
	st.due = st.expires
	h := append(sh.deadlines, expiryItem{due: st.expires, key: key, st: st})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].due <= h[i].due {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sh.deadlines = h
}

// popDue removes and returns the earliest queued deadline if it is due.
func (sh *shard) popDue(now time.Duration) (expiryItem, bool) {
	h := sh.deadlines
	if len(h) == 0 || h[0].due > now {
		return expiryItem{}, false
	}
	top := h[0]
	n := len(h) - 1
	h[0], h[n] = h[n], expiryItem{}
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].due < h[c].due {
			c++
		}
		if h[i].due <= h[c].due {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	sh.deadlines = h
	return top, true
}

// cachedSample is the sample cache entry for one observation index: the
// route key, shard and state the position resolved to when it was last keyed.
// invalid marks an observation the validation pass rejected, so its twin next
// round is rejected without re-keying.
type cachedSample struct {
	key     netip.Prefix
	st      *destState
	shard   int32
	invalid bool
}

// plannedDest is one destination observed this tick, in first-encounter
// (original sample) order.
type plannedDest struct {
	key netip.Prefix
	st  *destState
}

// keyedObs is one valid observation routed to a shard: the destination's
// route key plus the observation's index in the tick's sample slice. A
// rebuild resolves st once per observation (its only map lookup) and reuses
// the pointer for the fill pass.
type keyedObs struct {
	key netip.Prefix
	st  *destState
	idx int32
	// kind is set on stable rounds only (compareChunk): the observation
	// changed in place, left st's group, or joins key's group.
	kind obsKind
}

type obsKind uint8

const (
	obsDirty obsKind = iota
	obsLeave
	obsJoin
)

// tickDelta accumulates one shard's stat deltas during the plan stage; the
// commit stage folds them into Stats under a.mu.
type tickDelta struct {
	combinerRejects  uint64
	advisorRejects   uint64
	guardCapped      uint64
	guardVetoed      uint64
	guardQuarantined uint64
}

func (d *tickDelta) add(o tickDelta) {
	d.combinerRejects += o.combinerRejects
	d.advisorRejects += o.advisorRejects
	d.guardCapped += o.guardCapped
	d.guardVetoed += o.guardVetoed
	d.guardQuarantined += o.guardQuarantined
}

// prefixHash is FNV-1a over a route key's canonical 16-byte address plus
// its mask length: the shard selector, and the marker fold of ContentToken.
func prefixHash(p netip.Prefix) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	b := p.Addr().As16()
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	h ^= uint64(uint8(p.Bits()))
	h *= prime64
	return h
}

// shardIndex maps a route key to its stripe.
func (a *Agent) shardIndex(p netip.Prefix) int {
	if len(a.shards) == 1 {
		return 0
	}
	return int(prefixHash(p) % uint64(len(a.shards)))
}

func (a *Agent) shardFor(p netip.Prefix) *shard {
	return a.shards[a.shardIndex(p)]
}

// smooth folds value into the destination's smoothing state: the inline
// EWMA (bit-identical to EWMAHistory.Update) unless a caller-supplied
// policy is installed.
func (a *Agent) smooth(sh *shard, st *destState, key netip.Prefix, value float64) float64 {
	if sh.history != nil {
		return sh.history.Update(key, value)
	}
	if !st.hasEwma {
		st.ewma = value
		st.hasEwma = true
		return value
	}
	st.ewma = a.cfg.Alpha*st.ewma + (1-a.cfg.Alpha)*value
	return st.ewma
}

// forgetHistory drops a destination's smoothing state in a caller-supplied
// policy; the inline EWMA state dies with its destState, which dropState
// deletes or resets alongside this call.
func (a *Agent) forgetHistory(sh *shard, key netip.Prefix) {
	if sh.history != nil {
		sh.history.Forget(key)
	}
}

// dropInstalled removes dst's state (and any external history) after its
// route was withdrawn, under the shard lock. It reports whether a live
// entry existed. A successful drop bumps the table version: the entry
// vanishes from exports, so peers revalidating by version see the change even
// though no entry carries the new version (fleet sharing has no tombstones —
// receivers age the entry out via its TTL).
func (sh *shard) dropInstalled(a *Agent, dst netip.Prefix) bool {
	st, ok := sh.states[dst]
	if !ok || !st.installed {
		return false
	}
	sh.installed--
	a.dropState(sh, dst)
	sh.logStaleRef()
	a.bumpVersion()
	return true
}

// dropState deletes a destination's state (and any external history) under
// the shard lock, marking the struct dead — which is all that invalidates
// cached pointers to it. Callers maintain sh.installed themselves.
//
// A state that still has members in the retained grouping is observed right
// now: it would be re-created from nothing next round. It is reset in place
// instead (an uninstalled state is invisible to every reader), so its span,
// the sample cache and the other groups stay exact; it rejoins the active
// list, where hasLast == false forces a fresh Combine.
func (a *Agent) dropState(sh *shard, dst netip.Prefix) {
	st, ok := sh.states[dst]
	if !ok {
		return
	}
	a.forgetHistory(sh, dst)
	if sh.grouped(st) {
		*st = destState{
			seq: st.seq, prevN: st.prevN, memberOff: st.memberOff, memberCap: st.memberCap,
			dirtySeq: st.dirtySeq, inActive: st.inActive, cleanSeen: sh.cleanRounds, ewmaSeen: sh.cleanRounds,
		}
		if !st.inActive {
			st.inActive = true
			sh.active = append(sh.active, plannedDest{key: dst, st: st})
		}
		return
	}
	st.installed = false
	st.version = 0
	st.dead = true
	delete(sh.states, dst)
}

// lockedHistory serializes a caller-supplied HistoryPolicy that is shared
// across shards. Updates are keyed per prefix, so serializing them in
// whatever order the plan workers arrive cannot change any smoothed value.
type lockedHistory struct {
	mu    sync.Mutex
	inner HistoryPolicy
}

func (l *lockedHistory) Name() string { return l.inner.Name() }

func (l *lockedHistory) Update(dst netip.Prefix, value float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Update(dst, value)
}

func (l *lockedHistory) Forget(dst netip.Prefix) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.Forget(dst)
}

// runParallel runs fn(0..n-1), inline when n == 1. A call costs the WaitGroup
// and one closure per goroutine; passing i as a go-statement argument would
// add a second wrapper per goroutine.
func runParallel(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// Plan-stage invariants.
//
// The plan stage has one way to start over and one way to reuse last round's
// work, and they produce the same route ops, entries, stats and errors for
// every stream and every config (TestDeltaTickMatches*, TestQuiescent*,
// TestStableRoundsMatchRebuild* pin that against an agent whose every round
// rebuilds; oracle_test.go pins what both share against Algorithm 1).
//
//  (i) A rebuild (ingestChunk → planShard) keys every position of the stream
//     from nothing and establishes, per shard: the grouping — every observed
//     state stamped seq == fullSeq and listed in touched, in first-encounter
//     order; each group's member span — its sample indices, ascending, packed
//     into memberIdx with tail slack up to memberLimit; and the sample cache —
//     a.cache[i] is position i's key, shard and state, or invalid. Every
//     group is combined and planned, and every state starts on active. It
//     runs when there is no previous stream or grouping, when a stable
//     round's edits exceed their share (editShareDiv), and when relocated
//     spans have used up the slack.
//
//  (ii) A stable round (compareChunk → planShardQuiescent) edits exactly the
//     positions that differ from a.obsPrev: a position that kept its
//     destination and validity marks its group dirty; one that did not leaves
//     its cached group and/or joins its re-keyed one, keeping spans sorted
//     (a full span moves to the tail), and its cache entry is re-primed. A
//     group that empties leaves the grouping (seq = 0) with its credit settled
//     and its deadline queued; a new one joins with no back credit. A state
//     deleted while still grouped is reset in place (dropState), so spans
//     and cached pointers — validated by destState.dead alone, slab slots
//     are never recarved — stay exact. Dirty groups re-Combine from their
//     spans; clean ones reuse lastValue. Both paths hand each visited
//     destination to planDest, the one place its window is decided.
//
//  (iii) A state may leave active — drain — only under a.canDrain, once its
//     route is installed and freezeHorizon proves its window can no longer
//     move under lastValue (or park until the round it next will). What its
//     skipped visits would have done is credited lazily from the shard's
//     cleanRounds/refreshedAt: materializeLocked folds the TTL refreshes and
//     sample counts into the entry fields (watermark cleanSeen) before
//     Entries and snapshot exports read them; forwardEWMALocked replays the
//     smoothing advances bit for bit (watermark ewmaSeen) before any eager
//     smoothing; both run before the state is next planned, leaves the
//     grouping, or a rebuild or a disbanding regroups (settleCoveredLocked).
//     A member of the grouping that is installed, has a finite lastValue and
//     is not held is refreshed — eagerly or by credit — in every plan round,
//     so it cannot lapse before refreshedAt+TTL and carries no deadline item;
//     whatever ends that (leaving, a rejected Combine, a veto, a regroup that
//     misses it, a TTL with no plan round) queues one.
//
//  (iv) Hook configs (Guard, Advisor, caller-supplied History) never drain or
//     park: every group is planned every round, so the governor reviews, the
//     advisor is consulted and the history is updated exactly as on a
//     rebuild, and no credit is ever outstanding for them.

// A stable round may carry membership edits up to 1/editShareDiv of each
// worker's chunk (plus editFloor, so small streams qualify); past that the
// round is rebuilt — an edit costs a map operation and a span shift, a
// rebuild a few linear passes. memberSlack* size the tail room a rebuild
// leaves in memberIdx for relocated spans.
const (
	editShareDiv   = 8
	editFloor      = 4
	memberSlackDiv = 4
	memberSlackMin = 64
)

// chunkOf returns worker w's contiguous share [lo, hi) of an n-long stream.
// Chunks are contiguous and buckets worker-major, so replaying buckets in
// worker order visits observations in original sample order — the shard
// count can never change what a Combiner sees.
func (a *Agent) chunkOf(w, n int) (lo, hi int) {
	chunk := (n + a.ingestWorkers - 1) / a.ingestWorkers
	lo = min(w*chunk, n)
	return lo, min(lo+chunk, n)
}

// validKey returns o's route key, or false for an observation the round
// ignores.
func (a *Agent) validKey(o *Observation) (netip.Prefix, bool) {
	if o.Cwnd <= 0 || !o.Dst.IsValid() {
		return netip.Prefix{}, false
	}
	key, err := a.destKey(o.Dst)
	return key, err == nil
}

// ingestChunk is the rebuild's first pass over worker w's chunk: every
// observation is validated and keyed, shown to the governor, recorded in the
// sample cache and routed to the worker's per-shard buckets.
func (a *Agent) ingestChunk(w int, obs []Observation) {
	nShards := len(a.shards)
	lo, hi := a.chunkOf(w, len(obs))
	for i := lo; i < hi; i++ {
		key, ok := a.validKey(&obs[i])
		if !ok {
			a.cache[i] = cachedSample{invalid: true}
			continue
		}
		if a.cfg.Guard != nil {
			a.cfg.Guard.ObserveSample(key, obs[i])
		}
		s := a.shardIndex(key)
		// The state pointer is filled in by planShard once the shard resolves
		// (or creates) the state.
		a.cache[i] = cachedSample{key: key, shard: int32(s)}
		a.buckets[w*nShards+s] = append(a.buckets[w*nShards+s], keyedObs{key: key, idx: int32(i)})
	}
}

// planShard rebuilds one shard's grouping from the routed observations, under
// the shard lock, and plans every group: see invariant (i).
func (a *Agent) planShard(si int, obs []Observation, now time.Duration) {
	sh := a.shards[si]
	nShards := len(a.shards)
	sh.plan = sh.plan[:0]
	sh.guardClears = sh.guardClears[:0]
	sh.expired = sh.expired[:0]

	sh.mu.Lock()
	defer sh.mu.Unlock()

	// A rebuild ending a stable run settles the covered entries before it
	// regroups. The new grouping is built in the active list's array (which
	// is rebuilt from it below), so the old one can be walked afterwards.
	old := sh.touched
	if sh.creditPending {
		a.settleCoveredLocked(sh)
	}
	sh.refreshedAt = now
	sh.touched = sh.active[:0]

	// Pass 1: resolve states (one map operation per observation) and count
	// groups. Bucket replay visits observations in original sample order, so
	// first-encounter order (sh.touched) is deterministic for every shard and
	// worker count.
	seq := a.tickSeq
	for w := 0; w < a.ingestWorkers; w++ {
		bucket := a.buckets[w*nShards+si]
		for j := range bucket {
			ko := &bucket[j]
			st := sh.states[ko.key]
			if st == nil {
				st = sh.newDestState()
				sh.states[ko.key] = st
			}
			a.cache[ko.idx].st = st
			ko.st = st
			if st.seq != seq {
				st.seq = seq
				st.prevN = 0
				sh.touched = append(sh.touched, plannedDest{key: ko.key, st: st})
			}
			st.prevN++
		}
	}
	sh.queueDeparted(old, seq)
	sh.active = old

	// Pass 2: carve a span per group, packed in first-encounter order, and
	// fill the spans in sample order (prevN counts the fill back up).
	moff := int32(0)
	for _, td := range sh.touched {
		st := td.st
		st.memberOff, st.memberCap = moff, st.prevN
		moff += st.prevN
		st.prevN = 0
	}
	sh.memberLimit = int(moff) + int(moff)/memberSlackDiv + memberSlackMin
	if sh.memberLimit > cap(sh.memberIdx) {
		sh.memberIdx = make([]int32, moff, sh.memberLimit)
	}
	sh.memberIdx = sh.memberIdx[:moff]
	for w := 0; w < a.ingestWorkers; w++ {
		for _, ko := range a.buckets[w*nShards+si] {
			st := ko.st
			sh.memberIdx[st.memberOff+st.prevN] = ko.idx
			st.prevN++
		}
	}
	sh.fullSeq = seq

	// Pass 3: every group is new to this grouping — combine and plan it.
	for _, td := range sh.touched {
		st := td.st
		st.inActive = true
		st.cleanSeen, st.ewmaSeen = sh.cleanRounds, sh.cleanRounds
		a.recombineLocked(sh, td, obs, now)
	}
	sh.active = append(sh.active[:0], sh.touched...)

	a.expireDueLocked(sh, now)
}

// settleCoveredLocked folds the outstanding clean-round credit — entry fields
// and skipped smoothing advances — into every covered entry. Afterwards
// nothing is credited until the next stable round.
func (a *Agent) settleCoveredLocked(sh *shard) {
	for _, td := range sh.touched {
		a.materializeLocked(sh, td.st)
		a.forwardEWMALocked(sh, td.st)
	}
	sh.creditPending = false
}

// queueDeparted takes every state of the grouping old that the grouping
// stamped seq no longer holds off the books: its active-list mark is cleared
// and, if it has a route, its deadline queued — membership kept it out of
// the queue (invariant iii).
func (sh *shard) queueDeparted(old []plannedDest, seq uint64) {
	for _, td := range old {
		if st := td.st; st.seq != seq {
			st.inActive = false
			if st.installed {
				sh.noteExpiry(td.key, st)
			}
		}
	}
}

// expireDueLocked pops the deadlines that have come due, under the shard
// lock: a lapsed route queues a withdrawal in sh.expired and stays queued
// until the clear lands (a failed one retries next round); a state refreshed
// since it was queued is re-queued at its current deadline; a covered member
// of the grouping (invariant iii) needs no item and is let go. Only when no
// plan round has run for a whole TTL (sampler down) can covered members
// lapse; the grouping is then disbanded, every member queued, and the next
// round rebuilds.
func (a *Agent) expireDueLocked(sh *shard, now time.Duration) {
	if sh.fullSeq != 0 && sh.refreshedAt+a.cfg.TTL <= now {
		a.settleCoveredLocked(sh)
		sh.queueDeparted(sh.touched, 0)
		sh.fullSeq = 0
	}
	for it, ok := sh.popDue(now); ok; it, ok = sh.popDue(now) {
		st := it.st
		if st.dead || st.due != it.due {
			continue
		}
		st.due = 0
		switch {
		case !st.installed:
		case st.hasLast && !st.held && sh.grouped(st):
		case st.expires > now:
			sh.noteExpiry(it.key, st)
		default:
			sh.expired = append(sh.expired, it.key)
		}
	}
	// A lapsed route stays queued until its clear lands — re-queued only now,
	// or it would pop again at once.
	for _, key := range sh.expired {
		sh.noteExpiry(key, sh.states[key])
	}
	if h := sh.deadlines; cap(h) > 1024 && len(h) < cap(h)/4 {
		// A burst has drained (a whole table installed in one round comes
		// due in one round): give the memory back.
		sh.deadlines = append(make([]expiryItem, 0, 2*len(h)), h...)
	}
}

// materializeLocked folds outstanding stable-round credit into one entry:
// the TTL refreshes and per-round sample counts the skipped visits would
// have applied. Covered states are the installed members of the retained
// grouping; anything else — merged entries, groups that emptied — takes no
// credit. Called under the state's shard lock.
func (a *Agent) materializeLocked(sh *shard, st *destState) {
	if st.cleanSeen == sh.cleanRounds || st.seq != sh.fullSeq || !st.installed {
		st.cleanSeen = sh.cleanRounds
		return
	}
	st.samples += uint64(st.lastObs) * (sh.cleanRounds - st.cleanSeen)
	st.expires = sh.refreshedAt + a.cfg.TTL
	st.updated = sh.refreshedAt
	st.cleanSeen = sh.cleanRounds
}

// compareChunk is the stable-round detector: worker w compares its chunk of
// the sample against last round's and routes what changed to the per-shard
// buckets — an observation that kept its destination and validity as dirty,
// a membership edit as a leave from the cached group and/or a join to the
// re-keyed one (whose cache entry it re-primes; the joined shard fills in
// the state). The last worker also retires the positions a shorter stream
// lost. It reports false — rebuild the round — once the chunk's edits exceed
// their share.
func (a *Agent) compareChunk(w int, obs []Observation) bool {
	nShards := len(a.shards)
	lo, hi := a.chunkOf(w, len(obs))
	prev, cache := a.obsPrev, a.cache
	budget := (hi-lo)/editShareDiv + editFloor
	route := func(s int32, ko keyedObs) {
		b := &a.buckets[w*nShards+int(s)]
		*b = append(*b, ko)
	}
	for i := lo; i < hi; i++ {
		o, c := &obs[i], &cache[i]
		if i < len(prev) {
			if *o == prev[i] {
				continue
			}
			if !c.invalid {
				if o.Dst == prev[i].Dst && o.Cwnd > 0 {
					route(c.shard, keyedObs{key: c.key, st: c.st, idx: int32(i)})
					continue
				}
				route(c.shard, keyedObs{key: c.key, st: c.st, idx: int32(i), kind: obsLeave})
			}
		}
		if budget--; budget < 0 {
			return false
		}
		key, ok := a.validKey(o)
		if !ok {
			*c = cachedSample{invalid: true}
			continue
		}
		*c = cachedSample{key: key, shard: int32(a.shardIndex(key))}
		route(c.shard, keyedObs{key: key, idx: int32(i), kind: obsJoin})
	}
	if w == a.ingestWorkers-1 {
		for i := len(obs); i < len(prev); i++ {
			if budget--; budget < 0 {
				return false
			}
			if c := &cache[i]; !c.invalid {
				route(c.shard, keyedObs{key: c.key, st: c.st, idx: int32(i), kind: obsLeave})
			}
		}
	}
	return true
}

// observeChunk shows the governor worker w's chunk of a stable round: every
// valid position under its cached key, which compareChunk has just brought up
// to date.
func (a *Agent) observeChunk(w int, obs []Observation) {
	lo, hi := a.chunkOf(w, len(obs))
	for i := lo; i < hi; i++ {
		if c := &a.cache[i]; !c.invalid {
			a.cfg.Guard.ObserveSample(c.key, obs[i])
		}
	}
}

// leaveGroupLocked takes sample index idx out of st's member span. A group
// that empties leaves the covered set: its credit is settled through the
// previous round and its deadline queued, exactly where a rebuild — which
// stops visiting it — leaves it.
func (a *Agent) leaveGroupLocked(sh *shard, key netip.Prefix, st *destState, idx int32) {
	span := sh.memberIdx[st.memberOff : st.memberOff+st.prevN]
	j, _ := slices.BinarySearch(span, idx)
	copy(span[j:], span[j+1:])
	if st.prevN--; st.prevN > 0 {
		return
	}
	a.materializeLocked(sh, st)
	a.forwardEWMALocked(sh, st)
	st.seq = 0
	if st.installed {
		sh.noteExpiry(key, st)
	}
}

// joinGroupLocked resolves (or creates) key's state, backfills the sample
// cache, and inserts sample index idx into the group's member span in sample
// order. A group new to the grouping joins the covered set with no credit for
// the rounds it sat out; a span without room moves to the tail of memberIdx.
func (a *Agent) joinGroupLocked(sh *shard, key netip.Prefix, idx int32) *destState {
	st := sh.states[key]
	if st == nil {
		st = sh.newDestState()
		sh.states[key] = st
	}
	a.cache[idx].st = st
	if !sh.grouped(st) {
		st.seq = sh.fullSeq
		st.prevN, st.memberOff, st.memberCap = 0, 0, 0
		st.cleanSeen, st.ewmaSeen = sh.cleanRounds, sh.cleanRounds
		sh.touched = append(sh.touched, plannedDest{key: key, st: st})
	}
	if st.prevN == st.memberCap {
		off := int32(len(sh.memberIdx))
		st.memberCap = 2*st.prevN + 1
		sh.memberIdx = append(sh.memberIdx, sh.memberIdx[st.memberOff:st.memberOff+st.prevN]...)
		sh.memberIdx = append(sh.memberIdx, make([]int32, st.memberCap-st.prevN)...)
		st.memberOff = off
	}
	st.prevN++
	span := sh.memberIdx[st.memberOff : st.memberOff+st.prevN]
	j, _ := slices.BinarySearch(span[:st.prevN-1], idx)
	copy(span[j+1:], span[j:])
	span[j] = idx
	return st
}

// planDest decides one observed destination's window for the round from its
// group's combined value — smooth, advise, clamp, review — then refreshes the
// installed entry and plans a route op if the window moved (or the install is
// still pending). Both plan paths call it for every group they visit. It
// reports whether the round was a steady refresh: the route installed and its
// programmed window unchanged.
func (a *Agent) planDest(sh *shard, key netip.Prefix, st *destState, value float64, now time.Duration) (steady bool) {
	n := int(st.prevN)
	smoothed := a.smooth(sh, st, key, value)
	if a.cfg.Advisor != nil {
		if m := a.cfg.Advisor.Advise(key); isFinite(m) {
			smoothed *= m
		} else {
			sh.delta.advisorRejects++
		}
	}
	final := a.clamp(smoothed)

	if a.cfg.Guard != nil {
		capped, action := a.cfg.Guard.Review(key, final)
		switch action {
		case GuardVeto, GuardQuarantine:
			sh.delta.guardVetoed++
			if action == GuardQuarantine {
				sh.delta.guardQuarantined++
			}
			// An installed route for a held-back destination is withdrawn
			// (outside the locks, in the program stage). The entry is only
			// dropped once the clear succeeds, so a failed withdrawal retries
			// next round; meanwhile its TTL runs.
			if st.installed {
				sh.guardClears = append(sh.guardClears, key)
				st.held = true
				sh.noteExpiry(key, st)
			}
			return false
		case GuardCap:
			if capped = max(capped, a.cfg.CMin); capped < final {
				final = capped
				sh.delta.guardCapped++
			}
		}
	}

	if !st.installed {
		// New destination, or its first program keeps failing: replan every
		// round. The entry is recorded in the program stage, only once the
		// route is actually installed.
		sh.plan = append(sh.plan, programOp{dst: key, window: final, obs: n, st: st, shard: sh.idx})
		return false
	}
	// The route is installed; fresh observations extend its life even if
	// programming the new value fails later, and confirm (from now on, own)
	// an entry that was seeded from a fleet snapshot. No deadline is queued:
	// st is covered (invariant iii).
	st.expires = now + a.cfg.TTL
	st.updated = now
	st.lastObs = n
	st.samples += uint64(n)
	st.merged = false
	st.mergedAge = 0
	st.held = false
	if st.window != final {
		sh.plan = append(sh.plan, programOp{dst: key, window: final, obs: n, st: st, shard: sh.idx})
		return false
	}
	return true
}

// recombineLocked gathers a group's member observations from its span,
// re-runs Combine, and plans the destination. A non-finite value (a custom
// Combiner gone wrong) skips the round for this destination rather than
// folding garbage into history — an EWMA never recovers from a NaN: no
// refresh (so its deadline is queued), hasLast cleared so every later round
// combines again, the reject counted.
func (a *Agent) recombineLocked(sh *shard, td plannedDest, obs []Observation, now time.Duration) {
	st := td.st
	st.wakeAt = 0 // the combined value may move: horizon void
	if cap(sh.gather) < int(st.prevN) {
		sh.gather = make([]Observation, 0, 2*st.prevN)
	}
	g := sh.gather[:0]
	for _, idx := range sh.memberIdx[st.memberOff : st.memberOff+st.prevN] {
		g = append(g, obs[idx])
	}
	value := a.cfg.Combiner.Combine(g)
	if !isFinite(value) {
		st.hasLast = false
		sh.delta.combinerRejects++
		if st.installed {
			sh.noteExpiry(td.key, st)
		}
		return
	}
	st.lastValue = value
	st.hasLast = true
	a.planDest(sh, td.key, st, value, now)
}

// maxFreezeSim bounds freezeHorizon's trajectory walk. A float64 EWMA under
// a fixed input is monotone toward that input and therefore reaches a
// bitwise fixed point in finitely many steps — around 130 for realistic
// window magnitudes. The bound only matters for absurd combiner outputs.
const maxFreezeSim = 8192

// freezeHorizon simulates a state's future smoothing trajectory under its
// current combined value, using bit-for-bit the float expression smooth
// evaluates each round, and returns the number of rounds until the clamped
// window next changes: 0 means it never will — the window is frozen and the
// state may drain from the active list, every later visit being a pure
// TTL/sample refresh that the shard-level lazy credit replays. A positive
// horizon parks the state until exactly that round. The walk is short: the
// trajectory approaches the combined value from one side without crossing
// it (round-to-nearest cannot push the convex combination past v), and
// clamp is monotone, so once the current window equals clamp(v) no flip can
// ever come; otherwise a flip is at most a few steps out. A walk that
// somehow exhausts maxFreezeSim without a flip or fixed point answers 1 —
// the state is revisited every round, slower but never wrong.
func (a *Agent) freezeHorizon(st *destState) int32 {
	e, v, w := st.ewma, st.lastValue, st.window
	if w == a.clamp(v) {
		return 0
	}
	for k := int32(1); k <= maxFreezeSim; k++ {
		e2 := a.cfg.Alpha*e + (1-a.cfg.Alpha)*v
		if e2 == e {
			return 0
		}
		if a.clamp(e2) != w {
			return k
		}
		e = e2
	}
	return 1
}

// forwardEWMALocked replays the smoothing advances a drained state skipped:
// each of those rounds planDest would have folded the unchanged combined
// value into the EWMA with the exact expression smooth uses, so iterating it
// here is bitwise identical. The walk stops early at the fixed point.
func (a *Agent) forwardEWMALocked(sh *shard, st *destState) {
	k := sh.cleanRounds - st.ewmaSeen
	st.ewmaSeen = sh.cleanRounds
	if k == 0 || st.seq != sh.fullSeq || !st.installed || !st.hasEwma || !st.hasLast {
		return
	}
	v := st.lastValue
	for ; k > 0; k-- {
		e := a.cfg.Alpha*st.ewma + (1-a.cfg.Alpha)*v
		if e == st.ewma {
			return
		}
		st.ewma = e
	}
}

// planShardQuiescent plans one shard's stable round, under the shard lock:
// the retained grouping is exact once this round's edits are applied, so only
// the states on the active list and the edited and dirty groups are visited
// (invariants ii–iv).
func (a *Agent) planShardQuiescent(si int, obs []Observation, now time.Duration) {
	sh := a.shards[si]
	nShards := len(a.shards)
	sh.plan = sh.plan[:0]
	sh.guardClears = sh.guardClears[:0]
	sh.expired = sh.expired[:0]

	sh.mu.Lock()
	defer sh.mu.Unlock()

	seq := a.tickSeq

	// Apply this round's edits and collect its dirty groups from the compare
	// buckets, deduped by group, settling their outstanding lazy credit
	// before this round's counter bump — the current round is handled eagerly
	// below, so it must not also be credited. Bucket replay order is original
	// sample order, but no order dependence remains here: spans are kept
	// sorted, and the commit stage sorts the merged plan.
	sh.dirtyList = sh.dirtyList[:0]
	for w := 0; w < a.ingestWorkers; w++ {
		for _, ko := range a.buckets[w*nShards+si] {
			st := ko.st
			switch ko.kind {
			case obsLeave:
				a.leaveGroupLocked(sh, ko.key, st, ko.idx)
			case obsJoin:
				st = a.joinGroupLocked(sh, ko.key, ko.idx)
			}
			if st.dirtySeq != seq && sh.grouped(st) {
				st.dirtySeq = seq
				a.materializeLocked(sh, st)
				a.forwardEWMALocked(sh, st)
				sh.dirtyList = append(sh.dirtyList, plannedDest{key: ko.key, st: st})
			}
		}
	}

	sh.cleanRounds++
	sh.refreshedAt = now
	sh.creditPending = true

	// Visit the active clean states with their recorded Combine value. Groups
	// dirtied this round are kept on the list but handled below with a fresh
	// one. A state parked until a future flip round is skipped without a
	// single write: every skipped round is a pure refresh, replayed by the
	// lazy credit when it wakes (or is redirtied, edited out, or read). A
	// state whose group emptied is off the list for good.
	kept := sh.active[:0]
	for _, td := range sh.active {
		st := td.st
		if !sh.grouped(st) {
			st.inActive = false
			continue
		}
		if st.dirtySeq == seq || st.wakeAt > sh.cleanRounds {
			kept = append(kept, td)
			continue
		}
		// Settle any parked span first: credit and smoothing replay cover
		// the rounds through the previous one, the current round is then
		// handled eagerly. The transient counter decrement scopes both
		// helpers to that boundary; states visited last round have nothing
		// to settle and skip the calls.
		if st.cleanSeen != sh.cleanRounds-1 || st.ewmaSeen != sh.cleanRounds-1 {
			sh.cleanRounds--
			a.materializeLocked(sh, st)
			a.forwardEWMALocked(sh, st)
			sh.cleanRounds++
		}
		st.cleanSeen, st.ewmaSeen = sh.cleanRounds, sh.cleanRounds
		if !st.hasLast {
			// The last Combine was rejected (NaN/±Inf); a rebuild would
			// combine — and reject — such a group again every round.
			a.recombineLocked(sh, td, obs, now)
			kept = append(kept, td)
			continue
		}
		st.wakeAt = 0
		if a.planDest(sh, td.key, st, st.lastValue, now) && a.canDrain {
			k := a.freezeHorizon(st)
			if k == 0 {
				// Window frozen: drain from the active list entirely.
				st.inActive = false
				continue
			}
			st.wakeAt = sh.cleanRounds + uint64(k)
		}
		kept = append(kept, td)
	}
	sh.active = kept

	// Dirty groups: re-Combine from their member sample-indices. A converged
	// state going dirty rejoins the active list. (A group dirtied and then
	// emptied by a later edit is no longer in the grouping.)
	for _, td := range sh.dirtyList {
		st := td.st
		if !sh.grouped(st) {
			continue
		}
		st.cleanSeen, st.ewmaSeen = sh.cleanRounds, sh.cleanRounds
		a.recombineLocked(sh, td, obs, now)
		if !st.inActive {
			st.inActive = true
			sh.active = append(sh.active, td)
		}
	}

	a.expireDueLocked(sh, now)
}
