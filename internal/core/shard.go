package core

import (
	"net/netip"
	"runtime"
	"slices"
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
// policy), and the plan stage's per-tick grouping scratch. Smoothing state
// outlives the installed route on purpose — a destination whose program
// keeps failing still accumulates history, exactly as the previous separate
// history map did.
type destState struct {
	entry

	// Inline smoothing state for the default per-shard EWMA path (valid
	// while hasEwma).
	ewma float64

	// Plan-stage scratch (tickMu only): the tick sequence this state was
	// last touched in, and its group's span in the shard arena.
	seq  uint64
	span groupSpan

	// Delta-tick bookkeeping (tickMu only): the group size of the last
	// planned round and (while hasLast) the Combine value it produced. A
	// group whose every observation is position-stable since last round and
	// whose size matches prevN is provably identical to last round's, so its
	// Combine call (and arena copy) is skipped and lastValue reused.
	prevN     int32
	lastValue float64

	// Quiescent fast-path bookkeeping (tickMu only; see planShardQuiescent).
	// memberOff/memberCap locate the group's member sample-indices in
	// sh.memberIdx (prevN of the memberCap slots are in use while seq ==
	// sh.fullSeq); dirtySeq dedups the group in a stable round's dirty
	// list; inActive tracks membership in sh.active; cleanSeen
	// is the sh.cleanRounds value up to which lazy TTL/sample credit has
	// been folded into the entry fields; ewmaSeen is the same watermark for
	// the smoothing state (advanced only by eager processing, replayed by
	// forwardEWMALocked); wakeAt is the sh.cleanRounds value at which the
	// state's next window flip is due (freezeHorizon's verdict) — until
	// then the clean loop skips it entirely, and 0 means the horizon is
	// unknown and must be recomputed on the next visit.
	memberOff int32
	memberCap int32
	dirtySeq  uint64
	cleanSeen uint64
	ewmaSeen  uint64
	wakeAt    uint64

	// due is the deadline of the state's live item in sh.deadlines, 0 when
	// none is queued (shard mu; see noteExpiry).
	due time.Duration

	// Incremental-digest cache (shard mu): the FNV-1a state after hashing
	// the destination's canonical CIDR text (computed once per slot, while
	// digSeeded — slab slots are never recarved for a different prefix, so
	// the seed stays valid for the struct's lifetime) and the content hash
	// currently folded into the agent's digest accumulator (meaningful while
	// installed; see internal/core/digest.go).
	digSeed uint64
	digHash uint64

	// The flags sit together so they pack into one word.
	//
	// installed marks that a route is programmed and the embedded entry
	// fields are live; Lookup/Entries/snapshots ignore the state otherwise.
	installed bool
	// absorbed marks a child whose specific route was withdrawn in favour
	// of an installed covering aggregate; the entry fields keep learning so
	// a diverging window can split its specific route back out.
	absorbed bool
	// dead marks a state deleted from its shard (shard mu). Slab slots are
	// never recarved, so a pointer held by the sample cache or the deadline
	// queue stays readable and is validated against this mark alone.
	dead      bool
	hasEwma   bool
	hasLast   bool
	inActive  bool
	digSeeded bool
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
	// live item per state: every installed or absorbed state has one unless
	// it is a refreshed member of the retained grouping (expireDueLocked), so
	// an expiry round costs O(due), not O(entries).
	deadlines []expiryItem

	// Aggregation state (Config.AggregateBits): covering prefix →
	// membership; dirtyAggs queues parents whose membership or windows
	// changed for the next aggregate pass. Guarded by mu like states.
	aggs      map[netip.Prefix]*aggState
	dirtyAggs []netip.Prefix

	// slab backs destState allocation in insertion-order blocks, so the
	// plan stage's pointer chasing walks mostly-sequential memory. Blocks
	// are never reallocated, keeping state pointers stable; slots of
	// deleted states are reclaimed only when their whole block is.
	slab    []destState
	slabOff int

	// Plan-stage scratch, reused across ticks (tickMu only).
	touched     []plannedDest
	arena       []Observation
	plan        []programOp
	guardClears []netip.Prefix
	expired     []netip.Prefix
	absorbs     []netip.Prefix
	dissolves   []netip.Prefix
	delta       tickDelta

	// Quiescent fast-path state (a.quiescentOK configs only). memberIdx holds
	// every touched group's member sample-indices in sample order, packed by
	// the last full rebuild; stable rounds edit the spans in place and
	// relocate a full one to the tail, and a tail past memberLimit makes the
	// next round a (compacting) full rebuild. touched lists the grouping's
	// states (plus, after edits, some that left). active lists those that
	// still need per-round plan work — smoothing not yet at its fixed point,
	// or install pending — and drains as states converge. cleanRounds counts
	// stable rounds applied shard-wide since the agent started; refreshedAt
	// is the time of the latest plan round of either kind; fullSeq is the
	// tick sequence of the last full rebuild, which every state in the
	// grouping carries in seq (0: no grouping). dirtyList and gather are
	// per-round scratch. All tickMu-only except where materializeLocked runs
	// under mu from readers.
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

// cachedSample is the delta-tick sample cache entry for one observation
// index: the route key and shard resolved last round and the resolved state
// pointer, trusted until the state is marked dead. invalid marks an
// observation the validation pass rejected, so its twin next round is
// rejected without re-keying.
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

// groupSpan locates one destination's observations inside the shard's arena.
// off == cleanSpan marks a group proven identical to last round's: it is
// never laid out in the arena and its Combine value is reused.
type groupSpan struct {
	off, n, fill int32
	// mfill counts member indices recorded into sh.memberIdx during the
	// rebuild's fill pass (quiescent-eligible configs only).
	mfill int32
	// dirty is set when any member observation was not position-stable
	// since last round; only a fully stable group of unchanged size may
	// skip the arena.
	dirty bool
}

// cleanSpan is the groupSpan.off sentinel for skipped (clean) groups.
const cleanSpan = int32(-1)

// keyedObs is one valid observation routed to a shard: the destination's
// route key plus the observation's index in the tick's sample slice. The
// plan stage resolves st once per observation (the hot path's only map
// lookup) and reuses the pointer for the arena fill pass.
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
	// expiredDropped counts absorbed (route-less) states dropped by the
	// expiry sweep; they fold into EntriesExpired without a clear op.
	expiredDropped uint64
}

func (d *tickDelta) add(o tickDelta) {
	d.combinerRejects += o.combinerRejects
	d.advisorRejects += o.advisorRejects
	d.guardCapped += o.guardCapped
	d.guardVetoed += o.guardVetoed
	d.guardQuarantined += o.guardQuarantined
	d.expiredDropped += o.expiredDropped
}

// shardIndex maps a route key to its stripe: FNV-1a over the canonical
// 16-byte address plus the mask length. With aggregation enabled the hash
// runs over the covering aggregate key instead, so a parent and all its
// children land on one shard and the aggregate pass never crosses stripes
// (at the cost of coarser load spreading).
func (a *Agent) shardIndex(p netip.Prefix) int {
	if len(a.shards) == 1 {
		return 0
	}
	if parent, ok := a.aggKey(p); ok {
		p = parent
	}
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
	return int(h % uint64(len(a.shards)))
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
// policy; the inline EWMA state dies with its destState map slot, which
// every caller deletes alongside this call.
func (a *Agent) forgetHistory(sh *shard, key netip.Prefix) {
	if sh.history != nil {
		sh.history.Forget(key)
	}
}

// dropInstalled removes dst's state (and any external history) after its
// route was withdrawn, under the shard lock. It reports whether a live
// entry existed. A successful drop bumps the table version: the entry
// vanishes from exports, so peers comparing digests see the change even
// though no entry carries the new version (fleet sharing has no tombstones —
// receivers age the entry out via its TTL).
func (sh *shard) dropInstalled(a *Agent, dst netip.Prefix) bool {
	st, ok := sh.states[dst]
	if !ok || !st.installed {
		return false
	}
	sh.installed--
	a.digestUnfold(st)
	a.dropState(sh, dst)
	a.bumpVersion()
	return true
}

// dropState deletes a destination's state under the shard lock, marking the
// struct dead — which is all that invalidates cached pointers to it — and
// updating aggregate membership. Callers maintain sh.installed themselves.
//
// A state that still has members in the retained grouping is observed right
// now: a full rescan would re-create it from nothing next round. It is reset
// in place instead (an uninstalled state is invisible to every reader), so
// its span, the sample cache and the other groups stay exact; it rejoins the
// active list, where hasLast == false forces a fresh Combine.
func (a *Agent) dropState(sh *shard, dst netip.Prefix) {
	st, ok := sh.states[dst]
	if !ok {
		return
	}
	if sh.grouped(st) {
		*st = destState{
			seq: st.seq, prevN: st.prevN, memberOff: st.memberOff, memberCap: st.memberCap,
			dirtySeq: st.dirtySeq, inActive: st.inActive, cleanSeen: sh.cleanRounds, ewmaSeen: sh.cleanRounds,
			digSeed: st.digSeed, digSeeded: st.digSeeded,
		}
		if !st.inActive {
			st.inActive = true
			sh.active = append(sh.active, plannedDest{key: dst, st: st})
		}
		return
	}
	st.installed = false
	st.absorbed = false
	st.dead = true
	delete(sh.states, dst)
	a.forgetHistory(sh, dst)
	a.aggUnregister(sh, dst)
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

// runParallel runs fn(0..n-1), inline when n == 1.
func runParallel(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// ingestChunk validates and routes worker w's contiguous chunk of the
// sample slice: invalid observations are dropped, the rest get their route
// key, are shown to the governor, and land in the worker's per-shard
// buckets. Chunks are contiguous and buckets worker-major, so replaying
// buckets in worker order during the plan stage reconstructs the original
// sample order exactly — the shard count can never change what a Combiner
// sees.
//
// In delta mode an observation byte-identical at the same index as last
// round reuses its cached key/shard/state (unless the state has since been
// marked dead); everything else takes the full validation path and re-primes
// the cache. The governor sees every valid observation either way.
func (a *Agent) ingestChunk(w int, obs []Observation) {
	nShards := len(a.shards)
	chunk := (len(obs) + a.ingestWorkers - 1) / a.ingestWorkers
	lo := w * chunk
	hi := lo + chunk
	if hi > len(obs) {
		hi = len(obs)
	}
	prev, prevCache, cache := a.obsPrev, a.cachePrev, a.cacheCur
	stable := a.delta && a.havePrev
	for i := lo; i < hi; i++ {
		o := &obs[i]
		if stable && i < len(prev) && *o == prev[i] {
			c := prevCache[i]
			switch {
			case c.invalid:
				cache[i] = c
				continue
			case c.st != nil && !c.st.dead:
				cache[i] = c
				if a.cfg.Guard != nil {
					a.cfg.Guard.ObserveSample(c.key, *o)
				}
				b := &a.buckets[w*nShards+int(c.shard)]
				*b = append(*b, keyedObs{key: c.key, st: c.st, idx: int32(i)})
				continue
			}
		}
		if o.Cwnd <= 0 || !o.Dst.IsValid() {
			if a.delta {
				cache[i] = cachedSample{invalid: true}
			}
			continue
		}
		key, err := a.destKey(o.Dst)
		if err != nil {
			if a.delta {
				cache[i] = cachedSample{invalid: true}
			}
			continue
		}
		if a.cfg.Guard != nil {
			a.cfg.Guard.ObserveSample(key, *o)
		}
		s := a.shardIndex(key)
		if a.delta {
			// The state pointer and generation are filled in by the plan
			// stage once the shard resolves (or creates) the state.
			cache[i] = cachedSample{key: key, shard: int32(s)}
		}
		a.buckets[w*nShards+s] = append(a.buckets[w*nShards+s], keyedObs{key: key, idx: int32(i)})
	}
}

// planShard runs the plan stage for one shard, under the shard lock: resolve
// each routed observation to its destState (one map operation per dirty
// observation — cached pointers cover the rest), lay the dirty groups out
// contiguously in the arena preserving sample order, then combine, smooth,
// clamp, let the governor review, refresh live entries, run the aggregate
// pass, and emit the shard's route plan, clears, and expiry candidates into
// its scratch slices.
//
// Delta mode prunes the work two ways, always producing byte-identical
// output to a full rescan (enforced by TestDeltaTickMatchesFullRescan):
//
//   - an observation position-stable since last round arrives with its
//     cached state pointer, skipping the map lookup (ingestChunk);
//   - a group whose every member is stable and whose size is unchanged is
//     provably identical to last round's, so the arena copy and Combine are
//     skipped and the recorded Combine value reused — smoothing, clamping,
//     review, and TTL refresh still run every round.
func (a *Agent) planShard(si int, obs []Observation, now time.Duration) {
	sh := a.shards[si]
	nShards := len(a.shards)
	sh.plan = sh.plan[:0]
	sh.guardClears = sh.guardClears[:0]
	sh.expired = sh.expired[:0]
	sh.absorbs = sh.absorbs[:0]
	sh.dissolves = sh.dissolves[:0]

	sh.mu.Lock()
	defer sh.mu.Unlock()

	// A full round ending a stable run settles the covered entries before
	// pass 3 starts mutating them eagerly, and before pass 1 regroups. The
	// new grouping is built in the active list's array (which is rebuilt
	// from it below), so the old one can be walked afterwards.
	old := sh.touched
	if a.quiescentOK {
		if sh.creditPending {
			a.settleCoveredLocked(sh)
		}
		sh.refreshedAt = now
		sh.touched = sh.active
	}
	sh.touched = sh.touched[:0]

	// Pass 1: resolve states and count groups. Replaying the worker-major
	// buckets in worker order visits observations in original sample order,
	// so first-encounter order (sh.touched) is deterministic for every shard
	// and worker count. Observations that arrived without a cached state
	// resolve through the map and mark their group dirty; newly resolved
	// pointers are written back to the sample cache for the next round.
	seq := a.tickSeq
	cache := a.cacheCur
	for w := 0; w < a.ingestWorkers; w++ {
		bucket := a.buckets[w*nShards+si]
		for j := range bucket {
			ko := &bucket[j]
			st := ko.st
			fresh := st == nil
			if fresh {
				st = sh.states[ko.key]
				if st == nil {
					st = sh.newDestState()
					sh.states[ko.key] = st
					a.aggRegister(sh, ko.key, st)
				}
				if a.delta {
					cache[ko.idx].st = st
				}
				ko.st = st
			}
			if st.seq != seq {
				st.seq = seq
				st.span = groupSpan{}
				sh.touched = append(sh.touched, plannedDest{key: ko.key, st: st})
			}
			st.span.n++
			if fresh {
				st.span.dirty = true
			}
		}
	}

	if a.quiescentOK {
		sh.queueDeparted(old, seq)
		sh.active = old
	}

	// Pass 2: clean groups (fully stable, unchanged size, with a recorded
	// Combine value) skip the arena; dirty groups get offsets and are filled
	// in sample order. Quiescent-eligible configs also record every group's
	// member sample-indices (memberIdx, packed, with tail slack for the
	// stable rounds' edits), so a later stable round can re-Combine or edit
	// a group without any regroup.
	off := int32(0)
	moff := int32(0)
	for _, td := range sh.touched {
		sp := &td.st.span
		if a.quiescentOK {
			td.st.memberOff, td.st.memberCap = moff, sp.n
			moff += sp.n
		}
		if !sp.dirty && td.st.hasLast && sp.n == td.st.prevN {
			sp.off = cleanSpan
			continue
		}
		sp.off = off
		off += sp.n
	}
	if int(off) > len(sh.arena) {
		sh.arena = make([]Observation, off)
	}
	if a.quiescentOK {
		sh.memberLimit = int(moff) + int(moff)/memberSlackDiv + memberSlackMin
		if sh.memberLimit > cap(sh.memberIdx) {
			sh.memberIdx = make([]int32, moff, sh.memberLimit)
		}
		sh.memberIdx = sh.memberIdx[:moff]
	}
	if off > 0 || moff > 0 {
		arena, members := sh.arena, sh.memberIdx
		for w := 0; w < a.ingestWorkers; w++ {
			for _, ko := range a.buckets[w*nShards+si] {
				sp := &ko.st.span
				if moff > 0 {
					members[ko.st.memberOff+sp.mfill] = ko.idx
					sp.mfill++
				}
				if sp.off == cleanSpan {
					continue
				}
				arena[sp.off+sp.fill] = obs[ko.idx]
				sp.fill++
			}
		}
	}
	if a.quiescentOK {
		sh.fullSeq = seq
	}

	// Pass 3: per destination — combine (or reuse), smooth, clamp, review,
	// refresh. This runs in full every round: smoothing must advance even
	// on unchanged observations, and TTLs must refresh.
	arena := sh.arena
	for _, td := range sh.touched {
		st := td.st
		sp := &st.span
		var value float64
		if sp.off == cleanSpan {
			value = st.lastValue
		} else {
			value = a.cfg.Combiner.Combine(arena[sp.off : sp.off+sp.n])
			st.prevN = sp.n
			if !isFinite(value) {
				// A custom Combiner produced NaN/±Inf: skip the round for
				// this destination rather than folding garbage into history
				// (an EWMA never recovers from a NaN).
				st.hasLast = false
				sh.delta.combinerRejects++
				if st.installed {
					sh.noteExpiry(td.key, st)
				}
				continue
			}
			st.lastValue = value
			st.hasLast = true
		}
		smoothed := a.smooth(sh, st, td.key, value)
		if a.cfg.Advisor != nil {
			if m := a.cfg.Advisor.Advise(td.key); isFinite(m) {
				smoothed *= m
			} else {
				sh.delta.advisorRejects++
			}
		}
		final := a.clamp(smoothed)

		if a.cfg.Guard != nil {
			capped, action := a.cfg.Guard.Review(td.key, final)
			switch action {
			case GuardVeto, GuardQuarantine:
				sh.delta.guardVetoed++
				if action == GuardQuarantine {
					sh.delta.guardQuarantined++
				}
				// An installed route for a held-back destination is
				// withdrawn (outside the locks, in the program stage).
				// The entry is only dropped once the clear succeeds, so
				// a failed withdrawal retries next round.
				if st.installed {
					sh.guardClears = append(sh.guardClears, td.key)
				} else if st.absorbed {
					// A veto cannot carve a hole in the covering route
					// that serves this child: drop the child's state and
					// force the aggregate apart so the hold-back takes
					// effect next round.
					a.dropState(sh, td.key)
					if parent, ok := a.aggKey(td.key); ok {
						if agg := sh.aggs[parent]; agg != nil {
							agg.force = true
							a.aggMarkDirty(sh, parent, agg)
						}
					}
				}
				continue
			case GuardCap:
				if capped < final {
					if capped < a.cfg.CMin {
						capped = a.cfg.CMin
					}
					if capped < final {
						final = capped
						sh.delta.guardCapped++
					}
				}
			}
		}

		n := int(sp.n)
		switch {
		case st.installed:
			// The route is installed; fresh observations extend its
			// life even if programming the new value fails later.
			st.expires = now + a.cfg.TTL
			st.updated = now
			st.lastObs = n
			st.samples += uint64(n)
			// A local observation confirms (and from now on owns) an
			// entry that was seeded from a fleet snapshot.
			st.merged = false
			st.mergedAge = 0
			if !a.quiescentOK {
				sh.noteExpiry(td.key, st)
			}
			if st.window != final {
				sh.plan = append(sh.plan, programOp{dst: td.key, window: final, obs: n, st: st, shard: sh.idx})
			}
		case st.absorbed:
			// Covered by an aggregate: keep learning in place, refresh the
			// child's TTL and the covering route's, and split the specific
			// route back out only when the learned window diverges from
			// the aggregate (it shadows the broader route via LPM).
			st.window = final
			st.expires = now + a.cfg.TTL
			st.updated = now
			st.lastObs = n
			st.samples += uint64(n)
			st.merged = false
			st.mergedAge = 0
			sh.noteExpiry(td.key, st)
			parent, _ := a.aggKey(td.key)
			agg := sh.aggs[parent]
			if agg == nil || !agg.installed || absInt(final-agg.window) > a.cfg.AggregateTolerance {
				sh.plan = append(sh.plan, programOp{dst: td.key, window: final, obs: n, split: true, st: st, shard: sh.idx})
			} else if pst := sh.states[parent]; pst != nil && pst.installed {
				pst.expires = now + a.cfg.TTL
				pst.updated = now
				sh.noteExpiry(parent, pst)
			}
		default:
			// New destination: the entry is recorded in the program
			// stage, only once the route is actually installed.
			sh.plan = append(sh.plan, programOp{dst: td.key, window: final, obs: n, st: st, shard: sh.idx})
		}
	}

	// Rebuild the quiescent active list: after a full round every touched
	// state starts active and drops off as it converges (planShardQuiescent).
	if a.quiescentOK {
		sh.active = append(sh.active[:0], sh.touched...)
		for _, td := range sh.touched {
			td.st.inActive = true
			td.st.cleanSeen = sh.cleanRounds
			td.st.ewmaSeen = sh.cleanRounds
			td.st.wakeAt = 0
		}
	}

	a.aggregatePass(sh, now)
	sh.delta.expiredDropped += a.expireDueLocked(sh, now)
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
// the queue (see expireDueLocked).
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
// lock: installed states queue a route withdrawal in sh.expired and stay
// queued until the clear lands (a failed one retries next round); absorbed
// states have no route to withdraw and are dropped directly (the returned
// count folds into EntriesExpired). A state refreshed since it was queued is
// re-queued at its current deadline.
//
// An installed member of the grouping with a finite Combine value is
// refreshed — eagerly or by credit — in every plan round of either kind, so
// it cannot lapse before refreshedAt+TTL and needs no item: one that pops is
// let go, and whatever ends the membership queues the state again (leaving,
// a rejected Combine, a regroup that misses it). Only when no plan round has
// run for a whole TTL (sampler down) can members lapse; the grouping is then
// disbanded, every member queued, and the next round rebuilds.
func (a *Agent) expireDueLocked(sh *shard, now time.Duration) (dropped uint64) {
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
		case !st.installed && !st.absorbed:
		case st.installed && st.hasLast && sh.grouped(st):
		case st.expires > now:
			sh.noteExpiry(it.key, st)
		case st.installed:
			sh.expired = append(sh.expired, it.key)
		default:
			a.dropState(sh, it.key)
			dropped++
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
	return dropped
}

// The quiescent fast path.
//
// A production sampler usually reports nearly the same connection table round
// after round: congestion metrics move, and a few sockets open, close or
// change peer. When the stream is *positionally stable* but for a small
// share of such edits, the ingest/regroup machinery is redundant: the only
// real work is moving the edited positions between groups, re-combining the
// groups that contain a changed observation, and advancing smoothing for
// states whose EWMA has not yet reached its fixed point.
//
// planShardQuiescent exploits that. It is used only for configurations
// where a skipped per-destination visit is provably unobservable
// (a.quiescentOK: no Governor, no Advisor, no shared History policy, no
// prefix aggregation) and produces byte-identical output to a full rescan:
//
//   - an edit (a position whose destination or validity changed, or that
//     the stream's tail gained or lost) takes its sample index out of the
//     old group's member span and inserts it, in sample order, into the new
//     one's; a group that empties leaves the covered set with its credit
//     settled and its deadline queued, one that appears joins it;
//   - dirty groups (any member changed or edited this round) re-Combine from
//     their member sample-indices;
//   - clean states still converging (or with an install pending) advance
//     through sh.active, and drop off it once smoothing reaches a bitwise
//     fixed point with the programmed window — after which every further
//     round is a no-op for them by definition;
//   - the per-round TTL refresh and sample credit of converged states is
//     applied lazily: sh.cleanRounds/refreshedAt record the rounds the
//     shard sat quiescent, and materializeLocked folds the credit into the
//     entry fields before anything reads them (Entries, snapshots, leaving
//     the covered set, or the next full rebuild).

// materializeLocked folds outstanding quiescent-round credit into one
// entry: the TTL refreshes and per-round sample counts the skipped visits
// would have applied. Covered states are the installed members of the
// retained grouping (seq == fullSeq); anything else — merged entries, groups
// that emptied — takes no credit. Called under the state's shard lock.
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

// compareChunk is the stable-round detector: worker w compares its chunk of
// the sample against last round's and routes what changed to the per-shard
// buckets — an observation that kept its destination and validity as dirty,
// a membership edit as a leave from the cached group and/or a join to the
// re-keyed one (whose cache entry it re-primes; the joined shard fills in
// the state). The last worker also retires the positions a shorter stream
// lost. It reports false — rebuild the round through the full ingest path —
// once the chunk's edits exceed their share.
func (a *Agent) compareChunk(w int, obs []Observation) bool {
	nShards := len(a.shards)
	chunk := (len(obs) + a.ingestWorkers - 1) / a.ingestWorkers
	lo := min(w*chunk, len(obs))
	hi := min(lo+chunk, len(obs))
	prev, cache := a.obsPrev, a.cachePrev
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
		*c = cachedSample{invalid: true}
		if o.Cwnd <= 0 || !o.Dst.IsValid() {
			continue
		}
		key, err := a.destKey(o.Dst)
		if err != nil {
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

// leaveGroupLocked takes sample index idx out of st's member span. A group
// that empties leaves the covered set: its credit is settled through the
// previous round and its deadline queued, exactly where a full rescan — which
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
	a.cachePrev[idx].st = st
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

// quiescentBody is pass 3 of the plan stage for one destination on the
// quiescent path — the same combine-result handling as planShard's loop,
// minus the branches the a.quiescentOK gate rules out (guard, advisor,
// aggregation). It reports whether the round was a steady refresh: the
// route installed and its programmed window unchanged.
func (a *Agent) quiescentBody(sh *shard, key netip.Prefix, st *destState, value float64, n int, now time.Duration) (steady bool) {
	smoothed := a.smooth(sh, st, key, value)
	final := a.clamp(smoothed)
	if !st.installed {
		// Install still pending (or the first program failed); replan every
		// round, exactly like the full path's new-destination branch.
		sh.plan = append(sh.plan, programOp{dst: key, window: final, obs: n, st: st, shard: sh.idx})
		return false
	}
	st.expires = now + a.cfg.TTL
	st.updated = now
	st.lastObs = n
	st.samples += uint64(n)
	st.merged = false
	st.mergedAge = 0
	// No noteExpiry: st is covered, and whatever ends that queues it.
	if st.window != final {
		sh.plan = append(sh.plan, programOp{dst: key, window: final, obs: n, st: st, shard: sh.idx})
		return false
	}
	return true
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
// each quiescent round the full path would have folded the unchanged
// combined value into the EWMA with the exact expression smooth uses, so
// iterating it here is bitwise identical. The walk stops early at the fixed
// point. Must run before any eager smoothing of a previously drained state
// (dirty rounds and the full rebuild ending a quiescent run).
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

// planShardQuiescent replaces planShard on a stable round: the retained
// grouping is exact once this round's edits are applied, so only edited and
// dirty groups and not-yet-converged states are visited. Everything else is
// covered by the shard-level clean-round credit.
func (a *Agent) planShardQuiescent(si int, obs []Observation, now time.Duration) {
	sh := a.shards[si]
	nShards := len(a.shards)
	sh.plan = sh.plan[:0]
	sh.guardClears = sh.guardClears[:0]
	sh.expired = sh.expired[:0]
	sh.absorbs = sh.absorbs[:0]
	sh.dissolves = sh.dissolves[:0]

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

	// Advance the still-active clean states. Groups dirtied this round are
	// kept on the list but handled below with their fresh Combine value. A
	// state parked until a future flip round is skipped without a single
	// write: every skipped round is a pure refresh, replayed by the lazy
	// credit when it wakes (or is redirtied, edited out, or read). A state
	// whose group emptied is off the list for good.
	kept := sh.active[:0]
	for _, td := range sh.active {
		st := td.st
		if !sh.grouped(st) {
			st.inActive = false
			continue
		}
		if st.dirtySeq == seq {
			kept = append(kept, td)
			continue
		}
		if st.wakeAt > sh.cleanRounds {
			kept = append(kept, td)
			continue
		}
		if !st.hasLast {
			// The last Combine was rejected (NaN/±Inf); the full path
			// re-combines — and re-rejects — such a group every round.
			st.cleanSeen = sh.cleanRounds
			st.ewmaSeen = sh.cleanRounds
			a.recombineLocked(sh, td, obs, now)
			kept = append(kept, td)
			continue
		}
		// Settle any parked span first: credit and smoothing replay cover
		// the rounds through the previous one, the current round is then
		// handled eagerly by quiescentBody. The transient counter decrement
		// scopes both helpers to that boundary; states visited last round
		// have nothing to settle and skip the calls.
		if st.cleanSeen != sh.cleanRounds-1 || st.ewmaSeen != sh.cleanRounds-1 {
			sh.cleanRounds--
			a.materializeLocked(sh, st)
			a.forwardEWMALocked(sh, st)
			sh.cleanRounds++
		}
		st.cleanSeen = sh.cleanRounds
		st.ewmaSeen = sh.cleanRounds
		if a.quiescentBody(sh, td.key, st, st.lastValue, int(st.prevN), now) {
			k := a.freezeHorizon(st)
			if k == 0 {
				// Window frozen: drain from the active list entirely.
				st.inActive = false
				st.wakeAt = 0
				continue
			}
			st.wakeAt = sh.cleanRounds + uint64(k)
		} else {
			// The window moved (or an install is pending): recompute the
			// horizon on the next visit.
			st.wakeAt = 0
		}
		kept = append(kept, td)
	}
	sh.active = kept

	// Dirty groups: re-Combine from their member sample-indices and run the
	// full per-destination treatment. A converged state going dirty rejoins
	// the active list. (A group dirtied and then emptied by a later edit is
	// no longer in the grouping.)
	for _, td := range sh.dirtyList {
		st := td.st
		if !sh.grouped(st) {
			continue
		}
		st.cleanSeen = sh.cleanRounds
		st.ewmaSeen = sh.cleanRounds
		a.recombineLocked(sh, td, obs, now)
		if !st.inActive {
			st.inActive = true
			sh.active = append(sh.active, td)
		}
	}

	sh.delta.expiredDropped += a.expireDueLocked(sh, now)
}

// recombineLocked gathers a group's member observations from its span,
// re-runs Combine, and applies the per-destination pass. It reports whether
// the combined value was finite; a rejected value leaves the state exactly
// as the full path would — no refresh (so its deadline is queued), hasLast
// cleared, the reject counted.
func (a *Agent) recombineLocked(sh *shard, td plannedDest, obs []Observation, now time.Duration) bool {
	st := td.st
	st.wakeAt = 0 // the combined value may move: horizon void
	n := int(st.prevN)
	if cap(sh.gather) < n {
		sh.gather = make([]Observation, 0, 2*n)
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
		return false
	}
	st.lastValue = value
	st.hasLast = true
	a.quiescentBody(sh, td.key, st, value, n, now)
	return true
}
