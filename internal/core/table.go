package core

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file holds the agent's destination table and the plan stage that
// runs on it. Per-destination state — the committed route entry, the
// smoothing state, and the per-tick grouping scratch — lives in ONE struct
// per destination (destState), found through one index (stateIndex, which
// keys an IPv4 prefix by a packed integer), in one table behind one lock.
// Every stage runs on the goroutine that calls Tick: the O(sockets) scans of
// the stream (a stable round's compare or a rebuild's keying, and the
// governor's observe pass) and the O(changes) plan, commit, export, merge and
// expiry.
// Collapsing entry + history + group bookkeeping into a single struct means
// the steady-state plan stage performs exactly one index lookup per
// observation; everything else is pointer chasing. See the pipeline overview
// in tick.go.

// MaxDefaultShards is kept for callers built against the lock-striped table.
//
// Deprecated: the agent keeps one destination table; nothing reads this.
const MaxDefaultShards = 16

// destState is everything the agent knows about one destination, in one index
// slot: its route key, the committed route entry (valid while installed is
// true), the inline EWMA smoothing state (used unless a caller supplied a
// History policy), and the plan stage's grouping bookkeeping. Smoothing state
// outlives the installed route on purpose — a destination whose program
// keeps failing still accumulates history. The key is held here: the export
// log, the deadlines, the grouping lists, the plan and the sample cache carry
// the pointer alone.
type destState struct {
	entry

	// key is the destination's route key, the one it is indexed under; set
	// when the state is carved and never changed.
	key netip.Prefix

	// Inline smoothing state for the default EWMA path (valid while
	// hasEwma).
	ewma float64

	// Grouping bookkeeping (tickMu only; see the plan-stage invariants
	// below). seq == tb.fullSeq marks a member of the retained grouping,
	// whose prevN sample indices sit in
	// tb.memberIdx[memberOff:memberOff+prevN] (memberCap slots reserved);
	// lastValue is the Combine value of the latest round that changed the
	// group (valid while hasLast). dirtySeq dedups the group in a stable
	// round's dirty list; inActive tracks membership in tb.active.
	// cleanSeen is the tb.cleanRounds value up to which lazy TTL/sample
	// credit has been folded into the entry fields; ewmaSeen is the same
	// watermark for the smoothing state (replayed by forwardEWMALocked);
	// wakeAt is the tb.cleanRounds value at which the state's next window
	// flip is due (freezeHorizon's verdict) — until then the stable round
	// skips it; a state whose horizon must be recomputed on its next visit
	// carries the current round. The three clean-round marks count modulo
	// 2^32, as tb.cleanRounds does.
	seq       uint64
	lastValue float64
	dirtySeq  uint64

	// due is the deadline of the state's live item in tb.deadlines, 0 when
	// none is queued (table mu; see noteExpiry).
	due time.Duration

	prevN     int32
	memberOff int32
	memberCap int32
	cleanSeen uint32
	ewmaSeen  uint32
	wakeAt    uint32

	// The flags sit together so they pack into one word.
	//
	// installed marks that a route is programmed and the embedded entry
	// fields are live; Lookup/Entries/snapshots ignore the state otherwise.
	installed bool
	// dead marks a state deleted from the table (table mu). Its slot is
	// recarved only once no holder names it (reclaimSlots), so until then a
	// pointer left in the deadline queue, the grouping or the active list
	// stays readable and is validated against this mark alone.
	dead bool
	// held marks an installed route the governor vetoed in the latest round:
	// its withdrawal is pending and its TTL is not being refreshed.
	held     bool
	hasEwma  bool
	hasLast  bool
	inActive bool
}

// destTable is the agent's per-destination state plus the scratch the plan
// stage reuses across ticks. mu guards states against concurrent readers
// (Lookup, Entries, ExportDelta) and cross-tick mutators; the scratch
// slices are touched only under tickMu.
type destTable struct {
	mu     sync.Mutex
	states stateIndex
	// peak is the most states the index has held since it was built
	// (tickMu): Go never shrinks a map, so its storage is sized by peak, not
	// by size.
	peak int
	// installed counts states with a live route, maintained at every
	// commit/withdraw site — a sizing hint for Entries and snapshots.
	installed int

	// deadlines is a min-heap of TTL deadlines in due order (mu), at most one
	// live item per state: every installed state has one unless it is a
	// refreshed member of the retained grouping (expireDueLocked), so an
	// expiry round costs O(due), not O(entries).
	deadlines []expiryItem

	// log lists the installed states in table-version order (mu; see
	// exportRef), so a delta export walks only the refs past its cursor.
	// logStale counts the refs whose state has since been re-stamped or
	// withdrawn.
	log      []exportRef
	logStale int

	// slab backs destState allocation in insertion-order blocks, so the
	// plan stage's pointer chasing walks mostly-sequential memory. Blocks
	// are never reallocated, keeping state pointers stable. spare lists the
	// slots of deleted states: the first ready of them no holder names, and
	// newDestState recarves those before it carves the slab; the rest died
	// since reclaimSlots last ran. reuse is a test seam (slotReuse).
	slab    []destState
	slabOff int
	spare   []*destState
	ready   int
	reuse   slotReuse

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
	// must visit and drains as states converge; right after a rebuild, when
	// every state of the grouping is active, it is empty and allActive says
	// the first allActive states of touched stand for it, so the grouping is
	// never held twice. cleanRounds counts stable rounds applied since the
	// agent started, modulo 2^32; refreshedAt is the time of the latest plan
	// round of either kind; fullSeq is the tick sequence of the last rebuild,
	// which every state in the grouping carries in seq (0: no grouping).
	// dirtyList and gather are per-round scratch.
	touched     []*destState
	memberIdx   []int32
	memberLimit int
	active      []*destState
	allActive   int
	dirtyList   []*destState
	gather      []Observation
	cleanRounds uint32
	refreshedAt time.Duration
	fullSeq     uint64
	// creditPending marks that stable rounds ran since the covered set was
	// last settled: lazy credit is outstanding.
	creditPending bool
}

// release drops the whole table, its storage included: the states and
// their slab, the export log, the deadline heap, the retained grouping and
// the per-round plan output. Readers of a released table see an empty one.
// Under mu and tickMu (Close).
func (tb *destTable) release() {
	tb.states, tb.installed, tb.peak = stateIndex{}, 0, 0
	tb.deadlines = nil
	tb.log, tb.logStale = nil, 0
	tb.slab, tb.slabOff, tb.spare, tb.ready = nil, 0, nil, 0
	tb.plan, tb.guardClears, tb.expired = nil, nil, nil
	tb.touched, tb.memberIdx, tb.memberLimit = nil, nil, 0
	tb.active, tb.allActive, tb.dirtyList, tb.gather = nil, 0, nil, nil
	tb.fullSeq, tb.creditPending = 0, false
}

// giveBack ends a round (tickMu): every round-reused array whose length is
// what the round used of it is given back under the retention rule (fit),
// and a table index that fell far below its peak is rebuilt at its size,
// with a fresh slab and no spare slots — the blocks hold the states that
// drained. The edit list is left empty for the next round. Last, the slots of
// the states the rounds deleted are reclaimed (reclaimSlots).
func (a *Agent) giveBack() {
	a.edits = fit(a.edits)[:0]
	tb := &a.tab
	// The sort keys served the round's longest sort.
	sorted := max(len(tb.plan), len(tb.guardClears), len(tb.expired))
	a.sortKeys = fit(a.sortKeys[:min(sorted, cap(a.sortKeys))])
	tb.plan, tb.guardClears, tb.expired = fit(tb.plan), fit(tb.guardClears), fit(tb.expired)
	tb.dirtyList = fit(tb.dirtyList)
	tb.touched, tb.memberIdx = fit(tb.touched), fit(tb.memberIdx)
	if tb.allActive == 0 {
		// After a rebuild the list's use is the grouping, which touched
		// holds: the next round compacts it into this array.
		tb.active = fit(tb.active)
	}

	// Only tickMu holders write the index, so its size reads without the
	// table lock; replacing it takes the lock.
	n := tb.states.size()
	tb.peak = max(tb.peak, n)
	if farLess(n, tb.peak) {
		states := makeStateIndex(len(tb.states.v4), len(tb.states.other))
		tb.states.each(states.put)
		tb.mu.Lock()
		tb.states, tb.peak = states, n
		// The spare slots go with their blocks: one a holder may still
		// name is never recarved, and is skipped by its dead mark.
		tb.slab, tb.slabOff, tb.spare, tb.ready = nil, 0, nil, 0
		tb.mu.Unlock()
	}
	a.reclaimSlots()
}

// slotReuse says when the slots of deleted states are recarved. The agent
// reclaims them amortized; tests pin the other two, whose outputs must match.
type slotReuse uint8

const (
	// reuseAmortized reclaims once the dead number 1/reclaimShare of the
	// holder entries a purge walks.
	reuseAmortized slotReuse = iota
	// reuseEager reclaims at the end of every round that deleted a state.
	reuseEager
	// reuseNever recarves no slot: every state lives in a slot of its own.
	reuseNever
)

// reclaimShare bounds a purge's walk: at most reclaimShare holder entries per
// slot it frees.
const reclaimShare = 32

// The spare list holds at most 1/spareShare of the table's size (spareFloor
// slots for a small one). A slot deleted past that is not listed, and is
// never recarved: a table that shrank — a warm start's merged entries
// expiring in the order they came — must not pin every block its departed
// states sat in, which the collector frees once none of their slots is live
// or listed.
const (
	spareShare = 8
	spareFloor = 64
)

// reclaimSlots frees the slots of the states deleted since it last ran, at
// the end of a round (tickMu). A slot may be recarved only once nothing can
// name it, so every holder that may still name a deleted state drops it
// first: the deadline heap (its items are validated by due, which a recarved
// state may repeat), the grouping's touched list and the active list (both
// deduplicated by flags a recarved state resets); the round's plan and dirty
// list, read only in the round that wrote them, are emptied. The other
// holders never name one: the sample cache names only members of the
// grouping, which dropState resets in place rather than deletes, and is
// cleared when the grouping is disbanded; the edit list ends every round
// empty (giveBack); and a stale export-log ref is told by its version, which
// a recarved state takes afresh (exportRef). The purge walks the heap and the
// two lists, so it waits until the dead number 1/reclaimShare of their
// entries: a round that deleted nothing pays one comparison, and a deletion
// at most reclaimShare entries walked. Until then newDestState carves the
// slab.
func (a *Agent) reclaimSlots() {
	tb := &a.tab
	dying := len(tb.spare) - tb.ready
	if dying == 0 || tb.reuse == reuseAmortized && dying*reclaimShare < len(tb.deadlines)+len(tb.touched)+len(tb.active) {
		return
	}
	tb.mu.Lock()
	tb.purgeDeadlines()
	tb.mu.Unlock()
	tb.touched, tb.allActive = dropDead(tb.touched, tb.allActive)
	tb.active, _ = dropDead(tb.active, 0)
	tb.plan, tb.dirtyList = tb.plan[:0], tb.dirtyList[:0]
	tb.ready = len(tb.spare)
}

// dropDead removes the deleted states from list in place, in order, and
// returns what is left and how many of its first n states remain.
func dropDead(list []*destState, n int) ([]*destState, int) {
	kept, head := list[:0], 0
	for i, st := range list {
		if st.dead {
			continue
		}
		if i < n {
			head++
		}
		kept = append(kept, st)
	}
	clear(list[len(kept):])
	return kept, head
}

// grouped reports whether st is a member of the retained grouping: observed
// when it was last rebuilt or edited, with a live member span.
func (tb *destTable) grouped(st *destState) bool {
	return tb.fullSeq != 0 && st.seq == tb.fullSeq
}

// newDestState carves key's destState — in a reclaimed slot if there is one,
// else from the table's slab — and indexes it.
func (tb *destTable) newDestState(key netip.Prefix) *destState {
	var st *destState
	if tb.ready > 0 {
		// The slot leaves the spare list; the last dying slot takes its place.
		tb.ready--
		st = tb.spare[tb.ready]
		last := len(tb.spare) - 1
		tb.spare[tb.ready], tb.spare[last] = tb.spare[last], nil
		tb.spare = tb.spare[:last]
		*st = destState{}
	} else {
		if tb.slabOff == len(tb.slab) {
			n := 2 * len(tb.slab)
			if n == 0 {
				n = 64
			}
			if n > 4096 {
				n = 4096
			}
			tb.slab = make([]destState, n)
			tb.slabOff = 0
		}
		st = &tb.slab[tb.slabOff]
		tb.slabOff++
	}
	st.key = key
	// A brand-new state has earned no lazy clean-round credit, and its
	// window trajectory is unknown.
	st.cleanSeen = tb.cleanRounds
	st.ewmaSeen = tb.cleanRounds
	st.wakeAt = tb.cleanRounds
	tb.states.put(key, st)
	return st
}

// resolve returns key's state, carving it if it has none.
func (tb *destTable) resolve(key netip.Prefix) *destState {
	if st := tb.states.get(key); st != nil {
		return st
	}
	return tb.newDestState(key)
}

// exportRef is one entry of the export log: the table version a commit
// stamped on a state, whose key it exports. Both stamp sites — programPlan
// and the merge commit — run under tickMu, which orders the agent-wide
// version counter, and append under the table lock, so the log ascends by
// version. A ref is live iff its state is installed, not dead and still
// carries that version; every installed state has exactly one live ref, so
// the live refs ARE the exported table, oldest commit first.
type exportRef struct {
	version uint64
	st      *destState
}

// live needs one load: a state carries a non-zero version exactly while it is
// installed (dropState zeroes it). A slot recarved after its state was
// deleted carries 0 until it is installed, and then a version stamped after
// every ref in the log: versions never repeat, so a ref outlives its slot's
// state exactly.
func (r *exportRef) live() bool {
	return r.st.version == r.version
}

// logAfter returns the index of the first ref stamped after version v. It
// gallops back from the tail before it bisects: a peer's cursor is almost
// always a round or two old, and that end of the log was just written.
func (tb *destTable) logAfter(v uint64) int {
	log := tb.log
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
// table lock; superseded says st already had a live ref, which the new stamp
// made stale.
func (tb *destTable) logStamp(st *destState, superseded bool) {
	if superseded {
		tb.logStaleRef()
	}
	tb.log = append(tb.log, exportRef{version: st.version, st: st})
}

// logStaleRef counts one ref gone stale and compacts the log in place once
// the stale refs pass half the live ones: the walk then covers at most three
// refs per stale-making commit since the last one, and the log (with the
// deleted states its stale refs pin) stays within 3/2 of the table. A log
// that compacts far below its array (a whole table expired) gives the array
// back under the retention rule.
func (tb *destTable) logStaleRef() {
	tb.logStale++
	if tb.logStale <= (len(tb.log)-tb.logStale)/2 {
		return
	}
	live := tb.log[:0]
	for _, r := range tb.log {
		if r.live() {
			live = append(live, r)
		}
	}
	clear(tb.log[len(live):]) // stale refs pin their states' slab blocks
	tb.log, tb.logStale = fit(live), 0
}

// expiryItem is one queued TTL deadline.
type expiryItem struct {
	due time.Duration
	st  *destState
}

// noteExpiry queues st's deadline unless an item due no later is already
// queued; a superseded item is recognised by its mismatching due when it
// pops. Called at a first install outside the retained grouping, a fleet
// merge and every eager full-path refresh, and whenever a state stops being
// refreshed as a member of the grouping. Deadlines are almost always written
// in due order (now+TTL), so the sift is O(1).
func (tb *destTable) noteExpiry(st *destState) {
	if st.due != 0 && st.due <= st.expires {
		return
	}
	st.due = st.expires
	h := append(tb.deadlines, expiryItem{due: st.expires, st: st})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].due <= h[i].due {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	tb.deadlines = h
}

// popDue removes and returns the earliest queued deadline if it is due.
func (tb *destTable) popDue(now time.Duration) (expiryItem, bool) {
	h := tb.deadlines
	if len(h) == 0 || h[0].due > now {
		return expiryItem{}, false
	}
	top := h[0]
	n := len(h) - 1
	h[0], h[n] = h[n], expiryItem{}
	h = h[:n]
	siftDown(h, 0)
	tb.deadlines = h
	return top, true
}

// siftDown restores the heap order below h[i].
func siftDown(h []expiryItem, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].due < h[c].due {
			c++
		}
		if h[i].due <= h[c].due {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// purgeDeadlines drops the items of deleted states and re-forms the heap
// (table mu): O(items).
func (tb *destTable) purgeDeadlines() {
	h := tb.deadlines[:0]
	for _, it := range tb.deadlines {
		if !it.st.dead {
			h = append(h, it)
		}
	}
	clear(tb.deadlines[len(h):])
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	tb.deadlines = h
}

// cachedSample is the sample cache record for one stream position: the state
// of the group the position's socket feeds (nil for an observation the round
// ignores), and what the next round's compare needs of last round's
// observation there — its sampleWord. It is all the agent keeps of last
// round's stream.
type cachedSample struct {
	st   *destState
	word uint64
}

// sampleTag marks a sampleWord that packs an IPv4 destination with its
// window; wideWindow stands for a window that does not fit in 31 bits.
const (
	sampleTag  = 1 << 31
	wideWindow = 1 << 32
)

// sampleWord is what a record keeps of a valid observation: for an IPv4
// destination, its address in the high half and its window in the low 31
// bits, tagged with sampleTag; for any other destination (IPv6, 4-in-6, a
// zoned address), the bare window, since the compare reaches its route key
// through the state; wideWindow for a window of 2^31 or more. An observation
// the round ignores packs to 0.
func sampleWord(o *Observation) uint64 {
	switch {
	case o.Cwnd <= 0 || !o.Dst.IsValid():
		return 0
	case o.Cwnd >= sampleTag:
		return wideWindow
	case o.Dst.Is4():
		b := o.Dst.As4()
		return uint64(binary.BigEndian.Uint32(b[:]))<<32 | sampleTag | uint64(o.Cwnd)
	}
	return uint64(o.Cwnd)
}

// recordKey returns the route key of observation o, whose sampleWord is
// word and whose position's state was st (or nil): unpacked from a tagged
// word (its address masked to the route granularity), st's key while that
// holds o's destination, and only otherwise keyed from the observation by
// destKey. A zoned address, which no prefix holds, is always re-keyed. It
// reports false for an observation the round ignores.
func (a *Agent) recordKey(word uint64, o *Observation, st *destState) (netip.Prefix, bool) {
	if word&sampleTag != 0 {
		bits := min(a.cfg.PrefixBits, 32)
		return unpackPrefix(uint64(uint32(word>>32)&(^uint32(0)<<(32-bits)))<<6 | uint64(bits)), true
	}
	if st != nil && word != 0 && st.key.Contains(o.Dst) {
		return st.key, true
	}
	key, err := a.destKey(o.Dst)
	return key, word != 0 && err == nil
}

// keyedObs is one edit a stable round's compare put in the round's edit list:
// the observation's index in the tick's sample slice, the state of the group
// it concerns, and whether the observation changed in place, left st's group,
// or joins key's group. A join names a route key and no state: the plan
// resolves (or carves) it; the other edits leave key zero.
type keyedObs struct {
	key  netip.Prefix
	st   *destState
	idx  int32
	kind obsKind
}

type obsKind uint8

const (
	obsDirty obsKind = iota
	obsLeave
	obsJoin
)

// tickDelta accumulates the plan stage's stat deltas; the commit stage folds
// them into Stats under a.mu.
type tickDelta struct {
	combinerRejects  uint64
	advisorRejects   uint64
	guardCapped      uint64
	guardVetoed      uint64
	guardQuarantined uint64
}

// prefixHash is FNV-1a over a route key's canonical 16-byte address plus
// its mask length: the marker fold of ContentToken.
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

// smooth folds value into the destination's smoothing state: the inline
// EWMA (bit-identical to EWMAHistory.Update) unless a caller-supplied
// policy is installed.
func (a *Agent) smooth(st *destState, value float64) float64 {
	if a.history != nil {
		return a.history.Update(st.key, value)
	}
	if !st.hasEwma {
		st.ewma = value
		st.hasEwma = true
		return value
	}
	st.ewma = a.cfg.Alpha*st.ewma + (1-a.cfg.Alpha)*value
	return st.ewma
}

// dropInstalled removes dst's state (and any external history) after its
// route was withdrawn, under the table lock. It reports whether a live
// entry existed. Each successful drop takes a table version, which the
// caller advances with the rest of its commit: the entry vanishes from
// exports, so peers revalidating by version see the change even though no
// entry carries the new version (fleet sharing has no tombstones — receivers
// age the entry out via its TTL).
func (a *Agent) dropInstalled(dst netip.Prefix) bool {
	tb := &a.tab
	st := tb.states.get(dst)
	if st == nil || !st.installed {
		return false
	}
	tb.installed--
	a.dropState(st)
	tb.logStaleRef()
	return true
}

// dropState deletes st (and any external history) under the table lock,
// marking the struct dead — which is all that invalidates the pointers left
// to it — and lists its slot to be reclaimed at the end of the round
// (reclaimSlots). Callers maintain tb.installed themselves.
//
// A state that still has members in the retained grouping is observed right
// now: it would be re-created from nothing next round. It is reset in place
// instead (an uninstalled state is invisible to every reader), so its span,
// the sample cache and the other groups stay exact; it rejoins the active
// list, where hasLast == false forces a fresh Combine.
func (a *Agent) dropState(st *destState) {
	tb := &a.tab
	if a.history != nil {
		a.history.Forget(st.key)
	}
	if tb.grouped(st) {
		*st = destState{
			key: st.key, seq: st.seq, prevN: st.prevN, memberOff: st.memberOff, memberCap: st.memberCap,
			dirtySeq: st.dirtySeq, inActive: st.inActive,
			cleanSeen: tb.cleanRounds, ewmaSeen: tb.cleanRounds, wakeAt: tb.cleanRounds,
		}
		if !st.inActive {
			st.inActive = true
			tb.active = append(tb.active, st)
		}
		return
	}
	st.installed = false
	st.version = 0
	st.dead = true
	tb.states.del(st.key)
	if tb.reuse == reuseEager || tb.reuse == reuseAmortized && len(tb.spare) < max(tb.states.size()/spareShare, spareFloor) {
		tb.spare = append(tb.spare, st)
	}
}

// Plan-stage invariants.
//
// The plan stage has one way to start over and one way to reuse last round's
// work, and they produce the same route ops, entries, stats and errors for
// every stream and every config (TestDeltaTickMatches*,
// TestQuiescent*, TestStableRoundsMatchRebuild* pin that against an agent
// whose every round rebuilds; oracle_test.go pins what both share against
// Algorithm 1).
//
//  (i) A rebuild (planRebuild) keys every position of the stream from
//     nothing and establishes: the grouping — every observed state stamped
//     seq == fullSeq and listed in touched, in first-encounter order; each
//     group's member span — its sample indices, ascending, packed into
//     memberIdx with tail slack up to memberLimit; and the sample cache —
//     a.cache[i] is position i's state and sampleWord, or zero for an
//     observation the round ignores. Every position is keyed once
//     (recordKey: an IPv4 one from its word). Every group is combined and
//     planned, and every state starts on active. It runs when there is no
//     previous stream, sample or grouping, when relocated spans have used up
//     the slack, and when a stable round's edits exceed their share
//     (editShareDiv); each reason is counted apart (rebuildReason).
//
//  (ii) A stable round (compareStream → planStable) compares each position
//     with its record: a position that kept its route key and window is no
//     edit (under a Combiner that reads more than windows, it marks its group
//     dirty); one that kept its route key marks its group dirty; one that did
//     not leaves its recorded group and/or joins its re-keyed one, keeping
//     spans sorted (a full span moves to the tail). Every edit rewrites the
//     record. A group that empties leaves the grouping (seq = 0) with its
//     credit settled and its deadline queued (queueLeft); a new one joins
//     with no back credit. A state deleted while still grouped is reset in
//     place (dropState), so spans and the sample cache stay exact; a state
//     deleted outside the grouping may still be named by the touched and
//     active lists and the deadline heap, which skip it by destState.dead
//     until reclaimSlots drops it from all three and frees its slot.
//     Dirty groups re-Combine from their spans; clean ones reuse lastValue.
//     Both paths hand each visited destination to planDest, the one place
//     its window is decided.
//
//  (iii) A state may leave active — drain — only under a.canDrain, once its
//     route is installed and freezeHorizon proves its window can no longer
//     move under lastValue (or park until the round it next will). What its
//     skipped visits would have done is credited lazily from the table's
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
//
// Both paths read the stream in sample order, on the goroutine that runs
// Tick: the compare appends a stable round's edits to one list, which the
// plan replays in that order.

// A stable round may carry membership edits up to 1/editShareDiv of the
// stream (plus editFloor, so small streams qualify); past that the
// round is rebuilt — an edit costs a map operation and a span shift, a
// rebuild a few linear passes. memberSlack* size the tail room a rebuild
// leaves in memberIdx for relocated spans.
const (
	editShareDiv   = 8
	editFloor      = 4
	memberSlackDiv = 4
	memberSlackMin = 64
)

// planRebuild rebuilds the grouping from the scanned observations, under the
// table lock, and plans every group: see invariant (i).
func (a *Agent) planRebuild(obs []Observation, now time.Duration) {
	tb := &a.tab
	tb.mu.Lock()
	defer tb.mu.Unlock()

	// A rebuild ending a stable run settles the covered entries before it
	// regroups.
	if tb.creditPending {
		a.settleCoveredLocked()
	}

	// Pass 1: key each recorded position (recordKey) and resolve its state
	// (one index lookup per observation), count each group's members and
	// mark it uncarved.
	seq := a.tickSeq
	cache := a.cache[:len(obs)]
	unrouted := 0 // groups with no installed route: each plans an install
	for i := range cache {
		c := &cache[i]
		key, ok := a.recordKey(c.word, &obs[i], nil)
		if !ok {
			continue
		}
		st := tb.resolve(key)
		c.st = st
		if st.seq != seq {
			st.seq = seq
			st.prevN, st.memberCap = 0, -1
			if !st.installed {
				unrouted++
			}
		}
		st.prevN++
	}
	// The old grouping is let go before the new one is written over it, at
	// the horizon of the last plan round.
	old := tb.touched
	a.queueDeparted(old, seq)
	tb.refreshedAt = now
	// A group plans at most one op, and one with no route plans its
	// install: on a cold table, one op for every group.
	tb.plan = slices.Grow(tb.plan, unrouted)

	// Pass 2: list the groups in first-encounter order — the sample cache's
	// order, which is the stream's — and carve each a span of memberIdx,
	// packed in that order.
	tb.touched = old[:0]
	moff := int32(0)
	for i := range cache {
		c := &cache[i]
		if c.st == nil || c.st.memberCap >= 0 {
			continue
		}
		st := c.st
		st.memberOff, st.memberCap = moff, st.prevN
		moff += st.prevN
		st.prevN = 0
		if len(tb.touched) == cap(tb.touched) {
			// The grouping outlives the round, and the observation count
			// only bounds its size (many sockets may share a destination),
			// so it doubles rather than reserve that: about twice its final
			// size allocated in all, where append's 1.25× ladder allocates
			// about five times.
			tb.touched = append(make([]*destState, 0, max(2*cap(tb.touched), 1)), tb.touched...)
		}
		tb.touched = append(tb.touched, st)
	}
	if n := len(tb.touched); n < len(old) {
		clear(old[n:]) // departed states would pin their slab blocks
	}
	tb.memberLimit = int(moff) + int(moff)/memberSlackDiv + memberSlackMin
	if tb.memberLimit > cap(tb.memberIdx) {
		tb.memberIdx = make([]int32, moff, tb.memberLimit)
	}
	// Pass 3: fill the spans in sample order (prevN counts the fill back up).
	tb.memberIdx = tb.memberIdx[:moff]
	for i := range cache {
		if st := cache[i].st; st != nil {
			tb.memberIdx[st.memberOff+st.prevN] = int32(i)
			st.prevN++
		}
	}
	tb.fullSeq = seq

	// Pass 4: every group is new to this grouping — combine and plan it. All
	// of them start on the active list, which the grouping stands for until
	// the next stable round compacts it.
	for _, st := range tb.touched {
		st.inActive = true
		st.cleanSeen, st.ewmaSeen = tb.cleanRounds, tb.cleanRounds
		a.recombineLocked(st, obs, now)
	}
	clear(tb.active)
	tb.active, tb.allActive = tb.active[:0], len(tb.touched)

	a.expireDueLocked(now)
}

// settleCoveredLocked folds the outstanding clean-round credit — entry fields
// and skipped smoothing advances — into every covered entry. Afterwards
// nothing is credited until the next stable round.
func (a *Agent) settleCoveredLocked() {
	tb := &a.tab
	for _, st := range tb.touched {
		a.materializeLocked(st)
		a.forwardEWMALocked(st)
	}
	tb.creditPending = false
}

// queueDeparted takes every state of the grouping old that the grouping
// stamped seq no longer holds off the books: its active-list mark is cleared
// and its deadline queued (queueLeft) — membership kept it out of the queue
// (invariant iii).
func (a *Agent) queueDeparted(old []*destState, seq uint64) {
	for _, st := range old {
		if st.seq != seq && !st.dead {
			st.inActive = false
			a.queueLeft(st)
		}
	}
}

// queueLeft queues the deadline of a state that has just left the grouping.
// An installed route keeps its TTL. A state never installed — its installs
// keep failing, or the governor vetoed it before the first — gets the horizon
// an installed entry observed in the same rounds would have, from the latest
// plan round, and is deleted when it comes due (expireDueLocked).
func (a *Agent) queueLeft(st *destState) {
	if !st.installed {
		st.expires = a.tab.refreshedAt + a.cfg.TTL
	}
	a.tab.noteExpiry(st)
}

// expireDueLocked pops the deadlines that have come due, under the table
// lock: a lapsed route queues a withdrawal in tb.expired and stays queued
// until the clear lands (a failed one retries next round); a lapsed state
// that was never installed is deleted; a state refreshed since it was queued
// is re-queued at its current deadline; a member of the grouping that is
// covered (invariant iii) or has no route needs no item and is let go — the
// latter is queued again when it leaves. Only when no plan round has run for
// a whole TTL (sampler down) can covered members lapse; the grouping is then
// disbanded, every member queued, and the next round rebuilds.
func (a *Agent) expireDueLocked(now time.Duration) {
	tb := &a.tab
	if tb.fullSeq != 0 && tb.refreshedAt+a.cfg.TTL <= now {
		a.settleCoveredLocked()
		a.queueDeparted(tb.touched, 0)
		tb.fullSeq = 0
		// The next round rebuilds and records every position afresh; until
		// then no record may name the states this expiry deletes.
		clear(a.cache)
	}
	for it, ok := tb.popDue(now); ok; it, ok = tb.popDue(now) {
		st := it.st
		if st.dead || st.due != it.due {
			continue
		}
		st.due = 0
		switch {
		case tb.grouped(st) && (!st.installed || st.hasLast && !st.held):
		case st.expires > now:
			tb.noteExpiry(st)
		case !st.installed:
			// So does the route backend's state for it (RouteProgrammer).
			a.dropState(st)
			if f, ok := a.cfg.Routes.(interface{ ForgetRoute(netip.Prefix) }); ok {
				f.ForgetRoute(st.key)
			}
		default:
			tb.expired = append(tb.expired, st.key)
		}
	}
	// A lapsed route stays queued until its clear lands — re-queued only now,
	// or it would pop again at once.
	for _, key := range tb.expired {
		tb.noteExpiry(tb.states.get(key))
	}
	// A burst that drained (a whole table installed in one round comes due
	// in one round) gives its array back under the retention rule.
	tb.deadlines = fit(tb.deadlines)
}

// materializeLocked folds outstanding stable-round credit into one entry:
// the TTL refreshes and per-round sample counts the skipped visits would
// have applied. Covered states are the installed members of the retained
// grouping; anything else — merged entries, groups that emptied — takes no
// credit. Called under the table lock.
func (a *Agent) materializeLocked(st *destState) {
	tb := &a.tab
	if st.cleanSeen == tb.cleanRounds || st.seq != tb.fullSeq || !st.installed {
		st.cleanSeen = tb.cleanRounds
		return
	}
	st.samples += uint64(st.lastObs) * uint64(tb.cleanRounds-st.cleanSeen)
	st.expires = tb.refreshedAt + a.cfg.TTL
	st.updated = tb.refreshedAt
	st.cleanSeen = tb.cleanRounds
}

// compareStream is the stable-round detector: it compares the sample with
// the records last round left and appends what changed to the round's edit
// list. A socket that kept its route key and window is no edit — under a
// Combiner that reads only windows (readsCwndOnly) its group's Combine value
// cannot have moved; under any other it marks the group dirty. One that kept
// its route key but not its window (or whose window the record cannot hold)
// marks its group dirty; any other change is a membership edit — a leave from
// the recorded group and/or a join to the re-keyed one, whose state the plan
// resolves. Every edit rewrites the record. A tagged record and observation
// are compared in one word; anything else is compared through the state
// (recordKey), so a socket that moved to another destination inside the same
// route key keeps its group. Last, the positions a shorter stream lost leave
// their groups. It reports false — rebuild the round — once the membership
// edits exceed the stream's share.
func (a *Agent) compareStream(obs []Observation) bool {
	cache := a.cache
	budget := len(obs)/editShareDiv + editFloor
	edits := &a.edits
	for i := range obs {
		o, c := &obs[i], &cache[i]
		// sampleWord's tagged case, spelled out: it does not inline, and
		// the call cost an unchanged socket 20–30 % more.
		if o.Dst.Is4() && uint64(o.Cwnd)-1 < sampleTag-1 {
			b := o.Dst.As4()
			if x := (uint64(binary.BigEndian.Uint32(b[:]))<<32 | sampleTag | uint64(o.Cwnd)) ^ c.word; x < sampleTag {
				// The same IPv4 destination as last round.
				if x != 0 || !a.cwndOnly {
					*edits = append(*edits, keyedObs{st: c.st, idx: int32(i)})
					c.word ^= x
				}
				continue
			}
		}
		word := sampleWord(o)
		key, ok := a.recordKey(word, o, c.st)
		if st := c.st; st != nil {
			if ok && key == st.key {
				// The low 31 bits of a word hold its window, if it fits.
				if !a.cwndOnly || word == wideWindow || (word^c.word)&(sampleTag-1) != 0 {
					*edits = append(*edits, keyedObs{st: st, idx: int32(i)})
				}
				c.word = word
				continue
			}
			*edits = append(*edits, keyedObs{st: st, idx: int32(i), kind: obsLeave})
		} else if !ok {
			continue // ignored last round and this one
		}
		if budget--; budget < 0 {
			return false
		}
		*c = cachedSample{word: word}
		if ok {
			*edits = append(*edits, keyedObs{key: key, idx: int32(i), kind: obsJoin})
		}
	}
	for i := len(obs); i < len(cache); i++ {
		if st := cache[i].st; st != nil {
			if budget--; budget < 0 {
				return false
			}
			*edits = append(*edits, keyedObs{st: st, idx: int32(i), kind: obsLeave})
		}
	}
	return true
}

// observeStream shows the governor every valid observation under its route
// key, from its record (recordKey), which the compare or the rebuild has
// just brought up to date: the word's or the state's, so no socket is keyed
// afresh.
func (a *Agent) observeStream(obs []Observation) {
	for i := range obs {
		if key, ok := a.recordKey(a.cache[i].word, &obs[i], a.cache[i].st); ok {
			a.cfg.Guard.ObserveSample(key, obs[i])
		}
	}
}

// leaveGroupLocked takes sample index idx out of st's member span. A group
// that empties leaves the covered set: its credit is settled through the
// previous round and its deadline queued, exactly where a rebuild — which
// stops visiting it — leaves it.
func (a *Agent) leaveGroupLocked(st *destState, idx int32) {
	tb := &a.tab
	span := tb.memberIdx[st.memberOff : st.memberOff+st.prevN]
	j, _ := slices.BinarySearch(span, idx)
	copy(span[j:], span[j+1:])
	if st.prevN--; st.prevN > 0 {
		return
	}
	a.materializeLocked(st)
	a.forwardEWMALocked(st)
	st.seq = 0
	a.queueLeft(st)
}

// joinGroupLocked resolves (or creates) key's state, backfills the sample
// cache, and inserts sample index idx into the group's member span in sample
// order. A group new to the grouping joins the covered set with no credit for
// the rounds it sat out; a span without room moves to the tail of memberIdx.
func (a *Agent) joinGroupLocked(key netip.Prefix, idx int32) *destState {
	tb := &a.tab
	st := tb.resolve(key)
	a.cache[idx].st = st
	if !tb.grouped(st) {
		st.seq = tb.fullSeq
		st.prevN, st.memberOff, st.memberCap = 0, 0, 0
		st.cleanSeen, st.ewmaSeen = tb.cleanRounds, tb.cleanRounds
		tb.touched = append(tb.touched, st)
	}
	if st.prevN == st.memberCap {
		off := int32(len(tb.memberIdx))
		st.memberCap = 2*st.prevN + 1
		tb.memberIdx = append(tb.memberIdx, tb.memberIdx[st.memberOff:st.memberOff+st.prevN]...)
		tb.memberIdx = append(tb.memberIdx, make([]int32, st.memberCap-st.prevN)...)
		st.memberOff = off
	}
	st.prevN++
	span := tb.memberIdx[st.memberOff : st.memberOff+st.prevN]
	j, _ := slices.BinarySearch(span[:st.prevN-1], idx)
	copy(span[j+1:], span[j:])
	span[j] = idx
	return st
}

// planDest decides one observed destination's window for the round from its
// group's combined value — smooth, clamp, advise, review — then refreshes the
// installed entry and plans a route op if the window moved (or the install is
// still pending). Both plan paths call it for every group they visit. It
// reports whether the round was a steady refresh: the route installed and its
// programmed window unchanged.
func (a *Agent) planDest(st *destState, value float64, now time.Duration) (steady bool) {
	tb := &a.tab
	n := st.prevN
	final := a.clamp(a.smooth(st, value))
	if a.cfg.Advisor != nil {
		// The factor damps the window the destination would be programmed
		// with, so it applies past the c_max clamp: 0.25 of a window held at
		// c_max is a quarter of c_max, not a quarter of a smoothed value far
		// above it. The damped window is clamped again, to c_min.
		if m := a.cfg.Advisor.Advise(st.key); isFinite(m) {
			final = a.clamp(float64(final) * m)
		} else {
			tb.delta.advisorRejects++
		}
	}

	if a.cfg.Guard != nil {
		capped, action := a.cfg.Guard.Review(st.key, final)
		switch action {
		case GuardVeto, GuardQuarantine:
			tb.delta.guardVetoed++
			if action == GuardQuarantine {
				tb.delta.guardQuarantined++
			}
			// An installed route for a held-back destination is withdrawn
			// (outside the lock, in the program stage). The entry is only
			// dropped once the clear succeeds, so a failed withdrawal retries
			// next round; meanwhile its TTL runs.
			if st.installed {
				tb.guardClears = append(tb.guardClears, st.key)
				st.held = true
				tb.noteExpiry(st)
			}
			return false
		case GuardCap:
			if capped = max(capped, a.cfg.CMin); capped < final {
				final = capped
				tb.delta.guardCapped++
			}
		}
	}

	if !st.installed {
		// New destination, or its first program keeps failing: replan every
		// round. The entry is recorded in the program stage, only once the
		// route is actually installed.
		tb.plan = append(tb.plan, programOp{window: int32(final), obs: n, st: st})
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
	st.mergedAge = 0
	st.held = false
	if int(st.window) != final {
		tb.plan = append(tb.plan, programOp{window: int32(final), obs: n, st: st})
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
func (a *Agent) recombineLocked(st *destState, obs []Observation, now time.Duration) {
	tb := &a.tab
	st.wakeAt = tb.cleanRounds // the combined value may move: horizon void
	if cap(tb.gather) < int(st.prevN) {
		tb.gather = make([]Observation, 0, 2*st.prevN)
	}
	g := tb.gather[:0]
	for _, idx := range tb.memberIdx[st.memberOff : st.memberOff+st.prevN] {
		g = append(g, obs[idx])
	}
	value := a.cfg.Combiner.Combine(g)
	if !isFinite(value) {
		st.hasLast = false
		tb.delta.combinerRejects++
		if st.installed {
			tb.noteExpiry(st)
		}
		return
	}
	st.lastValue = value
	st.hasLast = true
	a.planDest(st, value, now)
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
// TTL/sample refresh that the table-level lazy credit replays. A positive
// horizon parks the state until exactly that round. The walk is short: the
// trajectory approaches the combined value from one side without crossing
// it (round-to-nearest cannot push the convex combination past v), and
// clamp is monotone, so once the current window equals clamp(v) no flip can
// ever come; otherwise a flip is at most a few steps out. A walk that
// somehow exhausts maxFreezeSim without a flip or fixed point answers 1 —
// the state is revisited every round, slower but never wrong.
func (a *Agent) freezeHorizon(st *destState) int32 {
	e, v, w := st.ewma, st.lastValue, int(st.window)
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
func (a *Agent) forwardEWMALocked(st *destState) {
	tb := &a.tab
	k := tb.cleanRounds - st.ewmaSeen
	st.ewmaSeen = tb.cleanRounds
	if k == 0 || st.seq != tb.fullSeq || !st.installed || !st.hasEwma || !st.hasLast {
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

// planStable plans a stable round, under the table lock: the retained
// grouping is exact once this round's edits are applied, so only the states
// on the active list and the edited and dirty groups are visited
// (invariants ii–iv).
func (a *Agent) planStable(obs []Observation, now time.Duration) {
	tb := &a.tab
	tb.mu.Lock()
	defer tb.mu.Unlock()

	seq := a.tickSeq

	// Apply this round's edits and collect its dirty groups from the edit
	// list, deduped by group, settling their outstanding lazy credit before
	// this round's counter bump — the current round is handled eagerly below,
	// so it must not also be credited. The list is in sample order, but no
	// order dependence remains here: spans are kept sorted, and the commit
	// stage sorts the plan.
	tb.dirtyList = tb.dirtyList[:0]
	for _, ko := range a.edits {
		st := ko.st
		switch ko.kind {
		case obsLeave:
			a.leaveGroupLocked(st, ko.idx)
		case obsJoin:
			st = a.joinGroupLocked(ko.key, ko.idx)
		}
		if st.dirtySeq != seq && tb.grouped(st) {
			st.dirtySeq = seq
			a.materializeLocked(st)
			a.forwardEWMALocked(st)
			tb.dirtyList = append(tb.dirtyList, st)
		}
	}

	tb.cleanRounds++
	tb.refreshedAt = now
	tb.creditPending = true

	// Visit the active clean states with their recorded Combine value. Groups
	// dirtied this round are kept on the list but handled below with a fresh
	// one. A state parked until a future flip round is skipped without a
	// single write: every skipped round is a pure refresh, replayed by the
	// lazy credit when it wakes (or is redirtied, edited out, or read). A
	// state whose group emptied is off the list for good. The first round
	// after a rebuild reads the grouping the rebuild left (allActive) and
	// compacts it into the list's own array, which holds only what stays.
	list := tb.active
	if tb.allActive > 0 {
		list, tb.allActive = tb.touched[:tb.allActive], 0
	}
	kept := tb.active[:0]
	for _, st := range list {
		if !tb.grouped(st) {
			st.inActive = false
			continue
		}
		// wakeAt is at most maxFreezeSim rounds ahead (or a round behind),
		// so the signed distance is exact across the counter's wrap.
		if st.dirtySeq == seq || int32(st.wakeAt-tb.cleanRounds) > 0 {
			kept = append(kept, st)
			continue
		}
		// Settle any parked span first: credit and smoothing replay cover
		// the rounds through the previous one, the current round is then
		// handled eagerly. The transient counter decrement scopes both
		// helpers to that boundary; states visited last round have nothing
		// to settle and skip the calls.
		if st.cleanSeen != tb.cleanRounds-1 || st.ewmaSeen != tb.cleanRounds-1 {
			tb.cleanRounds--
			a.materializeLocked(st)
			a.forwardEWMALocked(st)
			tb.cleanRounds++
		}
		st.cleanSeen, st.ewmaSeen = tb.cleanRounds, tb.cleanRounds
		if !st.hasLast {
			// The last Combine was rejected (NaN/±Inf); a rebuild would
			// combine — and reject — such a group again every round.
			a.recombineLocked(st, obs, now)
			kept = append(kept, st)
			continue
		}
		st.wakeAt = tb.cleanRounds
		if a.planDest(st, st.lastValue, now) && a.canDrain {
			k := a.freezeHorizon(st)
			if k == 0 {
				// Window frozen: drain from the active list entirely.
				st.inActive = false
				continue
			}
			st.wakeAt = tb.cleanRounds + uint32(k)
		}
		kept = append(kept, st)
	}
	tb.active = kept

	// Dirty groups: re-Combine from their member sample-indices. A converged
	// state going dirty rejoins the active list. (A group dirtied and then
	// emptied by a later edit is no longer in the grouping.)
	for _, st := range tb.dirtyList {
		if !tb.grouped(st) {
			continue
		}
		st.cleanSeen, st.ewmaSeen = tb.cleanRounds, tb.cleanRounds
		a.recombineLocked(st, obs, now)
		if !st.inActive {
			st.inActive = true
			tb.active = append(tb.active, st)
		}
	}

	a.expireDueLocked(now)
}
