package core

import (
	"net/netip"
	"strconv"
	"sync"
)

// Incremental content digest.
//
// The gossip layer (internal/gossip) summarizes a table as DigestBuckets
// XOR-folded entry hashes so converged peers can prove "nothing changed"
// in O(1) bytes. Before this file, producing that digest cost a full
// ExportDelta(0) scan — O(table) per serve, per peer, per round, even when
// the answer was identical every time. The agent now maintains the bucket
// hashes online: every commit that changes exported content (a route
// program, a fleet merge seed, a withdrawal) XOR-patches the one affected
// bucket under digestMu, so ContentDigest answers in O(shards-free, just
// quarantine overlay) work no matter how large the table is.
//
// Invariant: a destState's content hash is folded into digestBuckets iff
// st.installed — exactly the set ExportDelta(0) exports. Quarantine markers
// are governor state on the governor's own clock (a marker can appear or
// lapse without any agent commit), so they are not tracked incrementally;
// ContentDigest overlays them at read time in O(markers).
//
// Lock order: the fold/unfold patch sites run under their shard's mu and
// take digestMu inside it. digestMu is a leaf lock — nothing is acquired
// while holding it.

// DigestBuckets is the fixed width of the fleet content digest. It is the
// canonical value behind gossip.NumBuckets; changing it is a gossip wire
// format change.
const DigestBuckets = 64

// FNV-1a 64-bit parameters (hash/fnv), inlined so the per-commit patch and
// the per-entry hash need no hasher allocation.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// digestPrefixSeed returns the FNV-1a state after hashing a prefix's
// canonical CIDR text — both the bucket selector (seed % DigestBuckets) and
// the resumable front half of the entry hash. It is bit-identical to
// hash/fnv's New64a over the same bytes.
func digestPrefixSeed[T string | []byte](prefix T) uint64 {
	h := fnvOffset64
	for i := 0; i < len(prefix); i++ {
		h ^= uint64(prefix[i])
		h *= fnvPrime64
	}
	return h
}

// digestFinish continues a prefix seed with the entry's remaining durable
// content: "|<window>" and, for quarantine markers, "|q". Samples, age, and
// mod version are deliberately excluded — they churn every round without
// changing what a peer would learn (see gossip.Compute).
func digestFinish(seed uint64, window int, quarantined bool) uint64 {
	h := seed
	h ^= '|'
	h *= fnvPrime64
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], int64(window), 10) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	if quarantined {
		h ^= '|'
		h *= fnvPrime64
		h ^= 'q'
		h *= fnvPrime64
	}
	return h
}

// DigestBucketOf maps a prefix in CIDR text form to its digest bucket.
func DigestBucketOf(prefix string) int {
	return int(digestPrefixSeed(prefix) % DigestBuckets)
}

// digestSeedOf is digestPrefixSeed over p's CIDR text, rendered into a stack
// buffer (the longest form, an IPv6 /128, is 43 bytes).
func digestSeedOf(p netip.Prefix) uint64 {
	var buf [48]byte
	return digestPrefixSeed(p.AppendTo(buf[:0]))
}

// DigestBucketOfPrefix is DigestBucketOf(p.String()) without the string.
func DigestBucketOfPrefix(p netip.Prefix) int {
	return int(digestSeedOf(p) % DigestBuckets)
}

// DigestEntryHash hashes one exported entry's durable content (prefix,
// window, quarantine flag). gossip.Compute folds exactly this value into
// DigestBucketOf(prefix)'s bucket; the incremental accumulator folds it at
// each commit.
func DigestEntryHash(prefix string, window int, quarantined bool) uint64 {
	return digestFinish(digestPrefixSeed(prefix), window, quarantined)
}

// digestAccum is the agent's live digest accumulator: the XOR-folded bucket
// hashes and the count of folded (installed) entries.
type digestAccum struct {
	mu      sync.Mutex
	buckets [DigestBuckets]uint64
	live    int
}

// digestFold folds st's content hash into the accumulator after a commit
// installed it. Called under the owning shard's mu. The FNV state after the
// prefix text is cached on the state the first time — slab slots are never
// recarved for a different prefix, so the seed stays valid for the struct's
// lifetime and later refolds hash only the window digits.
func (a *Agent) digestFold(dst netip.Prefix, st *destState) {
	if !st.digSeeded {
		st.digSeed = digestSeedOf(dst)
		st.digSeeded = true
	}
	h := digestFinish(st.digSeed, st.window, false)
	b := st.digSeed % DigestBuckets
	a.digest.mu.Lock()
	a.digest.buckets[b] ^= h
	a.digest.live++
	a.digest.mu.Unlock()
	st.digHash = h
}

// digestRefold swaps an installed entry's folded hash after its window
// changed, in one critical section so readers never observe the entry
// half-removed. Called under the owning shard's mu.
func (a *Agent) digestRefold(dst netip.Prefix, st *destState) {
	if !st.digSeeded {
		st.digSeed = digestSeedOf(dst)
		st.digSeeded = true
	}
	h := digestFinish(st.digSeed, st.window, false)
	b := st.digSeed % DigestBuckets
	a.digest.mu.Lock()
	a.digest.buckets[b] ^= st.digHash ^ h
	a.digest.mu.Unlock()
	st.digHash = h
}

// digestUnfold removes an installed entry's folded hash when its route is
// withdrawn (expiry, guard clear, fallback clear). Called under the owning
// shard's mu, before the state is dropped.
func (a *Agent) digestUnfold(st *destState) {
	b := st.digSeed % DigestBuckets
	a.digest.mu.Lock()
	a.digest.buckets[b] ^= st.digHash
	a.digest.live--
	a.digest.mu.Unlock()
	st.digHash = 0
}

// digestReset zeroes the accumulator (Close wipes the whole table).
func (a *Agent) digestReset() {
	a.digest.mu.Lock()
	a.digest.buckets = [DigestBuckets]uint64{}
	a.digest.live = 0
	a.digest.mu.Unlock()
}

// ContentDigest returns the agent's table version, exported-entry count, and
// the DigestBuckets XOR-folded content hashes — byte-identical to hashing a
// full ExportDelta(0) through gossip.Compute, without the O(table) scan.
// The version is read before the buckets, preserving ExportDelta's
// conservative race semantics: a commit landing mid-read can only make the
// reported version older than the content, so a peer re-pulls, never skips.
func (a *Agent) ContentDigest() (version uint64, count int, buckets []uint64) {
	version = a.tableVer.Load()
	buckets = make([]uint64, DigestBuckets)
	a.digest.mu.Lock()
	copy(buckets, a.digest.buckets[:])
	count = a.digest.live
	a.digest.mu.Unlock()
	count += a.foldQuarantines(buckets)
	return version, count, buckets
}

// foldQuarantines overlays the governor's current quarantine markers onto a
// bucket copy, applying the same live-entry exclusion as ExportDelta (a
// prefix with an installed entry is not marked — overlap means the
// quarantine already recovered). Returns the number of markers folded.
func (a *Agent) foldQuarantines(buckets []uint64) int {
	if a.cfg.Guard == nil {
		return 0
	}
	n := 0
	for _, q := range a.cfg.Guard.Quarantines() {
		key := q.Prefix.Masked()
		sh := a.shardFor(key)
		sh.mu.Lock()
		st, ok := sh.states[key]
		exists := ok && st.installed
		sh.mu.Unlock()
		if exists {
			continue
		}
		seed := digestSeedOf(key)
		buckets[seed%DigestBuckets] ^= digestFinish(seed, 0, true)
		n++
	}
	return n
}

// ContentToken returns a cheap revalidation token for response caches: the
// table version plus an order-independent XOR fold of the current quarantine
// markers. Cached encodings of this agent's digest/delta/snapshot bodies are
// current exactly while the token is unchanged — the version covers every
// entry-table commit, the marker fold covers governor transitions that move
// no version (a quarantine lapsing into probing). Cost is O(markers), zero
// for agents without a governor.
func (a *Agent) ContentToken() (version uint64, markers uint64) {
	version = a.tableVer.Load()
	if a.cfg.Guard == nil {
		return version, 0
	}
	for _, q := range a.cfg.Guard.Quarantines() {
		key := q.Prefix.Masked()
		sh := a.shardFor(key)
		sh.mu.Lock()
		st, ok := sh.states[key]
		exists := ok && st.installed
		sh.mu.Unlock()
		if exists {
			continue
		}
		seed := digestSeedOf(key)
		markers ^= digestFinish(seed, 0, true)
	}
	return version, markers
}
