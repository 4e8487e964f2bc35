// Package gossip implements the anti-entropy layer of fleet sharing: a
// compact per-bucket table digest so converged peers exchange O(1) bytes, a
// versioned delta format so divergent peers transfer only what changed, and
// the shared wire Entry both ride on (the same entry the full-snapshot
// format uses — internal/fleet aliases it).
//
// The sync ladder a puller walks each round, cheapest rung first:
//
//  1. digest — fetch the peer's Digest. If the buckets match the digest
//     remembered from the last sync, the peer has nothing new: the round
//     cost one small fixed-size message.
//  2. delta — same peer instance as last time: fetch entries committed
//     after the table version seen last round (`since`).
//  3. buckets — the peer restarted (instance changed, version counter
//     reset) but a digest from its previous life is remembered: fetch only
//     the buckets whose hashes diverge.
//  4. full — first contact, or the peer cannot answer the above: fetch the
//     whole table (the delta endpoint with Full set, or the legacy
//     /fleet/snapshot for pre-gossip peers).
//
// Digests are deterministic and order-independent: each entry hashes its
// durable content (prefix, window, quarantined — NOT samples, age, or mod
// version, which churn every round without changing what a peer would
// learn), and a bucket's hash is the XOR of its entries' hashes. Two tables
// with the same durable content produce the same digest regardless of entry
// order, merge history, or which instance computed it.
package gossip

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"riptide/internal/core"
)

// WireVersion is the digest/delta wire-format version. Decoders reject
// anything else rather than guessing at field semantics.
const WireVersion = 1

// NumBuckets is the fixed digest width. 64 buckets keep the digest near
// half a kilobyte of JSON while still isolating a single changed entry to
// 1/64th of the table on a post-restart resync. Changing it is a wire
// format change (digests of different widths never compare equal). The
// value is canonical in internal/core, which maintains the same bucket
// hashes incrementally at each commit (core.DigestBuckets).
const NumBuckets = core.DigestBuckets

// Entry is one learned destination on the wire. It is shared with the
// full-snapshot format (fleet.Entry is an alias), so a delta entry and a
// snapshot entry are the same thing and merge through the same policy.
type Entry struct {
	// Prefix is the destination prefix in CIDR text form ("203.0.113.7/32").
	Prefix string `json:"prefix"`
	// Window is the initcwnd the source agent had programmed.
	Window int `json:"window"`
	// Samples is the cumulative observation count behind the window.
	Samples uint64 `json:"samples"`
	// AgeNanos is how long before the snapshot was created the entry was
	// last refreshed, in nanoseconds. Ages are relative so snapshots are
	// meaningful across machines with unsynchronized clocks.
	AgeNanos int64 `json:"ageNanos"`
	// Quarantined marks a destination the source's safety governor
	// withdrew after a loss regression (snapshot wire v2); the receiving
	// agent must not warm-start it. Quarantine markers carry Window 0.
	Quarantined bool `json:"quarantined,omitempty"`
	// ModVersion is the source's table version at the entry's last commit
	// (snapshot wire v3). A peer passes the highest version it has seen as
	// `since` to receive only newer entries. Quarantine markers are
	// unversioned (0): they ride every delta.
	ModVersion uint64 `json:"modVersion,omitempty"`
}

// FromCore converts exported agent entries to wire entries. Serving paths
// never build this slice: AppendEntries writes the same JSON straight from
// the export.
func FromCore(entries []core.SnapshotEntry) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, se := range entries {
		out = append(out, Entry{
			Prefix:      se.Prefix.String(),
			Window:      se.Window,
			Samples:     se.Samples,
			AgeNanos:    int64(se.Age),
			Quarantined: se.Quarantined,
			ModVersion:  se.Version,
		})
	}
	return out
}

// ToCore converts wire entries to the form core.Agent.MergeSnapshot
// consumes. Entries whose prefix does not parse are passed through as
// invalid prefixes, which the merge counts as skipped-stale — one malformed
// entry never poisons the rest of a payload.
func ToCore(entries []Entry) []core.SnapshotEntry {
	return appendCore(make([]core.SnapshotEntry, 0, len(entries)), entries)
}

func appendCore(dst []core.SnapshotEntry, entries []Entry) []core.SnapshotEntry {
	for _, e := range entries {
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			p = netip.Prefix{} // invalid; MergeSnapshot skips it
		}
		dst = append(dst, e.toCore(p))
	}
	return dst
}

// toCore is the entry in merge form, under its parsed prefix.
func (e Entry) toCore(p netip.Prefix) core.SnapshotEntry {
	return core.SnapshotEntry{
		Prefix:      p,
		Window:      e.Window,
		Samples:     e.Samples,
		Age:         time.Duration(e.AgeNanos),
		Quarantined: e.Quarantined,
		Version:     e.ModVersion,
	}
}

// BucketOf maps a prefix (CIDR text form) to its digest bucket.
func BucketOf(prefix string) int {
	return core.DigestBucketOf(prefix)
}

// entryHash hashes an entry's durable content: the fields a peer would
// actually learn from it. Samples, age, and mod version are deliberately
// excluded — they change every round (sample counts grow, ages tick, the
// version counter resets across restarts) and including any of them would
// make two content-identical tables digest differently, defeating the
// converged-peers-pay-O(1) property. The implementation is canonical in
// internal/core so the agent's incremental accumulator and this full
// recompute can never drift apart.
func entryHash(e Entry) uint64 {
	return core.DigestEntryHash(e.Prefix, e.Window, e.Quarantined)
}

// Digest is the compact table summary exchanged before any entries move.
type Digest struct {
	// Version is the digest/delta wire-format version (WireVersion).
	Version int `json:"version"`
	// Source identifies the producing agent; informational.
	Source string `json:"source,omitempty"`
	// Instance identifies one run of the producing agent. A restart picks
	// a new instance, telling peers the table version counter reset and
	// their `since` cursors are meaningless (rung 3 of the ladder).
	Instance string `json:"instance,omitempty"`
	// TableVersion is the producer's table version when the digest was
	// computed. A peer whose digest matches fast-forwards its cursor here.
	TableVersion uint64 `json:"tableVersion"`
	// Count is the number of entries folded into the digest.
	Count int `json:"count"`
	// Buckets holds the NumBuckets XOR-folded entry hashes.
	Buckets []uint64 `json:"buckets"`
}

// Compute builds the digest of a table.
func Compute(entries []Entry, source, instance string, tableVersion uint64) Digest {
	buckets := make([]uint64, NumBuckets)
	for _, e := range entries {
		buckets[BucketOf(e.Prefix)] ^= entryHash(e)
	}
	return Digest{
		Version:      WireVersion,
		Source:       source,
		Instance:     instance,
		TableVersion: tableVersion,
		Count:        len(entries),
		Buckets:      buckets,
	}
}

// ContentEqual reports whether two digests summarize identical durable
// content. Table version and instance are ignored: a version can move
// without content changing (an entry cleared and re-learned identically),
// and content equality is what decides whether any bytes need to move.
func ContentEqual(a, b Digest) bool {
	if a.Count != b.Count || len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return false
		}
	}
	return true
}

// DiffBuckets returns the bucket indices whose hashes differ, in order.
// Digests of different widths (a future wire format) are wholly
// incomparable: every bucket is returned.
func DiffBuckets(a, b Digest) []int {
	if len(a.Buckets) != len(b.Buckets) {
		all := make([]int, len(b.Buckets))
		for i := range all {
			all[i] = i
		}
		return all
	}
	var diff []int
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			diff = append(diff, i)
		}
	}
	return diff
}

// FilterBuckets returns the entries falling in the given buckets, preserving
// order. A nil or empty bucket set selects nothing.
func FilterBuckets(entries []Entry, buckets []int) []Entry {
	if len(buckets) == 0 {
		return nil
	}
	want := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		want[b] = true
	}
	var out []Entry
	for _, e := range entries {
		if want[BucketOf(e.Prefix)] {
			out = append(out, e)
		}
	}
	return out
}

// EncodeDigest serializes a digest.
func EncodeDigest(d Digest) ([]byte, error) {
	if d.Version != WireVersion {
		return nil, fmt.Errorf("riptide/gossip: encode digest version %d, want %d", d.Version, WireVersion)
	}
	if len(d.Buckets) != NumBuckets {
		return nil, fmt.Errorf("riptide/gossip: encode digest with %d buckets, want %d", len(d.Buckets), NumBuckets)
	}
	return json.Marshal(d)
}

// DecodeDigest parses a wire digest, rejecting unknown versions and
// malformed bucket arrays.
func DecodeDigest(data []byte) (Digest, error) {
	var d Digest
	if err := json.Unmarshal(data, &d); err != nil {
		return Digest{}, fmt.Errorf("riptide/gossip: decode digest: %w", err)
	}
	if d.Version != WireVersion {
		return Digest{}, fmt.Errorf("riptide/gossip: digest version %d, want %d", d.Version, WireVersion)
	}
	if len(d.Buckets) != NumBuckets {
		return Digest{}, fmt.Errorf("riptide/gossip: digest has %d buckets, want %d", len(d.Buckets), NumBuckets)
	}
	if d.Count < 0 {
		return Digest{}, fmt.Errorf("riptide/gossip: digest count %d is negative", d.Count)
	}
	return d, nil
}

// Delta is the entry-bearing response: a versioned delta, a bucket resync,
// or a full table, distinguished by Full and the request that produced it.
type Delta struct {
	// Version is the digest/delta wire-format version (WireVersion).
	Version int `json:"version"`
	// Source identifies the producing agent; informational.
	Source string `json:"source,omitempty"`
	// Instance identifies one run of the producing agent (see Digest).
	Instance string `json:"instance,omitempty"`
	// TableVersion is the table version the payload is current through;
	// the receiver's next `since` cursor.
	TableVersion uint64 `json:"tableVersion"`
	// Since echoes the request cursor a versioned delta was computed
	// against; 0 for full tables and bucket resyncs.
	Since uint64 `json:"since,omitempty"`
	// Full marks a complete table (the request's cursor was unusable, the
	// instance changed, or the peer asked for everything).
	Full bool `json:"full,omitempty"`
	// Entries holds the changed (or requested, or complete) entries plus
	// every current quarantine marker, sorted by prefix.
	Entries []Entry `json:"entries"`
}

// EncodeDelta serializes a delta.
func EncodeDelta(d Delta) ([]byte, error) {
	if d.Version != WireVersion {
		return nil, fmt.Errorf("riptide/gossip: encode delta version %d, want %d", d.Version, WireVersion)
	}
	return json.Marshal(d)
}

// DecodeDelta parses a wire delta, rejecting unknown versions. Messages in
// the form this package writes take the scanner in codec.go; anything else
// json.Unmarshal accepts decodes through it, exactly as before.
func DecodeDelta(data []byte) (Delta, error) {
	d, _, err := decodeDelta(data, nil)
	return d, err
}

// DecodeDeltaAppend is DecodeDelta for a receiver that merges what it gets.
// The entries of a versioned delta or a bucket resync are decoded straight
// to merge form and appended to dst — what ToCore(d.Entries) would hold — and
// d.Entries stays nil; dst is grown once, to the body's size, never from
// nothing by append. A full table comes back in d.Entries as DecodeDelta
// returns it (its receiver recomputes the digest from the text) and dst is
// returned as given, which it also is on error. scanned is false when the
// body was not in this package's canonical form and took encoding/json.
func DecodeDeltaAppend(dst []core.SnapshotEntry, data []byte) (d Delta, entries []core.SnapshotEntry, scanned bool, err error) {
	d, scanned, err = decodeDelta(data, &dst)
	return d, dst, scanned, err
}

// decodeDelta decodes into d.Entries, or with merge given into *merge as
// DecodeDeltaAppend describes.
func decodeDelta(data []byte, merge *[]core.SnapshotEntry) (d Delta, scanned bool, err error) {
	var held int
	if merge != nil {
		held = len(*merge)
	}
	if d, scanned = scanDelta(data, merge); !scanned {
		d = Delta{}
		if err = json.Unmarshal(data, &d); err != nil {
			err = fmt.Errorf("riptide/gossip: decode delta: %w", err)
		}
	}
	if err == nil && d.Version != WireVersion {
		err = fmt.Errorf("riptide/gossip: delta version %d, want %d", d.Version, WireVersion)
	}
	if merge != nil && (err != nil || !scanned) {
		*merge = (*merge)[:held] // drop what a declined or refused scan had appended
	}
	if err != nil {
		return Delta{}, scanned, err
	}
	if merge != nil && !scanned && !d.Full {
		*merge, d.Entries = appendCore(*merge, d.Entries), nil
	}
	return d, scanned, nil
}

// TableDigest returns an agent's current digest from its incrementally
// maintained bucket hashes — O(1) table work, no export scan (the agent
// XOR-patches the affected bucket at every committing mutation; see
// core.Agent.ContentDigest). The table version is read before the buckets,
// so a commit racing the read can only make the version conservative (the
// affected entry is re-sent, never skipped). TestIncrementalDigestMatchesRescan
// pins this byte-identical to the full rescan
// Compute(FromCore(ExportDelta(0))) across every commit kind.
func TableDigest(a *core.Agent, source, instance string) Digest {
	version, count, buckets := a.ContentDigest()
	return Digest{
		Version:      WireVersion,
		Source:       source,
		Instance:     instance,
		TableVersion: version,
		Count:        count,
		Buckets:      buckets,
	}
}

// TableDelta exports an agent's entries committed after `since` as a wire
// delta. since 0 exports the full table with Full set — the same payload a
// first-contact peer or an unusable cursor gets.
func TableDelta(a *core.Agent, source, instance string, since uint64) Delta {
	if since > a.TableVersion() {
		// The cursor is from a previous life of this agent (or a peer
		// confusion); it cannot be interpreted. Send everything.
		since = 0
	}
	entries, version := a.ExportDelta(since)
	return Delta{
		Version:      WireVersion,
		Source:       source,
		Instance:     instance,
		TableVersion: version,
		Since:        since,
		Full:         since == 0,
		Entries:      FromCore(entries),
	}
}

// TableBuckets exports the full-table entries falling in the given buckets
// as a wire delta for a post-restart resync. Quarantine markers are content
// like any entry: they bucket by prefix, so a divergent marker shows up in
// its bucket's diff and is fetched with it.
func TableBuckets(a *core.Agent, source, instance string, buckets []int) Delta {
	entries, version := a.ExportDelta(0)
	wire := FromCore(entries)
	kept := FilterBuckets(wire, buckets)
	return Delta{
		Version:      WireVersion,
		Source:       source,
		Instance:     instance,
		TableVersion: version,
		Entries:      kept,
	}
}
