// Package gossip implements the wire of fleet sharing: the shared wire
// Entry (the same entry the full-snapshot format uses — internal/fleet
// aliases it), a versioned delta format so peers transfer only what changed,
// and the two rules every party to the sync applies — when a cursor can be
// answered with a delta (Cursor.Usable) and how a table's state is named for
// HTTP revalidation (ETag).
//
// A puller makes one conditional request per peer per round:
// GET /fleet/delta?since=V&instance=I with If-None-Match. The server answers
// 304 while the ETag still names its table, a delta when the cursor is
// usable, and the full table otherwise. docs/gossip.md has the details.
package gossip

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"riptide/internal/core"
)

// WireVersion is the delta wire-format version. Decoders reject anything
// else rather than guessing at field semantics.
const WireVersion = 1

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

// digestBuckets is the width of the retired content digest.
const digestBuckets = 64

// Digest is the retired content digest, a table summary of 64 XOR-folded
// bucket hashes that pullers fetched before any entries moved.
//
// Deprecated: nothing serves or reads digests; the type stays only for
// bench/rig.go.
type Digest struct {
	Version      int      `json:"version"`
	Source       string   `json:"source,omitempty"`
	Instance     string   `json:"instance,omitempty"`
	TableVersion uint64   `json:"tableVersion"`
	Count        int      `json:"count"`
	Buckets      []uint64 `json:"buckets"`
}

// EncodeDigest serializes a digest.
//
// Deprecated: it stays only for FuzzDecodeDigest's round trip while
// bench/rig.go still names DecodeDigest.
func EncodeDigest(d Digest) ([]byte, error) {
	if d.Version != WireVersion {
		return nil, fmt.Errorf("riptide/gossip: encode digest version %d, want %d", d.Version, WireVersion)
	}
	if len(d.Buckets) != digestBuckets {
		return nil, fmt.Errorf("riptide/gossip: encode digest with %d buckets, want %d", len(d.Buckets), digestBuckets)
	}
	return json.Marshal(d)
}

// DecodeDigest parses a wire digest, rejecting unknown versions and
// malformed bucket arrays.
//
// Deprecated: nothing serves digests; it stays only for bench/rig.go.
func DecodeDigest(data []byte) (Digest, error) {
	var d Digest
	if err := json.Unmarshal(data, &d); err != nil {
		return Digest{}, fmt.Errorf("riptide/gossip: decode digest: %w", err)
	}
	if d.Version != WireVersion {
		return Digest{}, fmt.Errorf("riptide/gossip: digest version %d, want %d", d.Version, WireVersion)
	}
	if len(d.Buckets) != digestBuckets {
		return Digest{}, fmt.Errorf("riptide/gossip: digest has %d buckets, want %d", len(d.Buckets), digestBuckets)
	}
	if d.Count < 0 {
		return Digest{}, fmt.Errorf("riptide/gossip: digest count %d is negative", d.Count)
	}
	return d, nil
}

// Cursor is a puller's sync position against one peer: the peer instance
// (boot) it was taken on and the table version it is current through.
type Cursor struct {
	Instance string
	Version  uint64
}

// Usable reports whether a table of the given instance, now at version, can
// answer a delta since c. A cursor from another boot counts another table,
// and one ahead of the table's version cannot have come from it; either is
// answered with the full table. So is the zero cursor (first contact).
func (c Cursor) Usable(instance string, version uint64) bool {
	return c.Version > 0 && c.Instance != "" && c.Instance == instance && c.Version <= version
}

// ETag renders a table's content token (core.Agent.ContentToken) as the
// strong entity tag of the delta endpoint: "<instance>/<version>", plus a
// third segment for a non-zero quarantine-marker fold, so governor
// transitions that move no table version still invalidate. A peer that
// presents it as If-None-Match is answered 304 while it is current.
func ETag(instance string, version, markers uint64) string {
	e := `"` + instance + `/` + strconv.FormatUint(version, 10)
	if markers != 0 {
		e += `/` + strconv.FormatUint(markers, 16)
	}
	return e + `"`
}

// Delta is the entry-bearing response: a versioned delta or a full table,
// distinguished by Full.
type Delta struct {
	// Version is the delta wire-format version (WireVersion).
	Version int `json:"version"`
	// Source identifies the producing agent; informational.
	Source string `json:"source,omitempty"`
	// Instance identifies one run of the producing agent. A restart picks a
	// new instance, telling peers the table version counter reset and their
	// cursors are meaningless.
	Instance string `json:"instance,omitempty"`
	// TableVersion is the table version the payload is current through;
	// the receiver's next `since` cursor.
	TableVersion uint64 `json:"tableVersion"`
	// Since echoes the request cursor a versioned delta was computed
	// against; 0 for full tables.
	Since uint64 `json:"since,omitempty"`
	// Full marks a complete table (the request carried no cursor, or one
	// the table could not use).
	Full bool `json:"full,omitempty"`
	// Entries holds the changed (or all) entries plus every current
	// quarantine marker, sorted by prefix.
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

// DecodeDeltaAppend is DecodeDelta for a receiver that merges what it gets:
// the entries are decoded straight to merge form and appended to dst — what
// ToCore(d.Entries) would hold — and d.Entries stays nil; dst is grown once,
// to the body's size, never from nothing by append. On error dst is returned
// as given. scanned is false when the body was not in this package's
// canonical form and took encoding/json.
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
	if merge != nil && !scanned {
		*merge, d.Entries = appendCore(*merge, d.Entries), nil
	}
	return d, scanned, nil
}

// TableDelta exports an agent's entries committed after the cursor as a wire
// delta, or its whole table with Full set when the cursor is not usable
// against instance (Cursor.Usable) — the answer the delta endpoint gives.
func TableDelta(a *core.Agent, source, instance string, cursor Cursor) Delta {
	var since uint64
	if cursor.Usable(instance, a.TableVersion()) {
		since = cursor.Version
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
