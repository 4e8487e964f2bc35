// Package fleet lets riptide agents share learned initcwnd state: a
// versioned JSON snapshot format, atomic on-disk persistence for restart
// warm-starts, and an HTTP peer-exchange layer (serve your table's deltas,
// pull your peers').
//
// Sharing is strictly advisory. A snapshot entry carries a relative age, not
// a timestamp, so it survives machines with different wall clocks and the
// simulator's virtual time; the receiving agent re-validates every entry
// against its own merge policy (core.MergePolicy), and fresh local
// observations always beat remote hints. A peer being down, slow, or
// malformed degrades to local-only operation — the agent's own poll loop
// never waits on fleet machinery.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"riptide/internal/core"
	"riptide/internal/gossip"
)

// Version is the snapshot wire-format version. Version 2 added quarantine
// markers (Entry.Quarantined); version 3 added table versioning
// (Snapshot.TableVersion, Snapshot.Instance, Entry.ModVersion). Decode
// accepts version 3 only: every build since the fleet gained deltas writes
// it, and a daemon whose persisted file fails to decode starts cold.
const Version = 3

// Entry is one learned destination on the wire. It is the same entry the
// gossip delta format carries, so full snapshots and deltas merge through
// identical code paths.
type Entry = gossip.Entry

// Snapshot is the versioned wire format exchanged between agents and
// persisted to disk.
type Snapshot struct {
	// Version is the wire-format version; see the package constant.
	Version int `json:"version"`
	// Source identifies the producing agent (hostname, sim node name);
	// informational.
	Source string `json:"source,omitempty"`
	// Instance identifies one run of the producing agent (wire v3). A
	// restart picks a new instance, invalidating peers' delta cursors.
	// Empty on persisted snapshots: a table version is meaningless across
	// the producer's own restart.
	Instance string `json:"instance,omitempty"`
	// TableVersion is the producer's monotone table version the snapshot
	// is current through (wire v3).
	TableVersion uint64 `json:"tableVersion,omitempty"`
	// CreatedUnixNano is the producer's wall-clock time at export. It is
	// used only by the producer itself (load-and-age across a restart);
	// consumers on other machines must rely on the per-entry ages.
	CreatedUnixNano int64 `json:"createdUnixNano"`
	// Entries is the learned table, sorted by prefix.
	Entries []Entry `json:"entries"`
}

// FromAgent exports the agent's learned table as a wire snapshot.
func FromAgent(a *core.Agent, source string, created time.Time) Snapshot {
	exported, version := a.ExportDelta(0)
	return Snapshot{
		Version:         Version,
		Source:          source,
		TableVersion:    version,
		CreatedUnixNano: created.UnixNano(),
		Entries:         gossip.FromCore(exported),
	}
}

// CoreEntries converts the snapshot to the form core.Agent.MergeSnapshot
// consumes. Entries whose prefix does not parse are passed through as
// invalid prefixes, which the merge counts as skipped-stale — one malformed
// entry never poisons the rest of a snapshot.
func (s Snapshot) CoreEntries() []core.SnapshotEntry {
	return gossip.ToCore(s.Entries)
}

// AgedBy returns a copy of the snapshot with d added to every entry's age.
// It implements load-and-age: a snapshot written before a restart is aged by
// the downtime, so the merge policy judges its entries by how stale they
// really are, not how stale they were at save time. Non-positive d returns
// the snapshot unchanged.
func (s Snapshot) AgedBy(d time.Duration) Snapshot {
	if d <= 0 {
		return s
	}
	entries := make([]Entry, len(s.Entries))
	copy(entries, s.Entries)
	for i := range entries {
		entries[i].AgeNanos += int64(d)
	}
	s.Entries = entries
	return s
}

// Encode serializes the snapshot as JSON.
func Encode(s Snapshot) ([]byte, error) {
	if s.Version != Version {
		return nil, fmt.Errorf("riptide/fleet: encode version %d, want %d", s.Version, Version)
	}
	return json.Marshal(s)
}

// appendSnapshot appends the wire form of s carrying entries in place of
// s.Entries: exactly Encode(s) with s.Entries = gossip.FromCore(entries),
// the entry array written straight from the export.
func appendSnapshot(dst []byte, s Snapshot, entries []core.SnapshotEntry) ([]byte, error) {
	s.Entries = nil
	head, err := Encode(s)
	if err != nil {
		return dst, err
	}
	// head ends in the null of the nil entries field, and its brace.
	const tail = "null}"
	dst = append(dst, head[:len(head)-len(tail)]...)
	dst = appendEntries(dst, entries)
	return append(dst, '}'), nil
}

// appendEntries appends the JSON array json.Marshal renders for
// gossip.FromCore(entries) — `null` for a nil slice — without building the
// wire entries or a string per prefix. The snapshot is the table's one JSON
// form (the delta wire is binary), and it holds every entry, so it is worth
// writing without reflection.
func appendEntries(dst []byte, entries []core.SnapshotEntry) []byte {
	if entries == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"prefix":"`...)
		if e.Prefix.IsValid() {
			// CIDR text is digits, hex letters, '.', ':' and '/': nothing
			// JSON or HTML escaping touches.
			dst = e.Prefix.AppendTo(dst)
		} else {
			dst = append(dst, netip.Prefix{}.String()...)
		}
		dst = append(dst, `","window":`...)
		dst = strconv.AppendInt(dst, int64(e.Window), 10)
		dst = append(dst, `,"samples":`...)
		dst = strconv.AppendUint(dst, e.Samples, 10)
		dst = append(dst, `,"ageNanos":`...)
		dst = strconv.AppendInt(dst, int64(e.Age), 10)
		if e.Quarantined {
			dst = append(dst, `,"quarantined":true`...)
		}
		if e.Version != 0 {
			dst = append(dst, `,"modVersion":`...)
			dst = strconv.AppendUint(dst, e.Version, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// Decode parses a wire snapshot, rejecting every version but the current
// one with an error that names it.
func Decode(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("riptide/fleet: decode snapshot: %w", err)
	}
	if s.Version != Version {
		return Snapshot{}, fmt.Errorf("riptide/fleet: snapshot version %d, want %d", s.Version, Version)
	}
	return s, nil
}
