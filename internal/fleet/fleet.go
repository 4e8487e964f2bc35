// Package fleet lets riptide agents share learned initcwnd state: a
// versioned JSON snapshot format, atomic on-disk persistence for restart
// warm-starts, and an HTTP peer-exchange layer (serve your snapshot, pull
// your peers').
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
	"time"

	"riptide/internal/core"
	"riptide/internal/gossip"
)

// Version is the current snapshot wire-format version. Version 2 added
// quarantine markers (Entry.Quarantined); version 3 added gossip versioning
// (Snapshot.TableVersion, Snapshot.Instance, Entry.ModVersion) so a full
// snapshot can seed a delta cursor. Decoders accept v1 and v2 snapshots —
// every older field keeps its meaning, absent markers mean the source
// predates the governor, and absent versions mean the source cannot serve
// deltas — and reject anything newer rather than guessing at field
// semantics.
const Version = 3

// minVersion is the oldest wire format Decode still accepts.
const minVersion = 1

// Entry is one learned destination on the wire. It is the same entry the
// gossip digest/delta formats carry, so full snapshots and deltas merge
// through identical code paths.
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
	// is current through (wire v3); a gossip-aware puller seeds its delta
	// cursor from it so the round after a full pull is already a delta.
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
// the entry array written by the encoder the delta bodies use.
func appendSnapshot(dst []byte, s Snapshot, entries []core.SnapshotEntry) ([]byte, error) {
	s.Entries = nil
	head, err := Encode(s)
	if err != nil {
		return dst, err
	}
	return gossip.SpliceEntries(dst, head, entries), nil
}

// Decode parses a wire snapshot, rejecting unknown versions.
func Decode(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("riptide/fleet: decode snapshot: %w", err)
	}
	if s.Version < minVersion || s.Version > Version {
		return Snapshot{}, fmt.Errorf("riptide/fleet: snapshot version %d, want %d..%d", s.Version, minVersion, Version)
	}
	return s, nil
}
