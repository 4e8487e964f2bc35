package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"
)

// This file implements the agent side of fleet sharing (internal/fleet):
// exporting the learned table as a snapshot other agents can seed from, and
// merging a remote snapshot into this agent's state.
//
// Merge follows the same lock discipline as Tick: the plan is computed with
// no backend I/O under the table lock, routes are programmed outside any lock
// (batched when the backend supports it), and each accepted entry commits
// under the table lock only after its route actually installed.
// tickMu serializes the whole merge against Tick and Close, so a merge can
// never interleave with a poll round's stages.
//
// The merge policy is deliberately conservative, per the paper's fallback
// philosophy: remote entries only seed prefixes this agent has not observed
// itself (fresh local observations always win), remote windows are
// discounted toward CMin as they age, and entries older than MaxAge are
// rejected outright. A merged entry keeps a shortened TTL — the remaining
// life it had at its source — so an unconfirmed hint expires instead of
// pinning a stale aggressive window.

// SnapshotEntry is one learned destination in transit between agents: the
// window, how much evidence backs it, and how stale it is. Ages are relative
// durations rather than timestamps so snapshots survive machines with
// different clocks (and the simulator's virtual time).
type SnapshotEntry struct {
	// Prefix is the destination the entry covers.
	Prefix netip.Prefix
	// Window is the initcwnd the source agent had programmed.
	Window int
	// Samples is the cumulative observation count behind the window.
	Samples uint64
	// Age is how long before export the entry was last refreshed (local
	// refresh time plus any age it carried when the source itself merged
	// it from a peer).
	Age time.Duration
	// Quarantined marks a destination the source's safety governor has
	// withdrawn after a loss regression. Quarantine markers carry no
	// window (Window is 0); peers must not warm-start the prefix.
	Quarantined bool
	// Version is the source agent's table version at the entry's last
	// commit. Peers that track the source's table version can ask for
	// "entries newer than V" (ExportDelta) instead of the whole table.
	// Quarantine markers are unversioned (Version 0): they ride along on
	// every delta because the governor's state is not part of the
	// versioned entry table.
	Version uint64
}

// MergePolicy tunes MergeSnapshot. The zero value gives TTL-derived
// defaults.
type MergePolicy struct {
	// MaxAge rejects remote entries older than this. 0 means the agent's
	// TTL: an entry that old would have expired locally anyway.
	MaxAge time.Duration
	// StalenessHalfLife controls the discount applied to remote windows:
	// the excess over CMin halves every half-life of age, so a stale hint
	// jump-starts conservatively rather than at its source's full
	// confidence. 0 means MaxAge/2; negative disables discounting.
	StalenessHalfLife time.Duration
	// MinSamples rejects remote entries backed by fewer observations.
	// 0 means 1.
	MinSamples uint64
}

func (p MergePolicy) withDefaults(ttl time.Duration) (MergePolicy, error) {
	if p.MaxAge == 0 {
		p.MaxAge = ttl
	}
	if p.MaxAge < 0 {
		return p, fmt.Errorf("riptide/core: MergePolicy.MaxAge %v must be positive", p.MaxAge)
	}
	if p.StalenessHalfLife == 0 {
		p.StalenessHalfLife = p.MaxAge / 2
	}
	if p.MinSamples == 0 {
		p.MinSamples = 1
	}
	return p, nil
}

// MergeStats reports what one MergeSnapshot call did.
type MergeStats struct {
	// Merged entries were accepted and their routes programmed.
	Merged int `json:"merged"`
	// SkippedLocal entries were rejected because this agent already has a
	// local entry for the prefix.
	SkippedLocal int `json:"skippedLocal"`
	// SkippedStale entries were rejected by MaxAge, MinSamples, an
	// invalid prefix/window, or no remaining TTL.
	SkippedStale int `json:"skippedStale"`
	// SkippedQuarantined entries were rejected because the remote source
	// quarantined the prefix, or because this agent's own governor vetoed
	// seeding it.
	SkippedQuarantined int `json:"skippedQuarantined"`
	// Errors counts accepted entries whose route programming failed; they
	// were not committed.
	Errors int `json:"errors"`
}

// TableVersion returns the agent's monotone table version: it advances on
// every commit that changes exported content (route programs, fleet merges,
// withdrawals) and holds still across refresh-only rounds. It is the `since`
// cursor peers pass to ExportDelta.
func (a *Agent) TableVersion() uint64 {
	return a.tableVer.Load()
}

// ContentToken returns a cheap revalidation token for fleet responses: the
// table version plus an order-independent XOR fold of the current quarantine
// markers' prefix hashes. A peer's view of this agent's export is current
// exactly while the token is unchanged — the version covers every
// entry-table commit, the marker fold covers governor transitions that move
// no version (a quarantine lapsing into probing). Cost is O(markers), zero
// for agents without a governor.
func (a *Agent) ContentToken() (version uint64, markers uint64) {
	version = a.tableVer.Load()
	if a.cfg.Guard == nil {
		return version, 0
	}
	quarantines := a.cfg.Guard.Quarantines()
	a.tab.mu.Lock()
	defer a.tab.mu.Unlock()
	for _, q := range quarantines {
		key := q.Prefix.Masked()
		if st := a.tab.states.get(key); st == nil || !st.installed {
			// A prefix with an installed entry is not exported as a
			// marker: the overlap means the quarantine already recovered.
			markers ^= prefixHash(key)
		}
	}
	return version, markers
}

// ExportDelta returns the entries committed after table version `since`,
// plus every current quarantine marker (markers are unversioned and cheap),
// sorted by prefix, together with the table version the delta is current
// through. since 0 returns the full table. The version is read before the
// walk, so an entry committed mid-walk may be included yet not covered by
// the returned version — the peer simply re-receives it on its next delta;
// nothing is ever skipped. Ages are measured against the agent's clock; an
// entry that was itself merged from a peer exports its local age plus the
// age it carried when merged, so staleness accumulates across hops instead
// of resetting.
func (a *Agent) ExportDelta(since uint64) ([]SnapshotEntry, uint64) {
	return a.ExportDeltaAppend(nil, since)
}

// ExportDeltaAppend is ExportDelta appending into buf[:0] (buf may be nil),
// returning the extended slice — never nil. Servers that answer deltas in a
// loop pass a pooled buffer so steady-state serves do no append regrowth.
//
// The cost is O(delta): the export log is in version order, so the entries
// past the cursor are the live refs of its tail, found by binary search.
func (a *Agent) ExportDeltaAppend(buf []SnapshotEntry, since uint64) ([]SnapshotEntry, uint64) {
	version := a.tableVer.Load()
	now := a.cfg.Clock()
	out := buf[:0]
	if out == nil {
		out = []SnapshotEntry{}
	}
	tb := &a.tab
	tb.mu.Lock()
	// Versions start at 1, so since 0 walks the whole log.
	tail := tb.log[tb.logAfter(since):]
	out = slices.Grow(out, min(len(tail), tb.installed))
	for i := range tail {
		r := &tail[i]
		if !r.live() {
			continue
		}
		st := r.st
		a.materializeLocked(st)
		age := now - st.updated
		if age < 0 {
			age = 0
		}
		out = append(out, SnapshotEntry{
			Prefix:  st.key,
			Window:  int(st.window),
			Samples: st.samples,
			Age:     age + st.mergedAge,
			Version: st.version,
		})
	}
	tb.mu.Unlock()
	if a.cfg.Guard != nil {
		// Quarantine markers ride along so peers do not warm-start a
		// route this agent just withdrew for safety. A prefix with a
		// live entry is not marked — the governor only quarantines
		// after its route was cleared, so overlap means the quarantine
		// already recovered.
		quarantines := a.cfg.Guard.Quarantines()
		tb.mu.Lock()
		for _, q := range quarantines {
			key := q.Prefix.Masked()
			if st := tb.states.get(key); st != nil && st.installed {
				continue
			}
			out = append(out, SnapshotEntry{
				Prefix:      key,
				Age:         max(q.Age, 0),
				Quarantined: true,
			})
		}
		tb.mu.Unlock()
	}
	sortByPrefixPooled(out, func(e *SnapshotEntry) netip.Prefix { return e.Prefix })
	return out, version
}

// discountWindow ages a remote window toward the agent's CMin: the excess
// over CMin halves every half-life. A non-positive half-life disables the
// discount.
func (a *Agent) discountWindow(window int, age, halfLife time.Duration) int {
	if halfLife <= 0 || age <= 0 {
		return a.clamp(float64(window))
	}
	excess := float64(window - a.cfg.CMin)
	if excess <= 0 {
		return a.clamp(float64(window))
	}
	decay := math.Exp2(-float64(age) / float64(halfLife))
	return a.clamp(float64(a.cfg.CMin) + excess*decay)
}

// mergeOp is one planned snapshot seed.
type mergeOp struct {
	dst netip.Prefix
	// st is the destination's uninstalled state, nil when it has none: the
	// plan's one index lookup, carried to the commit as programOp.st is.
	st *destState
	// src indexes the seeding entry in the merged slice, which holds its
	// samples and age (a slice of 2^31 entries would not fit in memory).
	src    int32
	window int32
}

// MergeSnapshot folds remote snapshot entries into the agent: entries for
// unknown prefixes are staleness-discounted, programmed as routes, and
// recorded with the remaining TTL they had at their source. Prefixes this
// agent has local entries for are never touched — fresh local observations
// always win, no matter how confident the remote entry looks. The first
// route-programming error is returned after attempting all entries; entries
// whose programming failed are not committed.
func (a *Agent) MergeSnapshot(entries []SnapshotEntry, policy MergePolicy) (MergeStats, error) {
	var stats MergeStats
	policy, err := policy.withDefaults(a.cfg.TTL)
	if err != nil {
		return stats, err
	}

	a.tickMu.Lock()
	defer a.tickMu.Unlock()

	now := a.cfg.Clock()

	// Stage 1: plan. tickMu keeps Tick and Close out, so the existence
	// checks stay valid until the commit stage; neither backend I/O nor the
	// governor runs while the table lock is held.
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return stats, ErrClosed
	}
	a.mu.Unlock()
	plan := a.mergePlan.Take(len(entries))
	tb := &a.tab
	tb.mu.Lock()
	for i := range entries {
		se := &entries[i]
		if se.Quarantined {
			// The source withdrew this destination after a loss
			// regression; never warm-start it from a snapshot.
			stats.SkippedQuarantined++
			continue
		}
		if !se.Prefix.IsValid() || se.Window < 1 || se.Age < 0 {
			stats.SkippedStale++
			continue
		}
		if se.Age > policy.MaxAge || se.Samples < policy.MinSamples {
			stats.SkippedStale++
			continue
		}
		if se.Age >= a.cfg.TTL {
			stats.SkippedStale++
			continue
		}
		key := se.Prefix.Masked()
		st := tb.states.get(key)
		if st != nil && st.installed {
			stats.SkippedLocal++
			continue
		}
		plan = append(plan, mergeOp{
			dst:    key,
			st:     st,
			src:    int32(i),
			window: int32(a.discountWindow(se.Window, se.Age, policy.StalenessHalfLife)),
		})
	}
	tb.mu.Unlock()
	if a.cfg.Guard != nil {
		// A quarantined destination has no local entry (its route was
		// cleared), so the local-entry check above cannot protect it; ask
		// the governor before seeding.
		kept := plan[:0]
		for _, op := range plan {
			capped, action := a.cfg.Guard.Review(op.dst, int(op.window))
			switch action {
			case GuardVeto, GuardQuarantine:
				stats.SkippedQuarantined++
				continue
			case GuardCap:
				if capped < int(op.window) {
					op.window = int32(max(capped, a.cfg.CMin))
				}
			}
			kept = append(kept, op)
		}
		plan = kept
	}

	// Program order is prefix order. Two remote entries for one prefix (e.g.
	// a snapshot merged from several peers) land next to each other, in
	// payload order: the fresher one is kept, the earlier one on a tie.
	sortByPrefix(plan, &a.sortKeys, func(op *mergeOp) netip.Prefix { return op.dst })
	n := 0
	for _, op := range plan {
		if n > 0 && plan[n-1].dst == op.dst {
			if entries[op.src].Age < entries[plan[n-1].src].Age {
				plan[n-1] = op
			}
			continue
		}
		plan[n] = op
		n++
	}
	plan = plan[:n]

	// Stage 2: program routes outside the locks.
	ops := a.mergeOps.Take(len(plan))
	for _, op := range plan {
		ops = append(ops, RouteOp{Prefix: op.dst, Window: int(op.window)})
	}
	errs := a.applyOps(ops)
	a.mergeOps.Keep(ops, len(ops))

	// Stage 3: commit under the table lock, only what actually installed.
	// tickMu is held, so no Tick interleaved: the planned absence of a local
	// entry still holds, and so does every planned state pointer (only
	// tickMu holders delete states).
	var firstErr error
	tb.mu.Lock()
	// A warm start seeds a whole table at once: make room in one step.
	if tb.states.size() == 0 {
		v4 := 0
		for _, op := range plan {
			if _, ok := packPrefix(op.dst); ok {
				v4++
			}
		}
		tb.states = makeStateIndex(v4, len(plan)-v4)
	}
	tb.deadlines = slices.Grow(tb.deadlines, len(plan))
	tb.log = slices.Grow(tb.log, len(plan))
	// The commit's versions come from a local counter, published with one
	// add: tickMu orders every writer of the version.
	base := a.tableVer.Load()
	ver := base
	for i, op := range plan {
		if errs != nil && errs[i] != nil {
			stats.Errors++
			if firstErr == nil {
				firstErr = fmt.Errorf("merge initcwnd %v=%d: %w", op.dst, op.window, errs[i])
			}
			continue
		}
		st := op.st
		if st == nil {
			st = tb.newDestState(op.dst)
		}
		wasInstalled := st.installed
		if !wasInstalled {
			st.installed = true
			tb.installed++
		}
		ver++
		se := &entries[op.src]
		st.entry = entry{
			window:    op.window,
			expires:   now + a.cfg.TTL - se.Age, // the TTL it had left at its source
			updated:   now,
			samples:   se.Samples,
			mergedAge: se.Age,
			version:   ver,
		}
		tb.logStamp(st, wasInstalled)
		tb.noteExpiry(st)
		// Seed history so the first local observation blends with the
		// fleet's estimate instead of starting from nothing.
		a.smooth(st, float64(op.window))
		stats.Merged++
	}
	a.tableVer.Add(ver - base)
	tb.peak = max(tb.peak, tb.states.size())
	tb.mu.Unlock()
	// The kept array must not pin states a later round deletes.
	clear(plan[:cap(plan)])
	a.mergePlan.Keep(plan, len(entries))

	a.countLocked(func(s *Stats) {
		s.RoutesSet += uint64(stats.Merged)
		s.RouteErrors += uint64(stats.Errors)
		s.FleetMerged += uint64(stats.Merged)
		s.FleetSkippedLocal += uint64(stats.SkippedLocal)
		s.FleetSkippedStale += uint64(stats.SkippedStale)
		s.FleetSkippedQuarantined += uint64(stats.SkippedQuarantined)
	})
	a.cfg.Metrics.Counter("riptide_fleet_merged").Add(uint64(stats.Merged))
	a.cfg.Metrics.Counter("riptide_fleet_skipped_local").Add(uint64(stats.SkippedLocal))
	a.cfg.Metrics.Counter("riptide_fleet_skipped_stale").Add(uint64(stats.SkippedStale))
	a.cfg.Metrics.Counter("riptide_fleet_skipped_quarantined").Add(uint64(stats.SkippedQuarantined))
	return stats, firstErr
}
