package core

import (
	"net/netip"
	"reflect"
	"testing"
)

// checkTableInvariants holds a's table to what every tick and merge leaves
// behind, whichever path planned it:
//   - the index files every state under the state's own key, and none is
//     dead; installed counts the installed ones;
//   - the export log holds exactly one live ref per installed state, and
//     every live ref points at an indexed, installed state (checkLogLocked);
//   - the deadlines form a heap in due order. An item is live while its due
//     is its state's and the state is not dead (superseded and dead items stay
//     queued until they pop): a live item's state is indexed, every indexed
//     state with a due has exactly one live item, and every installed state
//     the grouping does not cover (invariant iii) has one, due no later than
//     its expiry, as does every uninstalled state outside the grouping, due
//     no later than the horizon at which it is deleted;
//   - every slot on the spare list is a deleted state's, listed once, and no
//     holder names a free one (the first ready of them): no deadline item,
//     no entry of the grouping, the active or dirty list or the plan, and no
//     sample-cache record. (An export-log ref may, and is stale: a live one
//     names an indexed state, checkLogLocked.)
func checkTableInvariants(t *testing.T, a *Agent, label string) {
	t.Helper()
	tb := &a.tab
	tb.mu.Lock()
	defer tb.mu.Unlock()
	installed := 0
	tb.states.each(func(p netip.Prefix, st *destState) {
		if st.key != p {
			t.Errorf("%s: state indexed under %v carries key %v", label, p, st.key)
		}
		if st.dead {
			t.Errorf("%s: dead state indexed under %v", label, p)
		}
		if st.installed {
			installed++
		}
	})
	if installed != tb.installed {
		t.Errorf("%s: %d states installed, counted %d", label, installed, tb.installed)
	}

	checkLogLocked(t, tb, label)

	items := map[*destState]int{}
	for i, it := range tb.deadlines {
		if p := (i - 1) / 2; i > 0 && tb.deadlines[p].due > it.due {
			t.Errorf("%s: deadline %d (due %v) sits under one due %v", label, i, it.due, tb.deadlines[p].due)
		}
		if it.st.dead || it.due != it.st.due {
			continue
		}
		items[it.st]++
		if tb.states.get(it.st.key) != it.st {
			t.Errorf("%s: live deadline for %v, whose state is not indexed", label, it.st.key)
		}
	}

	tb.states.each(func(p netip.Prefix, st *destState) {
		if st.due != 0 && items[st] != 1 {
			t.Errorf("%s: %v is due at %v with %d live deadlines", label, p, st.due, items[st])
		}
		covered := st.hasLast && !st.held && tb.grouped(st)
		if st.installed && !covered && (st.due == 0 || st.due > st.expires) {
			t.Errorf("%s: uncovered %v (expires %v) is queued at %v", label, p, st.expires, st.due)
		}
		if !st.installed && !tb.grouped(st) && (st.due == 0 || st.due > st.expires) {
			t.Errorf("%s: unobserved uninstalled %v (horizon %v) is queued at %v", label, p, st.expires, st.due)
		}
	})

	free, listed := map[*destState]bool{}, map[*destState]bool{}
	for i, st := range tb.spare {
		if !st.dead || listed[st] {
			t.Errorf("%s: spare slot %d (%v) is live or listed twice", label, i, st.key)
		}
		listed[st] = true
		free[st] = i < tb.ready
	}
	names := func(holder string, st *destState) {
		if free[st] {
			t.Errorf("%s: %s names a free slot", label, holder)
		}
	}
	for _, it := range tb.deadlines {
		names("a deadline item", it.st)
	}
	for _, st := range tb.touched {
		names("the grouping", st)
	}
	for _, st := range tb.active {
		names("the active list", st)
	}
	for _, st := range tb.dirtyList {
		names("the dirty list", st)
	}
	for _, op := range tb.plan {
		names("the plan", op.st)
	}
	for _, c := range a.cache {
		names("a sample-cache record", c.st)
	}
}

// TestTableLayout pins the per-destination layout: a destState holds its
// route key and fits in 152 bytes, and the per-round lists that name a
// state — the export log, the deadline heap, the grouping, active and dirty
// lists and the plan — carry its pointer, not a copy of its key. The
// per-socket record of the sample cache is 16 bytes: the pointer and one
// word.
func TestTableLayout(t *testing.T) {
	if f, ok := reflect.TypeFor[Agent]().FieldByName("cache"); !ok || f.Type.Elem().Size() != 16 {
		t.Errorf("a sample cache record is not 16 bytes")
	}
	if got := reflect.TypeFor[destState]().Size(); got > 152 {
		t.Errorf("destState is %d bytes, want at most 152", got)
	}
	if f, ok := reflect.TypeFor[destState]().FieldByName("key"); !ok || f.Type != reflect.TypeFor[netip.Prefix]() {
		t.Errorf("destState does not hold its netip.Prefix key")
	}
	table := reflect.TypeFor[destTable]()
	for _, c := range []struct {
		list string
		size uintptr
	}{
		{"log", 16},
		{"deadlines", 16},
		{"touched", 8},
		{"active", 8},
		{"dirtyList", 8},
		{"plan", 16},
	} {
		f, ok := table.FieldByName(c.list)
		if !ok {
			t.Errorf("destTable has no list %s", c.list)
			continue
		}
		if got := f.Type.Elem().Size(); got != c.size {
			t.Errorf("an element of destTable.%s is %d bytes, want %d", c.list, got, c.size)
		}
	}
}
