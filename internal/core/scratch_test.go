package core

import (
	"net/netip"
	"testing"
)

// TestScratchRetention walks the sequences of uses the peer leg produces and
// pins, use by use, whether the array outlives it. A use is a Take of its
// size followed by a Keep.
func TestScratchRetention(t *testing.T) {
	const bulk, small, idle = 100_000, 7_000, 0
	for _, tc := range []struct {
		name string
		uses []int
		kept []bool // after each use: is its array held for the next one
	}{
		// First contact, then a converged fleet: the table-sized array must
		// not sit under rounds that use none of it.
		{"bulk then idle", []int{bulk, idle, idle}, []bool{false, false, false}},
		// First contact, then churn: the first delta allocates its own size,
		// the second one reuses it.
		{"bulk then small", []int{bulk, small, small, small}, []bool{false, false, true, true}},
		// A steady regime reuses from its second round on, through the
		// round-to-round wobble of a real delta.
		{"steady", []int{small, small, small + 900, small - 1200, small + 4000}, []bool{false, true, true, true, true}},
		// A regime change upward is a jump once, then the new steady state; a
		// bulk array that two uses in a row did fit is let go by the first
		// round that does not need it.
		{"small then jump", []int{small, small, bulk, bulk, small, small}, []bool{false, true, false, true, false, true}},
		// Below the slack nothing is worth dropping.
		{"tiny", []int{3, 900, 0, 1024}, []bool{true, true, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Scratch[RouteOp]
			for i, n := range tc.uses {
				buf := s.Take(n)
				if len(buf) != 0 || cap(buf) < n {
					t.Fatalf("use %d: Take(%d) returned len %d cap %d", i, n, len(buf), cap(buf))
				}
				reused := n > 0 && i > 0 && tc.kept[i-1] && cap(s.buf) >= n
				if reused && &buf[:1][0] != &s.buf[:1][0] {
					t.Fatalf("use %d: a kept array of %d was not reused for %d", i, cap(s.buf), n)
				}
				for len(buf) < n {
					buf = append(buf, RouteOp{Window: i})
				}
				s.Keep(buf, n)
				if kept := cap(s.buf) > 0; kept != tc.kept[i] {
					t.Fatalf("use %d of %d (previous %v): kept = %v, want %v", i, n, tc.uses[:i], kept, tc.kept[i])
				}
			}
		})
	}

	// The figure the heap bound rides on: after a 100k first contact nothing
	// is held, whatever follows.
	var s Scratch[SnapshotEntry]
	s.Keep(s.Take(bulk), bulk)
	if c := cap(s.Take(0)); c != 0 {
		t.Fatalf("%d elements held after a %d-element first contact", c, bulk)
	}
	// And a use allocates its size once: Take sizes the array, append never
	// has to grow it.
	buf := s.Take(small)
	allocs := testing.AllocsPerRun(10, func() {
		b := buf[:0]
		for i := 0; i < small; i++ {
			b = append(b, SnapshotEntry{Window: i})
		}
	})
	if allocs != 0 || cap(buf) < small {
		t.Fatalf("filling a Take(%d) grew it: %.0f allocations, cap %d", small, allocs, cap(buf))
	}
}

// TestMergeSnapshotTakesPlanFromScratch: a merge of a steady size takes its
// plan and its route batch from the agent's scratch — from the second merge
// of that size on it allocates a handful of objects, none of them sized by
// the entries — and a table-sized first merge leaves nothing pinned.
func TestMergeSnapshotTakesPlanFromScratch(t *testing.T) {
	a, _, _ := newAgent(t, Config{})
	entries := make([]SnapshotEntry, 7000)
	for i := range entries {
		host := netip.AddrFrom4([4]byte{10, 7, byte(i / 250), byte(1 + i%250)})
		entries[i] = SnapshotEntry{Prefix: netip.PrefixFrom(host, 32), Window: 10 + i%90, Samples: 5}
	}
	if st, err := a.MergeSnapshot(entries, MergePolicy{}); err != nil || st.Merged != len(entries) {
		t.Fatalf("first merge: %+v, %v", st, err)
	}
	if a.mergePlan.buf != nil || a.mergeOps.buf != nil {
		t.Fatalf("a first merge of %d entries left its plan (%d) or ops (%d) pinned", len(entries), cap(a.mergePlan.buf), cap(a.mergeOps.buf))
	}
	merge := func() {
		if st, err := a.MergeSnapshot(entries, MergePolicy{}); err != nil || st.SkippedLocal != len(entries) {
			t.Fatalf("repeat merge: %+v, %v", st, err)
		}
	}
	merge() // the second use of this size keeps the plan
	if allocs := testing.AllocsPerRun(10, merge); allocs > 8 {
		t.Fatalf("a repeated %d-entry merge allocates %.0f times, want a handful", len(entries), allocs)
	}
	if c := cap(a.mergePlan.buf); c < len(entries) {
		t.Fatalf("plan scratch holds %d, want room for %d", c, len(entries))
	}
}
