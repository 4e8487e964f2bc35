// Package allocbudget is test support for the allocation budgets of the bulk
// paths — a path that sizes what it builds from the counts it holds allocates
// little more than it keeps, while one that grows its buffers by append from
// nil allocates several times over on the way — and for the retained-heap
// budgets of what the agent keeps between rounds (Mark).
package allocbudget

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Check runs f once, between forced collections, and fails t unless the
// bytes f allocated (the runtime.MemStats.TotalAlloc delta) stay within
// ratio times the bytes it left live (the HeapAlloc delta). What f builds
// must stay reachable from what it captures. Under the race detector, whose
// runtime allocates on its own, Check skips the test.
func Check(t testing.TB, ratio float64, f func()) {
	t.Helper()
	SkipUnderRace(t)
	before := collect()
	f()
	after := collect()
	runtime.KeepAlive(f) // and what it captured, through the collections
	allocated := after.TotalAlloc - before.TotalAlloc
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained <= 0 {
		t.Fatalf("allocated %d bytes and kept none", allocated)
	}
	got := float64(allocated) / float64(retained)
	t.Logf("allocated %d bytes, kept %d: %.2f×", allocated, retained, got)
	if got > ratio {
		t.Errorf("allocated %d bytes to keep %d: %.2f×, budget %.2f×", allocated, retained, got, ratio)
	}
}

// Heap is a reading of the live heap that later readings are measured
// against.
type Heap struct{ base int64 }

// Mark skips t under the race detector, then reads the live heap after
// forced collections: what exists now is the baseline.
func Mark(t testing.TB) Heap {
	t.Helper()
	SkipUnderRace(t)
	return Heap{base: int64(collect().HeapAlloc)}
}

// Retained returns the bytes live now beyond the baseline (the HeapAlloc
// delta after forced collections). What the caller measures must stay
// reachable through the call (runtime.KeepAlive).
func (h Heap) Retained() int64 {
	return int64(collect().HeapAlloc) - h.base
}

// collect forces two collections and reads the memory statistics. Two empty
// the sync.Pools (the first moves their contents to a victim cache, the
// second drops it), so pooled scratch counts as neither kept nor freed.
func collect() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// SkipUnderRace skips t when the binary was built with -race: the race
// detector's runtime allocates on its own, so no heap figure means anything
// there.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled() {
		t.Skip("heap figures are not measured under the race detector")
	}
}

// raceEnabled reports whether the binary was built with -race.
func raceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
