package core

import (
	"errors"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"riptide/internal/allocbudget"
)

// editSampler is a fixed connection set that edits a few windows in place
// before each round and appends the whole set into the agent's buffer, like
// a host whose connections are long-lived.
type editSampler struct {
	set   []Observation
	edits int // positions whose Cwnd moves each round
	round int
}

func newEditSampler(n, edits int) *editSampler {
	s := &editSampler{set: make([]Observation, n), edits: edits}
	for i := range s.set {
		s.set[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250 / 5), byte(1 + i%5)}),
			Cwnd: 10 + i%90,
			RTT:  time.Duration(20+i%200) * time.Millisecond,
		}
	}
	return s
}

func (s *editSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	for i := 0; i < s.edits; i++ {
		o := &s.set[(s.round*s.edits*7+i*37)%len(s.set)]
		o.Cwnd = 10 + (o.Cwnd+23)%90
	}
	s.round++
	return append(buf, s.set...), nil
}

// batchNop takes every batch without allocating.
type batchNop struct {
	nopRoutes
	ops int
}

func (b *batchNop) ProgramRoutes(ops []RouteOp) []error {
	b.ops += len(ops)
	return nil
}

// TestStableTickAllocs: once warm, a round whose connection set is stable —
// a few windows edited in place, or nothing changed at all — allocates
// nothing, on the default configuration. The parallel cases run 600 sockets
// at GOMAXPROCS 4: a round starts no goroutine, so the width of the runtime
// changes nothing it allocates.
func TestStableTickAllocs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		procs, conns int
		edits        int
	}{
		{"stable", 1, 200, 3},
		{"quiescent", 1, 200, 0},
		{"parallel stable", 4, 600, 3},
		{"parallel quiescent", 4, 600, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			clock := &fakeClock{}
			s := newEditSampler(tc.conns, tc.edits)
			routes := &batchNop{}
			a, err := New(Config{Sampler: s, Routes: routes, Clock: clock.fn()})
			if err != nil {
				t.Fatal(err)
			}
			tick := func() {
				clock.Advance(time.Second)
				if err := a.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				tick()
			}
			stable, programmed := a.mStable.Value(), routes.ops
			allocs := testing.AllocsPerRun(20, tick)
			if got := a.mStable.Value() - stable; got != 21 {
				t.Fatalf("%d of 21 rounds were stable", got)
			}
			if tc.edits > 0 && routes.ops == programmed {
				t.Fatalf("in-place edits programmed no route")
			}
			if allocs != 0 {
				t.Fatalf("a warm stable round allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// warmStartDests is the destination count of the warm-start budgets: large
// enough that append's 1.25× ladder, not its doubling below 256 elements,
// decides what a path grown from nil allocates.
const warmStartDests = 20000

// TestWarmStartAllocs: the two bulk paths of an agent's warm start size what
// they build from counts they already hold, so each allocates within a small
// multiple of the table it leaves: a first Tick over fresh destinations (the
// plan by group count, the grouping by doubling), and a
// merge into an empty agent (the index by the deduplicated plan, one index
// lookup per entry).
func TestWarmStartAllocs(t *testing.T) {
	t.Run("first tick", func(t *testing.T) {
		clock := &fakeClock{}
		a, err := New(Config{Sampler: newEditSampler(warmStartDests, 0), Routes: &batchNop{}, Clock: clock.fn()})
		if err != nil {
			t.Fatal(err)
		}
		allocbudget.Check(t, 1.5, func() {
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
		})
		if n := a.Len(); n != warmStartDests {
			t.Fatalf("first tick learned %d destinations, want %d", n, warmStartDests)
		}
	})
	t.Run("merge into an empty agent", func(t *testing.T) {
		entries := make([]SnapshotEntry, warmStartDests)
		for i := range entries {
			addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
			entries[i] = SnapshotEntry{Prefix: netip.PrefixFrom(addr, 32), Window: 10 + i%90, Samples: 5, Age: time.Second}
		}
		clock := &fakeClock{}
		a, err := New(Config{Sampler: &fakeSampler{}, Routes: &batchNop{}, Clock: clock.fn()})
		if err != nil {
			t.Fatal(err)
		}
		allocbudget.Check(t, 1.5, func() {
			if _, err := a.MergeSnapshot(entries, MergePolicy{}); err != nil {
				t.Fatal(err)
			}
		})
		if n := a.Len(); n != warmStartDests {
			t.Fatalf("merge seeded %d destinations, want %d", n, warmStartDests)
		}
	})
}

// TestCloseReleasesTable: a closed agent that stays reachable (a fleet
// server or puller still holding it) keeps under a tenth of the heap its
// table held. Close drops the states, their slab and every per-round buffer
// that points into them, and a closed agent still reads as an empty one.
func TestCloseReleasesTable(t *testing.T) {
	clock := &fakeClock{}
	a, err := New(Config{Sampler: newEditSampler(warmStartDests, 200), Routes: &batchNop{}, Clock: clock.fn()})
	if err != nil {
		t.Fatal(err)
	}
	heap := allocbudget.Mark(t)
	// A rebuild, then stable rounds with edits: every per-round buffer is
	// in use.
	for i := 0; i < 3; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if n := a.Len(); n != warmStartDests {
		t.Fatalf("agent learned %d destinations, want %d", n, warmStartDests)
	}
	held := heap.Retained()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	kept := heap.Retained()
	t.Logf("table held %d bytes; closed agent keeps %d", held, kept)
	if kept*10 >= held {
		t.Errorf("closed agent keeps %d of the %d bytes its table held", kept, held)
	}

	if n := len(a.Entries()); n != 0 || a.Len() != 0 {
		t.Errorf("closed agent lists %d entries, Len %d", n, a.Len())
	}
	if got, _ := a.ExportDeltaAppend(nil, 0); len(got) != 0 {
		t.Errorf("closed agent exports %d entries", len(got))
	}
	if err := a.Tick(); !errors.Is(err, ErrClosed) {
		t.Errorf("Tick after Close = %v, want ErrClosed", err)
	}
	runtime.KeepAlive(a)
}
