package core

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

// tickOnce feeds one observation round through the agent.
func tickOnce(t *testing.T, a *Agent, s *fakeSampler, obs []Observation) {
	t.Helper()
	s.rounds = [][]Observation{obs}
	s.i = 0
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	checkTableInvariants(t, a, "tickOnce")
}

func TestExportSnapshotAges(t *testing.T) {
	sampler := &fakeSampler{}
	a, _, clock := newAgent(t, Config{Sampler: sampler})
	tickOnce(t, a, sampler, []Observation{
		{Dst: dst(t, "10.0.0.1"), Cwnd: 40},
		{Dst: dst(t, "10.0.0.1"), Cwnd: 60},
		{Dst: dst(t, "10.0.0.2"), Cwnd: 30},
	})

	clock.Advance(7 * time.Second)
	snap, _ := a.ExportDelta(0)
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Sorted by prefix.
	if snap[0].Prefix != pfx(t, "10.0.0.1/32") || snap[1].Prefix != pfx(t, "10.0.0.2/32") {
		t.Fatalf("snapshot order = %+v", snap)
	}
	if snap[0].Window != 50 {
		t.Errorf("window = %d, want combined average 50", snap[0].Window)
	}
	if snap[0].Samples != 2 || snap[1].Samples != 1 {
		t.Errorf("samples = %d,%d", snap[0].Samples, snap[1].Samples)
	}
	for _, e := range snap {
		if e.Age != 7*time.Second {
			t.Errorf("age %v, want 7s", e.Age)
		}
	}
}

func TestMergeSnapshotSeedsUnknownPrefixes(t *testing.T) {
	a, routes, _ := newAgent(t, Config{})
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 80, Samples: 12, Age: 0},
		{Prefix: pfx(t, "10.9.0.2/32"), Window: 45, Samples: 3, Age: 0},
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Merged != 2 || stats.SkippedLocal != 0 || stats.SkippedStale != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := routes.set[pfx(t, "10.9.0.1/32")]; got != 80 {
		t.Errorf("programmed %d, want 80 (fresh entry undiscounted)", got)
	}
	if w, ok := a.Lookup(dst(t, "10.9.0.2")); !ok || w != 45 {
		t.Errorf("lookup = %d,%v", w, ok)
	}
	s := a.Stats()
	if s.FleetMerged != 2 || s.RoutesSet != 2 {
		t.Errorf("agent stats = %+v", s)
	}
}

func TestMergeSnapshotLocalAlwaysWins(t *testing.T) {
	sampler := &fakeSampler{}
	a, routes, _ := newAgent(t, Config{Sampler: sampler})
	tickOnce(t, a, sampler, []Observation{{Dst: dst(t, "10.0.0.1"), Cwnd: 30}})

	// A remote entry for the same prefix — fresher, more samples, bigger
	// window — must not override the local observation.
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.0.1/32"), Window: 95, Samples: 1000, Age: 0},
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedLocal != 1 || stats.Merged != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if w, _ := a.Lookup(dst(t, "10.0.0.1")); w != 30 {
		t.Errorf("window = %d, local 30 should survive", w)
	}
	if routes.set[pfx(t, "10.0.0.1/32")] != 30 {
		t.Errorf("route = %d", routes.set[pfx(t, "10.0.0.1/32")])
	}
}

func TestMergeSnapshotRejectsStale(t *testing.T) {
	a, routes, _ := newAgent(t, Config{TTL: 90 * time.Second})
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 80, Samples: 5, Age: 2 * time.Minute}, // > MaxAge (TTL)
		{Prefix: pfx(t, "10.9.0.2/32"), Window: 80, Samples: 0, Age: 0},               // below MinSamples
		{Prefix: pfx(t, "10.9.0.3/32"), Window: 0, Samples: 5, Age: 0},                // invalid window
		{Window: 80, Samples: 5, Age: 0},                                              // invalid prefix
		{Prefix: pfx(t, "10.9.0.4/32"), Window: 80, Samples: 5, Age: -time.Second},    // negative age
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedStale != 5 || stats.Merged != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(routes.set) != 0 {
		t.Errorf("routes = %v", routes.set)
	}
}

func TestMergeSnapshotStalenessDiscount(t *testing.T) {
	a, routes, _ := newAgent(t, Config{TTL: 90 * time.Second, CMin: 10})
	// Age of one half-life (default half-life = TTL/2 = 45s): excess over
	// CMin halves, so 90 -> 10 + 80/2 = 50.
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 90, Samples: 5, Age: 45 * time.Second},
	}, MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Merged != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := routes.set[pfx(t, "10.9.0.1/32")]; got != 50 {
		t.Errorf("discounted window = %d, want 50", got)
	}
}

func TestMergeSnapshotRemainingTTL(t *testing.T) {
	a, routes, clock := newAgent(t, Config{TTL: 90 * time.Second})
	if _, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 40, Samples: 5, Age: 60 * time.Second},
	}, MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	// Remaining life is TTL - age = 30s: alive at 29s, expired at 31s.
	clock.Advance(29 * time.Second)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup(dst(t, "10.9.0.1")); !ok {
		t.Fatal("merged entry expired too early")
	}
	clock.Advance(2 * time.Second)
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup(dst(t, "10.9.0.1")); ok {
		t.Error("merged entry outlived its remaining TTL")
	}
	if len(routes.set) != 0 {
		t.Errorf("routes = %v", routes.set)
	}
}

func TestMergeSnapshotLocalObservationConfirmsMergedEntry(t *testing.T) {
	sampler := &fakeSampler{}
	a, _, clock := newAgent(t, Config{Sampler: sampler, TTL: 90 * time.Second})
	if _, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.0.1/32"), Window: 80, Samples: 5, Age: 80 * time.Second},
	}, MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	// A local observation takes ownership: full TTL again, and the export
	// age resets to local freshness.
	tickOnce(t, a, sampler, []Observation{{Dst: dst(t, "10.0.0.1"), Cwnd: 50}})
	sampler.rounds = nil            // the destination goes quiet after the one observation
	clock.Advance(60 * time.Second) // past the merged entry's 10s remaining life
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Lookup(dst(t, "10.0.0.1")); !ok {
		t.Fatal("locally confirmed entry expired with merged entry's TTL")
	}
	snap, _ := a.ExportDelta(0)
	if len(snap) != 1 || snap[0].Age != 60*time.Second {
		t.Errorf("snapshot = %+v, want local age 60s (merged age cleared)", snap)
	}
}

func TestMergeSnapshotAgeAccumulatesAcrossHops(t *testing.T) {
	a, _, clock := newAgent(t, Config{TTL: 90 * time.Second})
	if _, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.0.0.1/32"), Window: 80, Samples: 5, Age: 30 * time.Second},
	}, MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	snap, _ := a.ExportDelta(0)
	if len(snap) != 1 || snap[0].Age != 40*time.Second {
		t.Errorf("re-exported age = %+v, want 30s inherited + 10s local", snap)
	}
}

// TestMergeSnapshotDuplicatePrefixKeepsFresher: of several remote entries for
// one prefix the smallest age wins whatever the payload order, the earlier
// entry wins a tie, and the duplicates need not be adjacent in the payload.
func TestMergeSnapshotDuplicatePrefixKeepsFresher(t *testing.T) {
	dup, other := pfx(t, "10.9.0.1/32"), pfx(t, "10.8.0.1/32")
	for _, tc := range []struct {
		name    string
		entries []SnapshotEntry
		want    int
	}{
		{"older first", []SnapshotEntry{
			{Prefix: dup, Window: 40, Samples: 5, Age: 60 * time.Second},
			{Prefix: dup, Window: 70, Samples: 5, Age: 0},
		}, 70},
		{"fresher first", []SnapshotEntry{
			{Prefix: dup, Window: 70, Samples: 5, Age: 0},
			{Prefix: dup, Window: 40, Samples: 5, Age: 60 * time.Second},
		}, 70},
		{"tie keeps the first", []SnapshotEntry{
			{Prefix: dup, Window: 33, Samples: 5, Age: time.Second},
			{Prefix: dup, Window: 66, Samples: 5, Age: time.Second},
		}, 33},
		{"apart in the payload", []SnapshotEntry{
			{Prefix: dup, Window: 40, Samples: 5, Age: 2 * time.Second},
			{Prefix: other, Window: 20, Samples: 5},
			{Prefix: dup, Window: 70, Samples: 5, Age: time.Second},
			{Prefix: netip.PrefixFrom(dup.Addr(), 24), Window: 50, Samples: 5}, // 10.9.0.0/24: another key
			{Prefix: dup, Window: 55, Samples: 5, Age: 2 * time.Second},
		}, 69}, // 70 discounted by one second of age
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, routes, _ := newAgent(t, Config{TTL: 90 * time.Second})
			distinct := map[netip.Prefix]bool{}
			for _, e := range tc.entries {
				distinct[e.Prefix.Masked()] = true
			}
			stats, err := a.MergeSnapshot(tc.entries, MergePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Merged != len(distinct) || routes.setOps != len(distinct) || a.Len() != len(distinct) {
				t.Fatalf("stats = %+v, %d route sets, %d entries; want %d of each", stats, routes.setOps, a.Len(), len(distinct))
			}
			if got := routes.set[dup]; got != tc.want {
				t.Errorf("window = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMergeSnapshotProgrammingFailureNotCommitted(t *testing.T) {
	a, routes, _ := newAgent(t, Config{})
	boom := errors.New("substrate down")
	routes.failSet = boom
	stats, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 40, Samples: 5, Age: 0},
	}, MergePolicy{})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if stats.Errors != 1 || stats.Merged != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if _, ok := a.Lookup(dst(t, "10.9.0.1")); ok {
		t.Error("failed program left a phantom entry")
	}
}

func TestMergeSnapshotClosedAgent(t *testing.T) {
	a, _, _ := newAgent(t, Config{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MergeSnapshot([]SnapshotEntry{
		{Prefix: pfx(t, "10.9.0.1/32"), Window: 40, Samples: 5, Age: 0},
	}, MergePolicy{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMergePolicyValidation(t *testing.T) {
	a, _, _ := newAgent(t, Config{})
	if _, err := a.MergeSnapshot(nil, MergePolicy{MaxAge: -time.Second}); err == nil {
		t.Error("negative MaxAge accepted")
	}
}

// BenchmarkSnapshotMerge merges a 10k-prefix snapshot into an agent already
// warm with 5k overlapping entries — the fleet-join hot path.
func BenchmarkSnapshotMerge(b *testing.B) {
	const remote = 10000
	mkEntries := func(n, base int) []SnapshotEntry {
		out := make([]SnapshotEntry, 0, n)
		for i := 0; i < n; i++ {
			v := base + i
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}), 32)
			out = append(out, SnapshotEntry{Prefix: p, Window: 40 + i%60, Samples: 8, Age: time.Duration(i%60) * time.Second})
		}
		return out
	}
	warm := mkEntries(remote/2, 0) // overlaps the first half of the remote set
	remoteSnap := mkEntries(remote, 0)

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := &fakeClock{}
		a, err := New(Config{
			Sampler: &fakeSampler{},
			Routes:  nopRoutes{},
			Clock:   clock.fn(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.MergeSnapshot(warm, MergePolicy{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := a.MergeSnapshot(remoteSnap, MergePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Merged != remote/2 || stats.SkippedLocal != remote/2 {
			b.Fatalf("stats = %+v", stats)
		}
	}
}

// BenchmarkMergeSnapshotHeld is churn-100k's merge: one round's delta of
// 7 100 prefix-ordered entries, 6 600 of them destinations the puller
// already holds, into a 108 900-entry table. A held entry costs the plan one
// table lookup; the 500 others are programmed and committed. Those lapse
// between iterations, outside the timer, so each iteration merges into the
// same table.
func BenchmarkMergeSnapshotHeld(b *testing.B) {
	const table, held, fresh = 108_900, 6_600, 500
	// The table holds the even indices, the fresh entries are odd ones.
	prefix := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
	}
	seed := make([]SnapshotEntry, table)
	for i := range seed {
		seed[i] = SnapshotEntry{Prefix: prefix(2 * i), Window: 40 + i%60, Samples: 8}
	}
	clock := &fakeClock{}
	a, err := New(Config{Sampler: &fakeSampler{}, Routes: nopRoutes{}, Clock: clock.fn()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if _, err := a.MergeSnapshot(seed, MergePolicy{}); err != nil {
		b.Fatal(err)
	}
	// A fresh entry has a microsecond of its TTL left.
	lapse := a.Config().TTL - time.Microsecond
	delta := make([]SnapshotEntry, 0, held+fresh)
	for i, added := 0, 0; i < held; i++ {
		at := 2 * i * (table / held)
		delta = append(delta, SnapshotEntry{Prefix: prefix(at), Window: 50, Samples: 8, Age: time.Second})
		if i%13 == 0 && added < fresh {
			delta = append(delta, SnapshotEntry{Prefix: prefix(at + 1), Window: 50, Samples: 8, Age: lapse})
			added++
		}
	}
	merge := func() {
		stats, err := a.MergeSnapshot(delta, MergePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if stats.Merged != fresh || stats.SkippedLocal != held {
			b.Fatalf("stats = %+v, want %d merged and %d held", stats, fresh, held)
		}
		clock.Advance(time.Microsecond)
		if err := a.expirePass(clock.Now()); err != nil {
			b.Fatal(err)
		}
		if n := a.Len(); n != table {
			b.Fatalf("%d entries after the fresh ones lapsed, want %d", n, table)
		}
		b.StartTimer()
	}
	merge() // the first merge after the seed sizes the round's scratch

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
	}
}

// nopRoutes accepts every programming call.
type nopRoutes struct{}

func (nopRoutes) SetInitCwnd(netip.Prefix, int) error { return nil }
func (nopRoutes) ClearInitCwnd(netip.Prefix) error    { return nil }
