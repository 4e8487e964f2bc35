package fleet

import (
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
)

// stubSampler returns its observations once, then nothing: one poll round's
// worth of connections.
type stubSampler struct {
	mu  sync.Mutex
	obs []core.Observation
}

func (s *stubSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf = append(buf, s.obs...)
	s.obs = nil
	return buf, nil
}

// memRoutes records programmed routes in memory.
type memRoutes struct {
	mu  sync.Mutex
	set map[netip.Prefix]int
}

func newMemRoutes() *memRoutes { return &memRoutes{set: make(map[netip.Prefix]int)} }

func (r *memRoutes) SetInitCwnd(p netip.Prefix, cwnd int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set[p] = cwnd
	return nil
}

func (r *memRoutes) ClearInitCwnd(p netip.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.set, p)
	return nil
}

func (r *memRoutes) get(p netip.Prefix) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.set[p]
	return w, ok
}

func (r *memRoutes) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.set)
}

// simClock is a manually advanced monotonic clock.
type simClock struct {
	mu sync.Mutex
	d  time.Duration
}

func (c *simClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d
}

func (c *simClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.d += d
	c.mu.Unlock()
}

func obs(t *testing.T, addr string, cwnd int) core.Observation {
	t.Helper()
	a, err := netip.ParseAddr(addr)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", addr, err)
	}
	return core.Observation{Dst: a, Cwnd: cwnd}
}

func pfx(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

// newTestAgent builds an agent over in-memory fakes. If observations are
// given, one tick folds them in so the agent has learned entries.
func newTestAgent(t *testing.T, observations []core.Observation) (*core.Agent, *memRoutes, *simClock) {
	t.Helper()
	clk := &simClock{}
	routes := newMemRoutes()
	a, err := core.New(core.Config{
		Sampler: &stubSampler{obs: observations},
		Routes:  routes,
		Clock:   clk.Now,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	if observations != nil {
		if err := a.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
	return a, routes, clk
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})

	created := time.Unix(1700000000, 0)
	snap := FromAgent(src, "host-a", created)
	if snap.Version != Version {
		t.Fatalf("Version = %d, want %d", snap.Version, Version)
	}
	if snap.Source != "host-a" {
		t.Fatalf("Source = %q", snap.Source)
	}
	if snap.CreatedUnixNano != created.UnixNano() {
		t.Fatalf("CreatedUnixNano = %d, want %d", snap.CreatedUnixNano, created.UnixNano())
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("Entries = %+v, want 2", snap.Entries)
	}

	data, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Entries) != len(snap.Entries) || got.Source != snap.Source {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, snap)
	}
	for i := range got.Entries {
		if got.Entries[i] != snap.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], snap.Entries[i])
		}
	}

	// Merging the decoded snapshot into a fresh agent programs the routes.
	dst, dstRoutes, _ := newTestAgent(t, nil)
	stats, err := dst.MergeSnapshot(got.CoreEntries(), core.MergePolicy{})
	if err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	if stats.Merged != 2 {
		t.Fatalf("Merged = %d, want 2; stats %+v", stats.Merged, stats)
	}
	if w, ok := dstRoutes.get(pfx(t, "192.0.2.1/32")); !ok || w != 40 {
		t.Fatalf("route 192.0.2.1/32 = %d,%v; want 40,true", w, ok)
	}
	if w, ok := dstRoutes.get(pfx(t, "198.51.100.7/32")); !ok || w != 80 {
		t.Fatalf("route 198.51.100.7/32 = %d,%v; want 80,true", w, ok)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":         `{"version": 1,`,
		"zero version":    `{"entries": []}`,
		"future version":  `{"version": 4, "entries": []}`,
		"wrong json type": `[1, 2, 3]`,
	}
	for name, data := range cases {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, data)
		}
	}
}

func TestEncodeRejectsWrongVersion(t *testing.T) {
	if _, err := Encode(Snapshot{Version: 0}); err == nil {
		t.Fatal("Encode accepted version 0")
	}
}

// TestDecodeRejectsV1Snapshots: a v1 snapshot — golden bytes an agent from
// before the governor wrote — is refused with an error that names its
// version, never read as a current table.
func TestDecodeRejectsV1Snapshots(t *testing.T) {
	v1 := `{
		"version": 1,
		"source": "old-agent",
		"createdUnixNano": 1700000000000000000,
		"entries": [
			{"prefix": "192.0.2.1/32", "window": 40, "samples": 9, "ageNanos": 1000000000}
		]
	}`
	snap, err := Decode([]byte(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Decode(v1) = %+v, %v; want an error naming version 1", snap, err)
	}
	if len(snap.Entries) != 0 {
		t.Fatalf("rejected snapshot still returned %d entries", len(snap.Entries))
	}
}

// TestQuarantineMarkerRoundTrip: a v2 snapshot carries quarantine markers
// through encode/decode, and the receiving agent refuses to warm-start them.
func TestQuarantineMarkerRoundTrip(t *testing.T) {
	src := Snapshot{
		Version: Version,
		Source:  "guarded-agent",
		Entries: []Entry{
			{Prefix: "192.0.2.1/32", Window: 40, Samples: 9, AgeNanos: int64(time.Second)},
			{Prefix: "198.51.100.7/32", Quarantined: true, AgeNanos: int64(30 * time.Second)},
		},
	}
	data, err := Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	routes := newMemRoutes()
	agent, err := core.New(core.Config{
		Sampler: &stubSampler{},
		Routes:  routes,
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	stats, err := agent.MergeSnapshot(got.CoreEntries(), core.MergePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Merged != 1 || stats.SkippedQuarantined != 1 {
		t.Fatalf("stats = %+v, want 1 merged + 1 skipped-quarantined", stats)
	}
	if _, ok := routes.get(pfx(t, "198.51.100.7/32")); ok {
		t.Error("quarantined destination warm-started from snapshot")
	}
	if w, ok := routes.get(pfx(t, "192.0.2.1/32")); !ok || w != 40 {
		t.Errorf("healthy entry = %d,%v; want 40,true", w, ok)
	}
}

func TestCoreEntriesSkipsMalformedPrefix(t *testing.T) {
	s := Snapshot{
		Version: Version,
		Entries: []Entry{
			{Prefix: "not-a-prefix", Window: 40, Samples: 1},
			{Prefix: "192.0.2.0/24", Window: 50, Samples: 1},
		},
	}
	ce := s.CoreEntries()
	if len(ce) != 2 {
		t.Fatalf("CoreEntries len = %d, want 2", len(ce))
	}
	if ce[0].Prefix.IsValid() {
		t.Fatal("malformed prefix parsed as valid")
	}
	if !ce[1].Prefix.IsValid() {
		t.Fatal("valid prefix lost")
	}

	// The merge skips the malformed entry and accepts the valid one.
	a, _, _ := newTestAgent(t, nil)
	stats, err := a.MergeSnapshot(ce, core.MergePolicy{})
	if err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	if stats.Merged != 1 || stats.SkippedStale != 1 {
		t.Fatalf("stats = %+v, want 1 merged / 1 skipped-stale", stats)
	}
}

func TestAgedBy(t *testing.T) {
	s := Snapshot{
		Version: Version,
		Entries: []Entry{{Prefix: "192.0.2.0/24", Window: 40, AgeNanos: int64(10 * time.Second)}},
	}
	aged := s.AgedBy(5 * time.Second)
	if got := time.Duration(aged.Entries[0].AgeNanos); got != 15*time.Second {
		t.Fatalf("aged entry age = %v, want 15s", got)
	}
	// The original is untouched (AgedBy copies).
	if got := time.Duration(s.Entries[0].AgeNanos); got != 10*time.Second {
		t.Fatalf("original mutated: age = %v, want 10s", got)
	}
	// Non-positive aging is a no-op.
	if same := s.AgedBy(0); time.Duration(same.Entries[0].AgeNanos) != 10*time.Second {
		t.Fatal("AgedBy(0) changed ages")
	}
	if same := s.AgedBy(-time.Second); time.Duration(same.Entries[0].AgeNanos) != 10*time.Second {
		t.Fatal("AgedBy(-1s) changed ages")
	}
}

func TestNormalizePeerURL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"10.0.0.2:7600", "http://10.0.0.2:7600"},
		{"peer-b:7600", "http://peer-b:7600"},
		{"http://peer-b:7600", "http://peer-b:7600"},
		{"http://peer-b:7600/", "http://peer-b:7600"},
		{"https://peer-b", "https://peer-b"},
		{"  peer-b:1 ", "http://peer-b:1"},
		// The form this function used to return stays accepted.
		{"http://peer-b:7600/fleet/snapshot", "http://peer-b:7600"},
		{"peer-b:7600/fleet/snapshot", "http://peer-b:7600"},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if got, err := NormalizePeerURL(c.in); err != nil || got != c.want {
			t.Errorf("NormalizePeerURL(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	// A path the protocol cannot serve is an error naming the peer, not a
	// peer silently never pulled.
	for _, in := range []string{
		"http://peer-b:7600/custom/path",
		"http://peer-b:7600/fleet/delta",
		"http://peer-b:7600/fleet/snapshot/",
		"peer-b:7600/fleet",
	} {
		if got, err := NormalizePeerURL(in); err == nil || !strings.Contains(err.Error(), in) {
			t.Errorf("NormalizePeerURL(%q) = %q, %v; want an error naming the peer", in, got, err)
		}
	}
}
