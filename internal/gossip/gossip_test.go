package gossip

import (
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
)

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

func obs(t *testing.T, addr string, cwnd int) core.Observation {
	t.Helper()
	a, err := netip.ParseAddr(addr)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", addr, err)
	}
	return core.Observation{Dst: a, Cwnd: cwnd}
}

func newTestAgent(t *testing.T, observations []core.Observation) *core.Agent {
	t.Helper()
	a, err := core.New(core.Config{
		Sampler: &stubSampler{obs: observations},
		Routes:  newMemRoutes(),
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	if observations != nil {
		if err := a.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
	return a
}

func entries(n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}), 32).String(),
			Window:  10 + i%50,
			Samples: uint64(i + 1),
		})
	}
	return out
}

// digestFixture is a well-formed digest body's message.
func digestFixture() Digest {
	buckets := make([]uint64, digestBuckets)
	for i := range buckets {
		buckets[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return Digest{Version: digestVersion, Source: "host-a", Instance: "inst-1", TableVersion: 42, Count: 10, Buckets: buckets}
}

func TestDigestRoundTrip(t *testing.T) {
	d := digestFixture()
	data, err := EncodeDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeDigestRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{"version": 1,`,
		"zero version":   `{"buckets": []}`,
		"future version": `{"version": 2, "buckets": []}`,
		"short buckets":  `{"version": 1, "buckets": [1, 2, 3]}`,
		"long buckets":   `{"version": 1, "count": 1, "buckets": [` + longBuckets(digestBuckets+1) + `]}`,
		"negative count": `{"version": 1, "count": -1, "buckets": [` + longBuckets(digestBuckets) + `]}`,
		"wrong type":     `[1, 2]`,
	}
	for name, data := range cases {
		if _, err := DecodeDigest([]byte(data)); err == nil {
			t.Errorf("%s: DecodeDigest accepted %q", name, data)
		}
	}
}

func longBuckets(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ","
		}
		s += "0"
	}
	return s
}

func TestDeltaRoundTrip(t *testing.T) {
	d := Delta{
		Version:      WireVersion,
		Source:       "host-a",
		Instance:     "inst-1",
		TableVersion: 42,
		Since:        40,
		Entries:      entries(3),
	}
	data, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableVersion != 42 || got.Since != 40 || len(got.Entries) != 3 || got.Full {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != d.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], d.Entries[i])
		}
	}
}

// TestDecodeDeltaRejectsBadInput: what is not a delta of this wire version
// fails, and the body of a peer on another version fails naming the versions
// — the operator reading a peer's lastError learns that the peer needs
// upgrading, not that its bytes were garbage.
func TestDecodeDeltaRejectsBadInput(t *testing.T) {
	good, err := EncodeDelta(Delta{Version: WireVersion, Instance: "i", TableVersion: 5, Entries: entries(3)})
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(magic), WireVersion+1)
	cases := map[string]struct {
		data []byte
		says string
	}{
		"JSON of wire version 1": {[]byte(`{"version":1,"tableVersion":5,"entries":[]}` + "\n"), "wire version 1"},
		"JSON, indented":         {[]byte("\n  {\"version\": 1}"), "wire version 1"},
		"future version":         {append(future, good[len(future):]...), "version 3, want 2"},
		"wrong type":             {[]byte(`"delta"`), "wire version 2"},
		"empty":                  {nil, "wire version 2"},
		"truncated":              {good[:len(good)-1], "truncated"},
		"trailing bytes":         {append(slices.Clone(good), '\n'), "follow"},
	}
	for name, tc := range cases {
		_, err := DecodeDelta(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: DecodeDelta(%q) = %v, want an error saying %q", name, tc.data, err, tc.says)
		}
	}
}

// TestTableDeltaSince: versioned deltas carry only entries committed after
// the cursor, and an unusable cursor degrades to a full table.
func TestTableDeltaSince(t *testing.T) {
	a := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "192.0.2.2", 50),
	})
	v1 := a.TableVersion()
	if v1 == 0 {
		t.Fatal("table version did not advance on first programs")
	}

	full := TableDelta(a, "src", "inst", Cursor{})
	if !full.Full || len(full.Entries) != 2 || full.TableVersion != v1 {
		t.Fatalf("full delta = %+v", full)
	}

	// Nothing changed: a delta from v1 is empty.
	empty := TableDelta(a, "src", "inst", Cursor{"inst", v1})
	if empty.Full || len(empty.Entries) != 0 || empty.Since != v1 {
		t.Fatalf("empty delta = %+v", empty)
	}

	// One more destination learned: the delta carries exactly it.
	if _, err := a.MergeSnapshot([]core.SnapshotEntry{{
		Prefix:  netip.MustParsePrefix("198.51.100.9/32"),
		Window:  30,
		Samples: 5,
		Age:     time.Second,
	}}, core.MergePolicy{MaxAge: time.Hour}); err != nil {
		t.Fatal(err)
	}
	delta := TableDelta(a, "src", "inst", Cursor{"inst", v1})
	if delta.Full || len(delta.Entries) != 1 || delta.Entries[0].Prefix != "198.51.100.9/32" {
		t.Fatalf("delta = %+v, want just 198.51.100.9/32", delta)
	}
	if delta.TableVersion <= v1 {
		t.Fatalf("delta version %d did not advance past %d", delta.TableVersion, v1)
	}

	// A cursor from the future (a previous life of this agent) or from
	// another instance cannot be interpreted: serve the full table.
	for _, c := range []Cursor{{"inst", delta.TableVersion + 1000}, {"inst-0", v1}, {"", v1}} {
		if reset := TableDelta(a, "src", "inst", c); !reset.Full || reset.Since != 0 || len(reset.Entries) != 3 {
			t.Fatalf("delta since %+v = %+v, want the full table", c, reset)
		}
	}
}

// TestCursorUsable pins the one rule of when a cursor earns a delta.
func TestCursorUsable(t *testing.T) {
	for _, tc := range []struct {
		c        Cursor
		instance string
		version  uint64
		want     bool
	}{
		{Cursor{"boot-1", 5}, "boot-1", 5, true},
		{Cursor{"boot-1", 5}, "boot-1", 9, true},
		{Cursor{"boot-1", 6}, "boot-1", 5, false}, // ahead of the table
		{Cursor{"boot-1", 5}, "boot-2", 9, false}, // another boot
		{Cursor{"", 5}, "", 9, false},             // no instance to check
		{Cursor{"boot-1", 0}, "boot-1", 9, false}, // first contact
		{Cursor{}, "boot-1", 9, false},
	} {
		if got := tc.c.Usable(tc.instance, tc.version); got != tc.want {
			t.Errorf("%+v.Usable(%q, %d) = %v, want %v", tc.c, tc.instance, tc.version, got, tc.want)
		}
	}
}

// TestETag pins the entity-tag shape: instance and version, and the marker
// fold only when there is one.
func TestETag(t *testing.T) {
	if got := ETag("boot-1", 42, 0); got != `"boot-1/42"` {
		t.Errorf("ETag = %s", got)
	}
	if got := ETag("boot-1", 42, 0xbeef); got != `"boot-1/42/beef"` {
		t.Errorf("ETag with markers = %s", got)
	}
}
