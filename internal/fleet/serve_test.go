package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
	gossippkg "riptide/internal/gossip"
)

// serveGet performs one GET against a handler, optionally with
// If-None-Match, and returns the recorded response.
func serveGet(h http.Handler, target, ifNoneMatch string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// uncachedBodies renders the two cached kinds the way the pre-cache handlers
// did — a fresh export and encode per call — for byte-identity comparison.
func uncachedBodies(t *testing.T, a *core.Agent, source, instance string, created time.Time) (delta, snapshot []byte) {
	t.Helper()
	dl, err := gossippkg.EncodeDelta(gossippkg.TableDelta(a, source, instance, gossippkg.Cursor{}))
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	snap := FromAgent(a, source, created)
	snap.Instance = instance
	sn, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	nl := []byte{'\n'}
	return append(dl, nl...), append(sn, nl...)
}

// TestServeCacheByteIdentical pins the cached bodies byte-for-byte against
// the uncached encodes — cold, warm, and again after the table moves — with
// concurrent requesters racing the commits (run under -race in CI).
func TestServeCacheByteIdentical(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
		obs(t, "203.0.113.9", 24),
	})
	created := time.Unix(1700000000, 0)
	s := NewServer(a, "host-a", "boot-1", func() time.Time { return created })
	handlers := map[string]http.Handler{
		DeltaPath:    s.DeltaHandler(),
		SnapshotPath: s.SnapshotHandler(),
	}

	check := func(stage string) {
		t.Helper()
		wantDelta, wantSnap := uncachedBodies(t, a, "host-a", "boot-1", created)
		for path, want := range map[string][]byte{
			DeltaPath:    wantDelta,
			SnapshotPath: wantSnap,
		} {
			// Twice: a (possible) miss fill, then a guaranteed cache hit.
			for round := 0; round < 2; round++ {
				w := serveGet(handlers[path], path, "")
				if w.Code != http.StatusOK {
					t.Fatalf("%s %s round %d: status %d", stage, path, round, w.Code)
				}
				if got := w.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s %s round %d: cached body differs from uncached encode:\n got %s\nwant %s",
						stage, path, round, got, want)
				}
				if w.Header().Get("ETag") == "" {
					t.Fatalf("%s %s: no ETag", stage, path)
				}
			}
		}
	}

	check("cold")

	// Concurrent requesters race a stream of commits; every response must
	// decode (we cannot pin bytes mid-race, but nothing may tear).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{DeltaPath, SnapshotPath} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					w := serveGet(handlers[path], path, "")
					if w.Code != http.StatusOK {
						panic(fmt.Sprintf("%s: status %d", path, w.Code))
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		seed := []core.SnapshotEntry{{
			Prefix: netip.MustParsePrefix(fmt.Sprintf("198.18.0.%d/32", i+1)),
			Window: 16 + i, Samples: 3, Age: time.Second,
		}}
		if _, err := a.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
			t.Fatalf("MergeSnapshot: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	check("after-commits")

	st := s.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want both hits and misses", st)
	}
}

// TestServeUncachedByteIdentical pins the request-shaped bodies — versioned
// deltas rendered straight from the agent's export, and the full table every
// unusable cursor gets — byte-for-byte against json.Marshal of the same
// message built entry by entry, plain and gzipped.
func TestServeUncachedByteIdentical(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
		obs(t, "2001:db8::9", 24),
	})
	cursor := a.TableVersion()
	seed := make([]core.SnapshotEntry, 40)
	for i := range seed {
		seed[i] = core.SnapshotEntry{
			Prefix: netip.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)),
			Window: 16 + i, Samples: uint64(3 + i), Age: time.Duration(i) * time.Second,
		}
	}
	if _, err := a.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	h := NewServer(a, "host <a>", "boot-1", nil).DeltaHandler()

	full := gossippkg.TableDelta(a, "host <a>", "boot-1", gossippkg.Cursor{})
	now := a.TableVersion()
	cases := map[string]gossippkg.Delta{
		fmt.Sprintf("?since=%d&instance=boot-1", cursor):     gossippkg.TableDelta(a, "host <a>", "boot-1", gossippkg.Cursor{Instance: "boot-1", Version: cursor}),
		fmt.Sprintf("?since=%d&instance=boot-1", now):        gossippkg.TableDelta(a, "host <a>", "boot-1", gossippkg.Cursor{Instance: "boot-1", Version: now}),
		fmt.Sprintf("?since=%d", cursor):                     full, // no instance to check the cursor against
		fmt.Sprintf("?since=%d&instance=boot-0", cursor):     full, // another boot's cursor
		fmt.Sprintf("?since=%d&instance=boot-1", now+100000): full, // ahead of the table
	}
	for query, d := range cases {
		want, err := gossippkg.EncodeDelta(d)
		if err != nil {
			t.Fatalf("EncodeDelta: %v", err)
		}
		want = append(want, '\n')
		if got := serveGet(h, DeltaPath+query, "").Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", query, got, want)
		}
		req := httptest.NewRequest(http.MethodGet, DeltaPath+query, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var br bodyReader
		got, _, err := br.read(w.Result(), 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s gzipped: %v\n got %s\nwant %s", query, err, got, want)
		}
	}
	if len(cases) != 5 || cursor == now {
		t.Fatalf("fixture collapsed: %d cases, cursor %d of %d", len(cases), cursor, now)
	}
}

// TestServeNotModified covers the revalidation flow: a response's ETag
// replayed as If-None-Match earns 304 with no body; a table change retires
// the validator and the next conditional request gets a full body with a
// new ETag.
func TestServeNotModified(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	s := NewServer(a, "host-a", "boot-1", nil)
	h := s.DeltaHandler()

	w := serveGet(h, DeltaPath, "")
	if w.Code != http.StatusOK {
		t.Fatalf("unconditional GET: status %d", w.Code)
	}
	etag := w.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"boot-1/`) {
		t.Fatalf("ETag = %q, want \"boot-1/<version>\" form", etag)
	}

	w = serveGet(h, DeltaPath+"?since=1&instance=boot-1", etag)
	if w.Code != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("304 carried a %d-byte body", w.Body.Len())
	}
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}
	if st := s.Stats(); st.NotModified != 1 {
		t.Fatalf("stats = %+v, want 1 notModified", st)
	}

	// The table moves: the old validator must stop matching.
	seed := []core.SnapshotEntry{{
		Prefix: netip.MustParsePrefix("198.18.0.1/32"), Window: 32, Samples: 3, Age: time.Second,
	}}
	if _, err := a.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	w = serveGet(h, DeltaPath+"?since=1&instance=boot-1", etag)
	if w.Code != http.StatusOK {
		t.Fatalf("post-commit conditional GET: status %d, want 200", w.Code)
	}
	if d, err := gossippkg.DecodeDelta(w.Body.Bytes()); err != nil || d.Full || len(d.Entries) != 1 {
		t.Fatalf("post-commit conditional GET: %+v, %v; want the one new entry", d, err)
	}
	if w.Body.Len() == 0 {
		t.Fatal("post-commit conditional GET: empty body")
	}
	if got := w.Header().Get("ETag"); got == etag {
		t.Fatalf("ETag unchanged across a commit: %q", got)
	}
	// A matching validator earns 304 even before any body is cached for
	// the new version — revalidation never requires a rebuild.
	s2 := NewServer(a, "host-a", "boot-1", nil)
	w = serveGet(s2.DeltaHandler(), DeltaPath, w.Header().Get("ETag"))
	if w.Code != http.StatusNotModified {
		t.Fatalf("cold-cache conditional GET: status %d, want 304", w.Code)
	}
	if st := s2.Stats(); st.Misses != 0 {
		t.Fatalf("cold-cache 304 rebuilt a body: %+v", st)
	}
}

// TestServeRemintDropsCache: after an in-process agent reboot the server is
// reminted; the old life's validators must stop matching and the cache must
// not serve the old life's bodies.
func TestServeRemintDropsCache(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	s := NewServer(a, "host-a", "boot-1", nil)
	h := s.DeltaHandler()

	w := serveGet(h, DeltaPath, "")
	oldETag := w.Header().Get("ETag")
	oldBody := append([]byte(nil), w.Body.Bytes()...)

	s.Remint("boot-2")

	w = serveGet(h, DeltaPath, oldETag)
	if w.Code != http.StatusOK {
		t.Fatalf("post-remint conditional GET: status %d, want 200 (old validator must not match)", w.Code)
	}
	newETag := w.Header().Get("ETag")
	if newETag == oldETag {
		t.Fatalf("ETag survived remint: %q", newETag)
	}
	if !strings.HasPrefix(newETag, `"boot-2/`) {
		t.Fatalf("post-remint ETag = %q, want boot-2 scope", newETag)
	}
	if bytes.Equal(w.Body.Bytes(), oldBody) {
		t.Fatal("post-remint body identical to old life's (instance field must differ)")
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (remint dropped the cache)", st)
	}
}

// TestServePlainPeerGetsFullBody: a peer that never sends If-None-Match
// (curl, a first-contact puller) gets complete bodies on every request — the
// cache is invisible to it.
func TestServePlainPeerGetsFullBody(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})
	srv := gossipServer(a, "host-a", "boot-1")
	defer srv.Close()

	for _, path := range []string{DeltaPath, SnapshotPath} {
		for round := 0; round < 3; round++ {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s round %d: status %d", path, round, resp.StatusCode)
			}
			if len(body) == 0 {
				t.Fatalf("%s round %d: empty body for unconditional request", path, round)
			}
		}
	}
}

// TestServeEntryBodyFreshnessBound: cached delta/snapshot bodies embed ages
// measured at encode time, so they are re-encoded once they age past TTL/4
// even at a constant table version, and reused until then.
func TestServeEntryBodyFreshnessBound(t *testing.T) {
	clk := &simClock{}
	routes := newMemRoutes()
	a, err := core.New(core.Config{
		Sampler: &stubSampler{obs: []core.Observation{obs(t, "192.0.2.1", 40)}},
		Routes:  routes,
		Clock:   clk.Now,
		TTL:     time.Minute, // freshness bound: 15s
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	defer a.Close()
	if err := a.Tick(); err != nil {
		t.Fatalf("Tick: %v", err)
	}

	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	s := NewServer(a, "host-a", "boot-1", func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	dh, sh := s.DeltaHandler(), s.SnapshotHandler()

	serveGet(sh, SnapshotPath, "")
	serveGet(dh, DeltaPath, "")
	advance(15 * time.Second) // at TTL/4: still fresh
	serveGet(sh, SnapshotPath, "")
	serveGet(dh, DeltaPath, "")
	if st := s.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("warm stats = %+v, want 2 misses + 2 hits", st)
	}

	advance(time.Second) // past TTL/4, version unchanged
	serveGet(sh, SnapshotPath, "")
	serveGet(dh, DeltaPath, "")
	if st := s.Stats(); st.Misses != 4 || st.Hits != 2 {
		t.Fatalf("aged stats = %+v, want both bodies re-encoded (4 misses)", st)
	}
}

// TestPullerNotModifiedRound: once a puller has a validator, a converged
// round is answered 304 — zero body bytes, counted distinctly in health and
// metrics, cursor intact — and a table change breaks back out of it.
func TestPullerNotModifiedRound(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})
	srv := gossipServer(src, "host-a", "boot-1")
	defer srv.Close()

	dst, _, _ := newTestAgent(t, nil)
	p := newGossipPuller(t, dst, srv.URL)
	ctx := context.Background()

	// Round 1: first contact, full transfer (its ETag arms the validator).
	if merged := p.PullOnce(ctx); merged != 2 {
		t.Fatalf("round 1 merged %d, want 2", merged)
	}

	// Round 2: converged with a validator — 304, nothing on the wire.
	if merged := p.PullOnce(ctx); merged != 0 {
		t.Fatalf("round 2 merged %d, want 0", merged)
	}
	h := p.Health()[0]
	if h.Mode != ModeNotModified || h.NotModified != 1 {
		t.Fatalf("round 2 health = %+v, want a 304 round", h)
	}
	if h.LastBytes != 0 {
		t.Fatalf("round 2 moved %d body bytes, want 0 (headers only)", h.LastBytes)
	}
	if m := dst.Metrics().Snapshot().Counters; m["riptide_gossip_rounds_not_modified"] != 1 {
		t.Fatalf("metrics = %v, want riptide_gossip_rounds_not_modified=1", m)
	}

	// The source learns a new destination: the validator stops matching
	// and the next round is a delta again.
	seed := []core.SnapshotEntry{{
		Prefix: netip.MustParsePrefix("198.18.0.1/32"), Window: 32, Samples: 3, Age: time.Second,
	}}
	if _, err := src.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	if merged := p.PullOnce(ctx); merged != 1 {
		t.Fatalf("round 3 merged %d, want 1", merged)
	}
	h = p.Health()[0]
	if h.Mode != ModeDelta {
		t.Fatalf("round 3 health = %+v, want a delta round", h)
	}

	// Round 4: converged again at the new version.
	p.PullOnce(ctx)
	h = p.Health()[0]
	if h.NotModified != 2 {
		t.Fatalf("round 4 health = %+v, want notModified=2", h)
	}
}
