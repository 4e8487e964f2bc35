package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

// fleetMux mounts the fleet endpoints of one agent on one Server, the way
// riptided does.
func fleetMux(a *core.Agent, source, instance string) *http.ServeMux {
	s := NewServer(a, source, instance, func() time.Time { return time.Unix(1, 0) })
	mux := http.NewServeMux()
	mux.Handle(SnapshotPath, s.SnapshotHandler())
	mux.Handle(DeltaPath, s.DeltaHandler())
	return mux
}

// gossipServer serves fleetMux over HTTP.
func gossipServer(a *core.Agent, source, instance string) *httptest.Server {
	return httptest.NewServer(fleetMux(a, source, instance))
}

func newGossipPuller(t *testing.T, dst *core.Agent, peer string) *Puller {
	t.Helper()
	p, err := NewPuller(PullerConfig{Agent: dst, Peers: []string{peer}})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	return p
}

// TestGossipConvergedRoundIsNotModified is the O(1) acceptance criterion:
// once two peers are in sync, a round is one conditional request answered
// 304 — no entries and no body move — and the metrics distinguish it from
// delta and full transfers.
func TestGossipConvergedRoundIsNotModified(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})
	srv := gossipServer(src, "host-a", "boot-1")
	defer srv.Close()

	dst, dstRoutes, _ := newTestAgent(t, nil)
	p := newGossipPuller(t, dst, srv.URL)

	// Round 1: first contact — a full transfer over the delta endpoint.
	if merged := p.PullOnce(context.Background()); merged != 2 {
		t.Fatalf("round 1 merged %d, want 2", merged)
	}
	h := p.Health()[0]
	if h.Mode != ModeFull || h.FullPulls != 1 || h.LastBytes == 0 {
		t.Fatalf("round 1 health = %+v, want a full transfer", h)
	}
	if dstRoutes.count() != 2 {
		t.Fatalf("routes = %d, want 2", dstRoutes.count())
	}

	// Rounds 2..5: converged — 304s, headers only, every time.
	for i := 0; i < 4; i++ {
		if merged := p.PullOnce(context.Background()); merged != 0 {
			t.Fatalf("round %d merged %d, want 0", i+2, merged)
		}
	}
	h = p.Health()[0]
	if h.Mode != ModeNotModified || h.NotModified != 4 || h.FullPulls != 1 || h.DeltaPulls != 0 {
		t.Fatalf("steady state health = %+v, want 4 not-modified rounds after the full one", h)
	}
	if h.LastBytes != 0 {
		t.Fatalf("a 304 round moved %d body bytes, want 0", h.LastBytes)
	}

	// The client-side metrics expose the same distinction.
	m := dst.Metrics().Snapshot().Counters
	if m["riptide_gossip_rounds_not_modified"] != 4 || m["riptide_gossip_rounds_full"] != 1 {
		t.Fatalf("metrics = %v, want 4 not-modified rounds and 1 full", m)
	}
	if m["riptide_gossip_bytes_received"] == 0 {
		t.Fatal("no gossip bytes accounted")
	}
}

// TestGossipDeltaRoundCarriesOnlyChanges: after the source learns one more
// destination, the next round is a delta bearing exactly the new entry.
func TestGossipDeltaRoundCarriesOnlyChanges(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})
	srv := gossipServer(src, "host-a", "boot-1")
	defer srv.Close()

	dst, dstRoutes, _ := newTestAgent(t, nil)
	p := newGossipPuller(t, dst, srv.URL)
	p.PullOnce(context.Background()) // full
	p.PullOnce(context.Background()) // 304

	// The source learns a new destination.
	if _, err := src.MergeSnapshot([]core.SnapshotEntry{{
		Prefix: netip.MustParsePrefix("203.0.113.9/32"), Window: 33, Samples: 4, Age: time.Second,
	}}, core.MergePolicy{MaxAge: time.Hour}); err != nil {
		t.Fatal(err)
	}

	if merged := p.PullOnce(context.Background()); merged != 1 {
		t.Fatalf("delta round merged %d, want 1", merged)
	}
	h := p.Health()[0]
	if h.Mode != ModeDelta || h.DeltaPulls != 1 {
		t.Fatalf("health = %+v, want a delta round", h)
	}
	if w, ok := dstRoutes.get(pfx(t, "203.0.113.9/32")); !ok || w != 33 {
		t.Fatalf("new destination not merged: %d,%v", w, ok)
	}

	// And the round after is converged again.
	p.PullOnce(context.Background())
	if h := p.Health()[0]; h.Mode != ModeNotModified {
		t.Fatalf("post-delta round = %+v, want not modified", h)
	}
}

// TestGossipRestartResyncsFull: when the peer restarts (new instance,
// version counter reset) the puller's cursor names a table that no longer
// exists, so the peer answers it with its whole new table; the round after
// is a ?since= on the new instance, answered 304. The restart is driven
// through one server whose agent and instance are swappable behind a stable
// URL.
func TestGossipRestartResyncsFull(t *testing.T) {
	observations := []core.Observation{}
	for i := 0; i < 40; i++ {
		observations = append(observations, obs(t, fmt.Sprintf("10.9.%d.1", i), 20+i))
	}
	src1, _, _ := newTestAgent(t, observations)

	var current http.Handler
	var queries []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries = append(queries, r.URL.RawQuery)
		current.ServeHTTP(w, r)
	}))
	defer srv.Close()
	current = fleetMux(src1, "host-a", "boot-1")

	dst, dstRoutes, _ := newTestAgent(t, nil)
	p := newGossipPuller(t, dst, srv.URL)
	p.PullOnce(context.Background()) // full
	if dstRoutes.count() != 40 {
		t.Fatalf("routes = %d, want 40", dstRoutes.count())
	}

	// Restart: same content except one destination, new instance, and a
	// version counter that restarted from zero.
	observations[7] = obs(t, "10.9.7.1", 55)
	src2, _, _ := newTestAgent(t, observations)
	current = fleetMux(src2, "host-a", "boot-2")

	p.PullOnce(context.Background())
	h := p.Health()[0]
	if h.Mode != ModeFull || h.FullPulls != 2 || !h.Healthy {
		t.Fatalf("post-restart round = %+v, want a full resync", h)
	}

	// Next round: converged against the new instance.
	p.PullOnce(context.Background())
	if h := p.Health()[0]; h.Mode != ModeNotModified {
		t.Fatalf("post-resync round = %+v, want not modified", h)
	}
	want := fmt.Sprintf("since=%d&instance=boot-2", src2.TableVersion())
	if len(queries) != 3 || !strings.HasPrefix(queries[1], "since=") || queries[2] != want {
		t.Fatalf("queries = %q, want a ?since= on boot-1 then %q", queries, want)
	}
}

// TestGossipConvergenceEquivalence: a receiver syncing via ?since= deltas
// converges to a byte-identical exported table to a receiver pulling the
// full table every round, across a multi-round schedule with source churn
// between rounds.
func TestGossipConvergenceEquivalence(t *testing.T) {
	observations := []core.Observation{}
	for i := 0; i < 25; i++ {
		observations = append(observations, obs(t, fmt.Sprintf("10.8.%d.1", i), 15+i))
	}
	src, _, _ := newTestAgent(t, observations)
	srv := gossipServer(src, "host-a", "boot-1")
	defer srv.Close()

	viaGossip, _, _ := newTestAgent(t, nil)
	viaFull, _, _ := newTestAgent(t, nil)
	gp := newGossipPuller(t, viaGossip, srv.URL)
	// A puller with no cursor pulls the full table: a new one every round
	// is the full-sync control.
	fullPull := func() {
		newGossipPuller(t, viaFull, srv.URL).PullOnce(context.Background())
	}

	churn := func(round int) {
		if _, err := src.MergeSnapshot([]core.SnapshotEntry{{
			Prefix:  netip.MustParsePrefix(fmt.Sprintf("203.0.113.%d/32", round)),
			Window:  20 + round,
			Samples: 3,
			Age:     time.Second,
		}}, core.MergePolicy{MaxAge: time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 5; round++ {
		gp.PullOnce(context.Background())
		fullPull()
		churn(round)
	}
	// One final settle round after the last churn.
	gp.PullOnce(context.Background())
	fullPull()

	normalize := func(a *core.Agent) []core.SnapshotEntry {
		entries := a.ExportSnapshot()
		for i := range entries {
			// Versions and ages are receiver-local bookkeeping (stamped at
			// merge time); the learned content is what must match.
			entries[i].Version = 0
			entries[i].Age = 0
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Prefix.String() < entries[j].Prefix.String() })
		return entries
	}
	g, f := normalize(viaGossip), normalize(viaFull)
	if !reflect.DeepEqual(g, f) {
		t.Fatalf("tables diverge:\ngossip: %+v\nfull:   %+v", g, f)
	}
	if len(g) != 30 {
		t.Fatalf("converged table has %d entries, want 30", len(g))
	}
	// Sanity: the gossip receiver actually used deltas.
	h := gp.Health()[0]
	if h.DeltaPulls == 0 {
		t.Fatalf("gossip receiver never used a delta: %+v", h)
	}
}

// TestSnapshotHandlerServesGzip: the operator's snapshot endpoint is
// compressed when asked, identity otherwise, with the same payload.
func TestSnapshotHandlerServesGzip(t *testing.T) {
	observations := []core.Observation{}
	for i := 0; i < 50; i++ {
		observations = append(observations, obs(t, fmt.Sprintf("10.7.%d.1", i), 20))
	}
	a, _, _ := newTestAgent(t, observations)
	srv := gossipServer(a, "host-a", "boot-1")
	defer srv.Close()

	get := func(gz bool) (hdr string, body []byte, raw int) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+SnapshotPath, nil)
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		} else {
			req.Header.Set("Accept-Encoding", "identity")
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rawBody, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		hdr = resp.Header.Get("Content-Encoding")
		body = rawBody
		if hdr == "gzip" {
			zr, err := gzip.NewReader(bytes.NewReader(rawBody))
			if err != nil {
				t.Fatal(err)
			}
			body, err = io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
		}
		return hdr, body, len(rawBody)
	}

	plainHdr, plainBody, plainRaw := get(false)
	if plainHdr != "" {
		t.Fatalf("identity request got Content-Encoding %q", plainHdr)
	}
	gzHdr, gzBody, gzRaw := get(true)
	if gzHdr != "gzip" {
		t.Fatalf("gzip request got Content-Encoding %q", gzHdr)
	}
	if !bytes.Equal(plainBody, gzBody) {
		t.Fatal("gzip and identity payloads differ")
	}
	if gzRaw >= plainRaw {
		t.Fatalf("gzip wire size %d >= identity %d", gzRaw, plainRaw)
	}
	if _, err := Decode(bytes.TrimSpace(gzBody)); err != nil {
		t.Fatalf("decompressed snapshot does not decode: %v", err)
	}
}

// TestReadBodyCapsDecompressedSize: a tiny compressed body expanding past
// the cap is rejected — the decompressed-size bound, not just the wire
// bound, protects the puller.
func TestReadBodyCapsDecompressedSize(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	chunk := bytes.Repeat([]byte{'a'}, 64<<10)
	for written := 0; written < 4<<20; written += len(chunk) {
		zw.Write(chunk)
	}
	zw.Close()

	resp := &http.Response{
		Header: http.Header{"Content-Encoding": []string{"gzip"}},
		Body:   io.NopCloser(bytes.NewReader(buf.Bytes())),
	}
	var br bodyReader
	if _, _, err := br.read(resp, 1<<20); err == nil {
		t.Fatal("bodyReader accepted a 4 MiB decompression against a 1 MiB cap")
	}

	// Within the cap it round-trips.
	var small bytes.Buffer
	zw = gzip.NewWriter(&small)
	zw.Write([]byte(`{"ok":true}`))
	zw.Close()
	resp = &http.Response{
		Header: http.Header{"Content-Encoding": []string{"gzip"}},
		Body:   io.NopCloser(bytes.NewReader(small.Bytes())),
	}
	data, wire, err := br.read(resp, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("data = %q", data)
	}
	if wire != int64(small.Len()) {
		t.Fatalf("wire bytes = %d, want %d", wire, small.Len())
	}
}

// TestReadBodyReusesScratchWithoutLeaking: a puller reads every response into
// the buffer earlier ones grew. A short body after a long one — gzipped or
// plain, including an empty one — must come back exact, with nothing of the
// long body's tail behind it and its own wire-byte count. The array is shared
// within a round and, by core.Scratch's rule, across rounds of similar size:
// the first large round is a jump and frees what it grew (a full pull must
// not pin a table-sized buffer under every delta after it), the second one of
// that size keeps it, a round that read far less releases it.
func TestReadBodyReusesScratchWithoutLeaking(t *testing.T) {
	response := func(body []byte, compress bool) (*http.Response, int64) {
		resp := &http.Response{Header: http.Header{}}
		if compress {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body)
			zw.Close()
			resp.Header.Set("Content-Encoding", "gzip")
			body = buf.Bytes()
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return resp, int64(len(body))
	}
	type body struct {
		data     []byte
		compress bool
	}
	long := bytes.Repeat([]byte(`{"prefix":"203.0.113.7/32","window":42},`), 20000)
	small, empty := []byte(`{"version":1,"entries":[]}`), []byte(nil)
	var br bodyReader
	for i, round := range []struct {
		bodies []body
		keeps  bool // the array outlives the round's trim
	}{
		{[]body{{small, true}, {long, true}}, false},
		{[]body{{small, true}, {long[:len(long)-41], true}}, true}, // another peer's small body before the delta must not cost the buffer
		{[]body{{long, false}, {empty, true}, {small, false}}, true},
		{[]body{{small, true}, {[]byte(`{"small":"delta"}`), true}}, false},
		{[]body{{empty, false}, {small, true}}, true},
	} {
		array := cap(br.buf)
		for j, b := range round.bodies {
			resp, wire := response(b.data, b.compress)
			data, n, err := br.read(resp, 1<<20)
			if err != nil {
				t.Fatalf("round %d read %d: %v", i, j, err)
			}
			if !bytes.Equal(data, b.data) {
				t.Fatalf("round %d read %d: got %d bytes %.40q, want %d bytes %.40q", i, j, len(data), data, len(b.data), b.data)
			}
			if n != wire {
				t.Fatalf("round %d read %d: wire bytes = %d, want %d", i, j, n, wire)
			}
		}
		if i > 0 && array >= len(long) && cap(br.buf) != array {
			t.Fatalf("round %d: array of %d bytes replaced by one of %d mid-round", i, array, cap(br.buf))
		}
		br.trim()
		if kept := cap(br.buf) > 0; kept != round.keeps {
			t.Fatalf("round %d: %d-byte array kept = %v, want %v", i, cap(br.buf), kept, round.keeps)
		}
	}
}

// TestJitterShortensBackoffOnly: jitter subtracts up to Jitter×d and never
// extends a backoff.
func TestJitterShortensBackoffOnly(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	mk := func(jitter float64, r func() float64) *Puller {
		p, err := NewPuller(PullerConfig{
			Agent:     a,
			Interval:  10 * time.Second,
			Jitter:    jitter,
			randFloat: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Max draw: the full jitter slice comes off.
	p := mk(0.2, func() float64 { return 0.999 })
	got := p.jittered(10 * time.Second)
	if got > 10*time.Second || got < 8*time.Second {
		t.Fatalf("jittered(10s) = %v, want within [8s, 10s]", got)
	}
	// Zero draw: unchanged.
	p = mk(0.2, func() float64 { return 0 })
	if got := p.jittered(10 * time.Second); got != 10*time.Second {
		t.Fatalf("zero draw moved the backoff: %v", got)
	}
	// Jitter disabled.
	p = mk(-1, func() float64 { return 0.999 })
	if got := p.jittered(10 * time.Second); got != 10*time.Second {
		t.Fatalf("disabled jitter moved the backoff: %v", got)
	}
	// Distribution sanity: different draws give different schedules (the
	// anti-stampede property).
	seen := map[time.Duration]bool{}
	for _, draw := range []float64{0.1, 0.5, 0.9} {
		d := draw
		p = mk(0.2, func() float64 { return d })
		seen[p.jittered(40*time.Second)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("three draws produced %d distinct backoffs", len(seen))
	}
}

// TestGossipEndpointsRejectBadRequests covers the delta endpoint's
// validation surface.
func TestGossipEndpointsRejectBadRequests(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	srv := gossipServer(a, "host-a", "boot-1")
	defer srv.Close()

	for _, bad := range []string{
		DeltaPath + "?since=not-a-number",
		DeltaPath + "?since=-1&instance=boot-1",
	} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %s, want 400", bad, resp.Status)
		}
	}

	// POSTs are refused on both.
	for _, path := range []string{SnapshotPath, DeltaPath} {
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %s, want 405", path, resp.Status)
		}
	}

	// The retired digest endpoint answers 404 where it is still mounted.
	w := httptest.NewRecorder()
	NewServer(a, "host-a", "boot-1", nil).DigestHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, DigestPath, nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("GET %s = %d, want 404", DigestPath, w.Code)
	}
}
