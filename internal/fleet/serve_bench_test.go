package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/netip"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riptide/internal/allocbudget"
	"riptide/internal/core"
	gossippkg "riptide/internal/gossip"
)

// benchResponseWriter discards the body and keeps one header map alive
// across requests, so the measurement is the serving path, not the test
// recorder's bookkeeping.
type benchResponseWriter struct {
	h    http.Header
	n    int64
	code int
}

func (w *benchResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}

func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (w *benchResponseWriter) WriteHeader(code int) { w.code = code }

// benchAgent builds an agent holding n merged entries over no-op backends.
func benchAgent(b testing.TB, n int) *core.Agent {
	b.Helper()
	a, err := core.New(core.Config{
		Sampler: &stubSampler{},
		Routes:  newMemRoutes(),
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		b.Fatalf("core.New: %v", err)
	}
	b.Cleanup(func() { a.Close() })
	seed := make([]core.SnapshotEntry, n)
	for i := range seed {
		seed[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}), 32),
			Window:  10 + i%90,
			Samples: 50,
		}
	}
	if _, err := a.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
		b.Fatalf("MergeSnapshot: %v", err)
	}
	return a
}

func benchRequest(path string) *http.Request {
	return &http.Request{
		Method: http.MethodGet,
		URL:    &url.URL{Path: path},
		Header: http.Header{"Accept-Encoding": []string{"gzip"}},
	}
}

// benchServe measures one serving kind. churn forces a body rebuild on
// every request (the upper bound where the table moves
// between every pair of requests); without it every request after the first
// is a cache hit — the converged-fleet steady state.
func benchServe(b *testing.B, kindPath string, entries int, churn bool) {
	a := benchAgent(b, entries)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	if churn {
		// Every cached body is older than a negative bound.
		s.maxAge = -1
	}
	h := s.DeltaHandler()
	if kindPath == SnapshotPath {
		h = s.SnapshotHandler()
	}
	req := benchRequest(kindPath)
	w := &benchResponseWriter{}
	h.ServeHTTP(w, req) // warm the cache and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

func BenchmarkServeDeltaConverged(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, DeltaPath, n, false) })
	}
}

func BenchmarkServeDeltaChurning(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, DeltaPath, n, true) })
	}
}

func BenchmarkServeSnapshotConverged(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, SnapshotPath, n, false) })
	}
}

func BenchmarkServeSnapshotChurning(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, SnapshotPath, n, true) })
	}
}

// notModifiedRequest is a converged peer's round against s: a ?since= at
// the current version, presenting the ETag the last answer carried.
func notModifiedRequest(tb testing.TB, s *Server) *http.Request {
	req := benchRequest(DeltaPath)
	req.URL.RawQuery = fmt.Sprintf("since=%d&instance=%s", s.agent.TableVersion(), s.Instance())
	w := &benchResponseWriter{}
	s.DeltaHandler().ServeHTTP(w, req)
	if w.code != 0 && w.code != http.StatusOK {
		tb.Fatalf("status %d", w.code)
	}
	req.Header.Set("If-None-Match", w.Header().Get("ETag"))
	return req
}

// BenchmarkServeNotModified measures the 304 path: a converged peer
// presenting a matching validator costs header work only.
func BenchmarkServeNotModified(b *testing.B) {
	a := benchAgent(b, 100000)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	h := s.DeltaHandler()
	req := notModifiedRequest(b, s)
	w := &benchResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusNotModified {
			b.Fatalf("status %d, want 304", w.code)
		}
	}
}

// TestServeConvergedHitAllocs pins the cache-hit path's allocation budget:
// a converged-round request must not scale its allocations with table size
// — only the handful of header-map slices stdlib requires.
func TestServeConvergedHitAllocs(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	seed := make([]core.SnapshotEntry, 5000)
	for i := range seed {
		seed[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 9, byte(i / 250), byte(1 + i%250)}), 32),
			Window:  20,
			Samples: 50,
		}
	}
	if _, err := a.MergeSnapshot(seed, core.MergePolicy{}); err != nil {
		t.Fatalf("MergeSnapshot: %v", err)
	}
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	for _, tc := range []struct {
		name string
		h    http.Handler
		path string
	}{
		{"delta", s.DeltaHandler(), DeltaPath},
		{"snapshot", s.SnapshotHandler(), SnapshotPath},
	} {
		req := benchRequest(tc.path)
		w := &benchResponseWriter{}
		tc.h.ServeHTTP(w, req) // fill
		allocs := testing.AllocsPerRun(200, func() {
			tc.h.ServeHTTP(w, req)
		})
		// Two header Sets (Content-Type, ETag, Content-Encoding) allocate a
		// small []string each; everything else must come from the cache.
		if allocs > 6 {
			t.Errorf("%s converged hit: %.1f allocs/op, want <= 6 (table-size-independent)", tc.name, allocs)
		}
	}

	// The 304 path — a converged peer's ?since= round — is cheaper still:
	// it is answered before the query is parsed.
	req := notModifiedRequest(t, s)
	w := &benchResponseWriter{}
	h := s.DeltaHandler()
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusNotModified {
		t.Fatalf("304 path: status %d", w.code)
	}
	if allocs > 6 {
		t.Errorf("304 path: %.1f allocs/op, want <= 6", allocs)
	}
}

// stampLate merges k new entries into a and returns the table version before
// them: the cursor of a puller that has missed exactly those k.
func stampLate(tb testing.TB, a *core.Agent, k int) uint64 {
	tb.Helper()
	cursor := a.TableVersion()
	late := make([]core.SnapshotEntry, k)
	for i := range late {
		late[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i / 250), byte(1 + i%250)}), 32),
			Window:  10 + i%90,
			Samples: 50,
		}
	}
	if st, err := a.MergeSnapshot(late, core.MergePolicy{}); err != nil || st.Merged != k {
		tb.Fatalf("MergeSnapshot = %+v, %v", st, err)
	}
	return cursor
}

// sinceFixture returns a delta handler over an n-entry table and a request
// for the entries committed after a cursor that has missed the last k.
func sinceFixture(tb testing.TB, a *core.Agent, k int) (http.Handler, *http.Request) {
	tb.Helper()
	cursor := stampLate(tb, a, k)
	req := benchRequest(DeltaPath)
	req.URL.RawQuery = fmt.Sprintf("since=%d&instance=boot-1", cursor)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	return s.DeltaHandler(), req
}

// handlerTransport answers a puller's requests by calling the handler in
// process — no sockets, one response buffer reused across requests (pulls run
// one at a time and read a body out before asking again) — so what a round
// costs is the fleet code's, not a test server's.
type handlerTransport struct {
	h    http.Handler
	hdr  http.Header
	body bytes.Buffer
	code int
}

func (w *handlerTransport) Header() http.Header         { return w.hdr }
func (w *handlerTransport) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *handlerTransport) WriteHeader(code int)        { w.code = code }

func (w *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if w.hdr == nil {
		w.hdr = make(http.Header, 4)
	}
	clear(w.hdr)
	w.body.Reset()
	w.code = http.StatusOK
	w.h.ServeHTTP(w, req)
	return &http.Response{
		StatusCode: w.code,
		Status:     http.StatusText(w.code),
		Header:     w.hdr,
		Body:       io.NopCloser(bytes.NewReader(w.body.Bytes())),
		Request:    req,
	}, nil
}

// pullDeltaFixture is a churn round's peer leg, repeatable: a server whose
// table moved by k entries past the puller's cursor, and a puller that has
// already merged those k — so every round after the first is one ?since=
// request, decode, and a merge that skips every entry as local. rewind puts
// the cursor back where the round found it.
func pullDeltaFixture(tb testing.TB, src *core.Agent, k int) (p *Puller, rewind func()) {
	tb.Helper()
	cursor := stampLate(tb, src, k)
	s := NewServer(src, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	mux := http.NewServeMux()
	mux.Handle(DeltaPath, s.DeltaHandler())
	p, err := NewPuller(PullerConfig{
		Agent:  benchAgent(tb, 0),
		Peers:  []string{"http://peer.test"},
		Jitter: -1,
		Client: &http.Client{Transport: &handlerTransport{h: mux}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	rewound := advance(peerCursor{}, "http://peer.test", gossippkg.Cursor{Instance: "boot-1", Version: cursor}, "")
	rewind = func() {
		p.peers[0].cursor = rewound
	}
	rewind()
	if merged := p.PullOnce(context.Background()); merged != k {
		tb.Fatalf("first round merged %d of %d (%+v)", merged, k, p.Health()[0])
	}
	return p, rewind
}

// pullDeltaRound runs one rewound round and checks it was the delta round
// the fixture promises, with nothing left to merge.
func pullDeltaRound(tb testing.TB, p *Puller, rewind func()) {
	rewind()
	if merged := p.PullOnce(context.Background()); merged != 0 {
		tb.Fatalf("warmed round merged %d entries", merged)
	}
	if h := p.peers[0].health; h.Mode != ModeDelta || !h.Healthy {
		tb.Fatalf("warmed round: %+v", h)
	}
}

// BenchmarkPullDeltaRound is the whole peer leg of a churn round in one
// process, beside BenchmarkServeDeltaSince's serving half: a 100k-entry
// server table, a 7k-entry ?since= body, a warmed puller. KB/round is what the
// leg allocates on both sides; wire-B/round is the delta's body.
func BenchmarkPullDeltaRound(b *testing.B) {
	p, rewind := pullDeltaFixture(b, benchAgent(b, 100000), 7000)
	pullDeltaRound(b, p, rewind) // the second round of a size is the one that keeps its scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pullDeltaRound(b, p, rewind)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KB/round")
	b.ReportMetric(float64(p.peers[0].health.LastBytes), "wire-B/round")
}

// TestPullDeltaRoundAllocs: a warmed ?since= round — pull, decode into the
// kept slice, merge with every entry skipped as local — allocates the fixed
// objects of one HTTP exchange, and nothing per entry: a string per prefix
// would read 7000 more. Its bytes do not hold a
// table-shaped temporary either — the smallest of those, 7000 merge-form
// entries, is 390 KB. Bytes are the cheapest of several rounds, because a
// sync.Pool emptied by a GC (or, under -race, at random) re-buys an output
// buffer.
func TestPullDeltaRoundAllocs(t *testing.T) {
	var allocs, kb [2]float64
	for i, k := range []int{8, 7000} {
		p, rewind := pullDeltaFixture(t, benchAgent(t, 1000), k)
		pullDeltaRound(t, p, rewind)
		allocs[i] = testing.AllocsPerRun(20, func() { pullDeltaRound(t, p, rewind) })
		kb[i] = math.Inf(1)
		for run := 0; run < 10; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pullDeltaRound(t, p, rewind)
			runtime.ReadMemStats(&after)
			kb[i] = min(kb[i], float64(after.TotalAlloc-before.TotalAlloc)/1024)
		}
	}
	t.Logf("warmed ?since= round: %.0f allocs, %.0f KB for 8 entries; %.0f allocs, %.0f KB for 7000", allocs[0], kb[0], allocs[1], kb[1])
	if allocs[1] > allocs[0]+200 {
		t.Errorf("?since= round: %.0f allocs for 8 entries, %.0f for 7000; want nothing per entry", allocs[0], allocs[1])
	}
	if kb[1] > kb[0]+150 {
		t.Errorf("?since= round: %.0f KB for 8 entries, %.0f KB for 7000; want no table-shaped temporary", kb[0], kb[1])
	}
}

// rebuildingSnapshot is the snapshot endpoint of a server whose clock passes
// the cache's freshness bound between any two requests, so every serve
// rebuilds, and compresses, the body.
func rebuildingSnapshot(a *core.Agent) (http.Handler, *http.Request) {
	var hours atomic.Int64
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(0, 0).Add(time.Duration(hours.Add(1)) * time.Hour) })
	return s.SnapshotHandler(), benchRequest(SnapshotPath)
}

// TestServeKeepsGzipWriterAcrossGC: the compressor a gzipped serve uses
// outlives garbage collections. It serves 20 rebuilt snapshots with the heap
// collected between each one (twice, which empties any sync.Pool), and no
// serve may allocate half of what one BestSpeed gzip.Writer costs: a serve
// that re-buys its compressor allocates all of it, ≈1.2 MB.
func TestServeKeepsGzipWriterAcrossGC(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	compressor := allocatedBy(newCompressor)
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	h, req := rebuildingSnapshot(a)
	w := &benchResponseWriter{}
	h.ServeHTTP(w, req)
	for i := 0; i < 20; i++ {
		if got := allocatedBy(func() { h.ServeHTTP(w, req) }); got >= compressor/2 {
			t.Fatalf("serve %d after a collection allocated %d bytes; a new compressor is %d", i, got, compressor)
		}
		if w.n == 0 || w.code != 0 || w.h.Get("Content-Encoding") != "gzip" {
			t.Fatalf("serve %d: status %d, %d bytes, encoding %q", i, w.code, w.n, w.h.Get("Content-Encoding"))
		}
	}
}

// TestGzipWritersRetainedUnderFanIn prices the kept writers on a host that
// answers many clients at once: after rounds of 4×GOMAXPROCS concurrent
// rebuilt snapshots, the free list holds at most GOMAXPROCS writers, and the
// heap a collection leaves is under one compressor more than those it keeps.
func TestGzipWritersRetainedUnderFanIn(t *testing.T) {
	allocbudget.SkipUnderRace(t)
	compressor := allocatedBy(newCompressor)
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	h, req := rebuildingSnapshot(a)
	peers := 4 * runtime.GOMAXPROCS(0)
	reqs := make([]*http.Request, peers)
	for i := range reqs {
		reqs[i] = req.Clone(context.Background())
	}
	// Start with no writer kept, so what is kept below is this test's.
	for len(gzipWriters) > 0 {
		<-gzipWriters
	}
	before := heapAfterGC()
	for round := 0; round < 5; round++ {
		var start, done sync.WaitGroup
		start.Add(1)
		for _, r := range reqs {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				h.ServeHTTP(&benchResponseWriter{}, r)
			}()
		}
		start.Done()
		done.Wait()
	}
	kept, retained := len(gzipWriters), int64(heapAfterGC())-int64(before)
	t.Logf("%d concurrent serves: %d writers kept, %d bytes retained; one compressor is %d", peers, kept, retained, compressor)
	if kept < 1 || kept > runtime.GOMAXPROCS(0) {
		t.Errorf("%d writers kept, want 1..GOMAXPROCS (%d)", kept, runtime.GOMAXPROCS(0))
	}
	if retained >= int64(kept+1)*int64(compressor) {
		t.Errorf("retained %d bytes with %d writers kept; a compressor is %d", retained, kept, compressor)
	}
}

// newCompressor builds a BestSpeed gzip.Writer the way a serve first does:
// the compressor is allocated on the first write.
func newCompressor() {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	zw.Write([]byte{0})
	zw.Close()
}

// allocatedBy returns the bytes f allocates, measured from a heap that two
// collections have emptied of every sync.Pool's items.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// heapAfterGC returns the live heap once two collections have emptied every
// sync.Pool.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkServeDeltaSince is a churn round's pull: a 100k table of which 1 %
// was stamped after the puller's cursor. The cost is the delta's — export
// walk and encode — not the table's.
func BenchmarkServeDeltaSince(b *testing.B) {
	h, req := sinceFixture(b, benchAgent(b, 100000), 1000)
	w := &benchResponseWriter{}
	h.ServeHTTP(w, req) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// TestServeSinceAllocs: a ?since= serve allocates a fixed handful of objects
// (query parsing, header slices, the message header) beyond its pooled body —
// nothing per entry, so the count does not scale with the delta's size. The
// bound leaves room for the pools' random drops under -race; one allocation
// per entry would read 4000.
func TestServeSinceAllocs(t *testing.T) {
	var allocs [2]float64
	for i, k := range []int{8, 4000} {
		a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
		h, req := sinceFixture(t, a, k)
		w := &benchResponseWriter{}
		h.ServeHTTP(w, req) // size the pooled export and body buffers
		allocs[i] = testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
		if w.n == 0 || w.code != 0 {
			t.Fatalf("delta of %d: status %d, %d bytes", k, w.code, w.n)
		}
	}
	if allocs[0] > 40 || allocs[1] > 40 {
		t.Errorf("?since= serve: %.1f allocs for 8 entries, %.1f for 4000; want a constant handful", allocs[0], allocs[1])
	}
}
