package fleet

import (
	"fmt"
	"net/http"
	"net/netip"
	"net/url"
	"testing"
	"time"

	"riptide/internal/core"
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
func benchAgent(b *testing.B, n int) *core.Agent {
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

// benchServe measures one serving kind. churn forces a full cache
// invalidation before every request (the upper bound where the table moves
// between every pair of requests); without it every request after the first
// is a cache hit — the converged-fleet steady state.
func benchServe(b *testing.B, kindPath string, entries int, churn bool) {
	a := benchAgent(b, entries)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	var h http.Handler
	switch kindPath {
	case DigestPath:
		h = s.DigestHandler()
	case DeltaPath:
		h = s.DeltaHandler()
	case SnapshotPath:
		h = s.SnapshotHandler()
	}
	req := benchRequest(kindPath)
	w := &benchResponseWriter{}
	h.ServeHTTP(w, req) // warm the cache and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churn {
			s.Remint("boot-1")
		}
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

func BenchmarkServeDigestConverged(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, DigestPath, n, false) })
	}
}

func BenchmarkServeDigestChurning(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) { benchServe(b, DigestPath, n, true) })
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

// BenchmarkServeNotModified measures the 304 path: a converged peer
// presenting a matching validator costs header work only.
func BenchmarkServeNotModified(b *testing.B) {
	a := benchAgent(b, 100000)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	h := s.DigestHandler()
	req := benchRequest(DigestPath)
	w := &benchResponseWriter{}
	h.ServeHTTP(w, req)
	req.Header.Set("If-None-Match", w.Header().Get("ETag"))
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
		{"digest", s.DigestHandler(), DigestPath},
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

	// The 304 path is cheaper still.
	req := benchRequest(DigestPath)
	w := &benchResponseWriter{}
	s.DigestHandler().ServeHTTP(w, req)
	req.Header.Set("If-None-Match", w.Header().Get("ETag"))
	allocs := testing.AllocsPerRun(200, func() {
		s.DigestHandler().ServeHTTP(w, req)
	})
	if allocs > 6 {
		t.Errorf("304 path: %.1f allocs/op, want <= 6", allocs)
	}
}

// sinceFixture returns a delta handler over an n-entry table and a request
// for the entries committed after a cursor that has missed the last k.
func sinceFixture(tb testing.TB, a *core.Agent, k int) (http.Handler, *http.Request) {
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
	req := benchRequest(DeltaPath)
	req.URL.RawQuery = fmt.Sprintf("since=%d&instance=boot-1", cursor)
	s := NewServer(a, "bench", "boot-1", func() time.Time { return time.Unix(1, 0) })
	return s.DeltaHandler(), req
}

// BenchmarkServeDeltaSince is a churn round's pull: a 100k table of which 1 %
// was stamped after the puller's cursor. The cost is the delta's — export
// walk, encode, gzip — not the table's.
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
		h.ServeHTTP(w, req) // size the pooled export, body and gzip buffers
		allocs[i] = testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
		if w.n == 0 || w.code != 0 {
			t.Fatalf("delta of %d: status %d, %d bytes", k, w.code, w.n)
		}
	}
	if allocs[0] > 40 || allocs[1] > 40 {
		t.Errorf("?since= serve: %.1f allocs for 8 entries, %.1f for 4000; want a constant handful", allocs[0], allocs[1])
	}
}
