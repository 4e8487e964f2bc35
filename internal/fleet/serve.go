package fleet

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riptide/internal/core"
	"riptide/internal/gossip"
	"riptide/internal/metrics"
)

// Encode-once serving. A converged fleet asks every peer the same question
// every interval — "what is your digest?" — and before this file every
// answer re-scanned the table, re-encoded JSON, and re-gzipped identical
// bytes. Server caches the encoded (and gzipped) digest, full-delta, and
// full-snapshot bodies keyed by the agent's content token (table version +
// quarantine-marker fold) under this run's instance, so serving N converged
// peers costs one encode per table change, not N per interval. On top of
// the cache sits HTTP revalidation: responses carry a strong ETag derived
// from the same token, and a request presenting it via If-None-Match gets
// 304 Not Modified — converged peers exchange headers only, no body at all.

// ServeStats counts what the response cache did, for /status.
type ServeStats struct {
	// Hits served a cached body without touching the agent's table.
	Hits uint64 `json:"hits"`
	// Misses rebuilt (encoded + gzipped) a body because the table moved,
	// the cache was cold, or an entry-bearing body aged out.
	Misses uint64 `json:"misses"`
	// NotModified answered 304 to a matching If-None-Match — no body.
	NotModified uint64 `json:"notModified"`
}

// Cache slots, one encoded body retained per kind — the cache's memory
// bound is three plain+gzipped encodings of the table, regardless of peer
// count or request rate.
const (
	kindDigest = iota
	kindDelta
	kindSnapshot
	numKinds
)

// cachedBody is one encoded response: the JSON body (with trailing
// newline), its gzipped form, and the content token it was built at.
type cachedBody struct {
	valid    bool
	version  uint64
	markers  uint64
	etag     string
	filledAt time.Time
	plain    []byte
	gz       []byte
}

// Server serves the three fleet endpoints (digest, delta, snapshot) for one
// agent with version-keyed response caching. Construct with NewServer and
// mount the *Handler methods; the free functions DigestHandler /
// DeltaHandler / Handler remain as single-endpoint conveniences.
//
// Correctness note: entry-bearing bodies (delta, snapshot) embed per-entry
// ages measured at encode time, and ages keep growing while the version
// stands still. Cached bodies are therefore reused only while younger than
// a quarter of the agent's TTL — bounded staleness, invisible at gossip
// cadence, and the conservative merge policy discounts by age anyway.
// Digest bodies hash no ages and are reused until the content token moves.
type Server struct {
	agent  *core.Agent
	source string
	now    func() time.Time
	maxAge time.Duration

	hits        atomic.Uint64
	misses      atomic.Uint64
	notModified atomic.Uint64

	// mu guards the instance identity, the cache slots, and the pooled
	// encode scratch. Miss-path rebuilds run under it, so concurrent
	// requests for the same cold body encode once, not once each.
	mu       sync.Mutex
	instance string
	bodies   [numKinds]cachedBody

	// Rendered ETag for the current content token, so converged-round
	// requests (the overwhelming majority) reuse one string instead of
	// formatting it per request.
	etagVer  uint64
	etagMark uint64
	etagStr  string
	etagOK   bool

	// Export scratch reused across encodes (mu), so steady-churn serving
	// exports into the same backing array instead of growing a fresh one
	// per request. Bodies are rendered straight from it.
	coreBuf core.Scratch[core.SnapshotEntry]
}

// NewServer builds a Server for one agent. source labels exported
// snapshots; instance is this run's identity (ETags are scoped to it); now
// stamps snapshots and drives the entry-body freshness bound, nil meaning
// time.Now.
func NewServer(agent *core.Agent, source, instance string, now func() time.Time) *Server {
	if now == nil {
		now = time.Now
	}
	maxAge := agent.Config().TTL / 4
	if maxAge <= 0 {
		maxAge = time.Second
	}
	return &Server{agent: agent, source: source, instance: instance, now: now, maxAge: maxAge}
}

// Stats returns the cache counters.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		NotModified: s.notModified.Load(),
	}
}

// Instance returns the identity ETags are currently scoped to.
func (s *Server) Instance() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instance
}

// Remint replaces the server's instance identity and drops every cached
// body. An embedding that reboots its agent in-process (simulators, tests)
// must remint: the new life's ETags must not validate against the old
// life's, and a cached body would resurrect withdrawn knowledge.
func (s *Server) Remint(instance string) {
	s.mu.Lock()
	s.instance = instance
	s.bodies = [numKinds]cachedBody{}
	s.etagOK = false
	s.mu.Unlock()
}

// etagFor renders the content token as a strong ETag. The documented shape
// is "<instance>/<version>"; a non-zero quarantine-marker fold appends a
// third segment so governor transitions that move no table version still
// invalidate (ETags are opaque to clients, so the extension is safe).
func etagFor(instance string, version, markers uint64) string {
	e := `"` + instance + `/` + strconv.FormatUint(version, 10)
	if markers != 0 {
		e += `/` + strconv.FormatUint(markers, 16)
	}
	return e + `"`
}

// etagMatch reports whether an If-None-Match header names etag (exact
// entity-tag match over the comma-separated list, plus the * wildcard).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		if strings.TrimSpace(part) == etag {
			return true
		}
	}
	return false
}

// DigestHandler serves GET /fleet/digest from the cache.
func (s *Server) DigestHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.serveCached(w, r, kindDigest)
	})
}

// SnapshotHandler serves GET /fleet/snapshot from the cache.
func (s *Server) SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.serveCached(w, r, kindSnapshot)
	})
}

// DeltaHandler serves GET /fleet/delta: the full-table form from the cache,
// versioned deltas and bucket resyncs encoded per request (they are
// request-shaped and answered with pooled scratch).
func (s *Server) DeltaHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.RawQuery == "" {
			// The common converged-fleet request; skip query parsing (which
			// allocates) on the hot path.
			s.serveCached(w, r, kindDelta)
			return
		}
		q := r.URL.Query()
		if bs := q.Get("buckets"); bs != "" {
			buckets, err := parseBuckets(bs)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.serveUncached(w, r, 0, buckets) // a bucket resync
			return
		}
		var since uint64
		if str := q.Get("since"); str != "" {
			v, err := strconv.ParseUint(str, 10, 64)
			if err != nil {
				http.Error(w, "bad since "+strconv.Quote(str), http.StatusBadRequest)
				return
			}
			since = v
		}
		if want := q.Get("instance"); want != "" && want != s.Instance() {
			// The cursor belongs to a previous life of this agent; its
			// versions are meaningless now. Serve everything.
			since = 0
		}
		if since == 0 {
			// The full-table delta is identical for every asker at a given
			// content token: cache-eligible.
			s.serveCached(w, r, kindDelta)
			return
		}
		s.serveSince(w, r, since)
	})
}

// serveCached answers one of the cache-eligible kinds: 304 on a matching
// If-None-Match (before any table work), the cached body when the content
// token still matches, a rebuild otherwise.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, kind int) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	version, markers := s.agent.ContentToken()

	s.mu.Lock()
	if !s.etagOK || s.etagVer != version || s.etagMark != markers {
		s.etagStr = etagFor(s.instance, version, markers)
		s.etagVer, s.etagMark, s.etagOK = version, markers, true
	}
	etag := s.etagStr
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.mu.Unlock()
		s.notModified.Add(1)
		s.counter("riptide_fleet_serve_not_modified").Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	b := &s.bodies[kind]
	fresh := b.valid && b.version == version && b.markers == markers
	if fresh && kind != kindDigest && s.now().Sub(b.filledAt) > s.maxAge {
		// Entry ages have drifted too far from the cached stamp; re-encode
		// even though the version stands still.
		fresh = false
	}
	if !fresh {
		if err := s.fillLocked(kind, version, markers, etag); err != nil {
			s.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.misses.Add(1)
		s.counter("riptide_fleet_serve_misses").Inc()
	} else {
		s.hits.Add(1)
		s.counter("riptide_fleet_serve_hits").Inc()
	}
	// Cached slices are immutable once published (rebuilds replace them),
	// so the writes below safely run outside mu.
	plain, gz := b.plain, b.gz
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	var n int
	if gz != nil && acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		n, _ = w.Write(gz)
	} else {
		n, _ = w.Write(plain)
	}
	s.counter("riptide_gossip_bytes_sent").Add(uint64(n))
}

// fillLocked rebuilds one cache slot under mu. The token was read before
// the export below, so a commit racing the rebuild can only store current
// bytes under a stale token — the next request re-reads the token,
// mismatches, and rebuilds; never serves stale.
func (s *Server) fillLocked(kind int, version, markers uint64, etag string) error {
	var plain []byte
	var err error
	switch kind {
	case kindDigest:
		plain, err = gossip.EncodeDigest(gossip.TableDigest(s.agent, s.source, s.instance))
	case kindDelta:
		plain, err = s.deltaLocked(nil, 0, nil)
	case kindSnapshot:
		entries, ver := s.agent.ExportDeltaAppend(s.coreBuf.Take(0), 0)
		defer s.coreBuf.Keep(entries, len(entries))
		plain, err = appendSnapshot(make([]byte, 0, bodySizeHint(len(entries))), Snapshot{
			Version:         Version,
			Source:          s.source,
			Instance:        s.instance,
			TableVersion:    ver,
			CreatedUnixNano: s.now().UnixNano(),
		}, entries)
	}
	if err != nil {
		return err
	}
	plain = append(plain, '\n')
	gz, err := gzipBytes(plain)
	if err != nil {
		// Compression is an optimization; serve plain only.
		gz = nil
	}
	s.bodies[kind] = cachedBody{
		valid:    true,
		version:  version,
		markers:  markers,
		etag:     etag,
		filledAt: s.now(),
		plain:    plain,
		gz:       gz,
	}
	return nil
}

// bodySizeHint is the capacity an encode of n entries starts from: an IPv4
// entry runs ≈85 bytes, so the usual body is one allocation.
func bodySizeHint(n int) int { return 256 + 96*n }

// deltaLocked exports the entries committed after since (0: the whole table)
// into the pooled scratch, keeps those in the given digest buckets when
// buckets is non-nil, and appends the delta's wire form to dst. An unfiltered
// whole table is marked full. Under mu.
func (s *Server) deltaLocked(dst []byte, since uint64, buckets []int) ([]byte, error) {
	entries, ver := s.agent.ExportDeltaAppend(s.coreBuf.Take(0), since)
	defer s.coreBuf.Keep(entries, len(entries))
	if buckets != nil {
		var want [gossip.NumBuckets]bool
		for _, b := range buckets {
			want[b] = true
		}
		kept := entries[:0]
		for _, e := range entries {
			if want[core.DigestBucketOfPrefix(e.Prefix)] {
				kept = append(kept, e)
			}
		}
		if entries = kept; len(kept) == 0 {
			entries = nil // a resync that selects nothing has always said null
		}
	}
	if hint := bodySizeHint(len(entries)); cap(dst) < hint {
		dst = make([]byte, 0, hint)
	}
	return gossip.AppendDelta(dst, gossip.Delta{
		Version:      gossip.WireVersion,
		Source:       s.source,
		Instance:     s.instance,
		TableVersion: ver,
		Since:        since,
		Full:         since == 0 && buckets == nil,
	}, entries)
}

// bodyPool recycles the plain bodies of the per-request (uncached) kinds:
// they live only until writeJSON has put them on the wire.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// serveSince answers a versioned delta (since > 0).
func (s *Server) serveSince(w http.ResponseWriter, r *http.Request, since uint64) {
	if since > s.agent.TableVersion() {
		// The cursor is from a previous life of this agent (or a peer
		// confusion); it cannot be interpreted. Send everything.
		s.serveCached(w, r, kindDelta)
		return
	}
	s.serveUncached(w, r, since, nil)
}

// serveUncached encodes one request-shaped delta — under mu, which guards
// the export scratch — and writes it outside the lock.
func (s *Server) serveUncached(w http.ResponseWriter, r *http.Request, since uint64, buckets []int) {
	buf := bodyPool.Get().(*[]byte)
	s.mu.Lock()
	data, err := s.deltaLocked((*buf)[:0], since, buckets)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data = append(data, '\n')
	n := writeJSON(w, r, data)
	s.counter("riptide_gossip_bytes_sent").Add(uint64(n))
	*buf = data
	bodyPool.Put(buf)
}

func (s *Server) counter(name string) *metrics.Counter {
	return s.agent.Metrics().Counter(name)
}
