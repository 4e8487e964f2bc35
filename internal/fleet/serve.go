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

// The fleet endpoints riptided mounts on its status address.
const (
	// DeltaPath serves the one sync request:
	//
	//	GET /fleet/delta?since=<version>&instance=<id>   If-None-Match: <etag>
	//
	// answered 304 while the ETag still names the table, with the entries
	// committed after <version> when the cursor is usable against this run
	// (gossip.Cursor.Usable), and with the full table otherwise (no cursor,
	// another instance's, or one ahead of the table).
	DeltaPath = "/fleet/delta"
	// SnapshotPath serves the whole table in the persisted-file format, for
	// operators; pullers do not use it.
	SnapshotPath = "/fleet/snapshot"
	// DigestPath was the retired content-digest endpoint.
	//
	// Deprecated: nothing serves it; it stays only for bench/rig.go.
	DigestPath = "/fleet/digest"
)

// Encode-once serving. Server caches the encoded full-table delta and
// snapshot bodies, keyed by the agent's content token (table version +
// quarantine-marker fold) under this run's instance, so serving N peers costs
// one encode per table change, not N per interval. The delta body is binary
// and sent as it is; the snapshot's JSON is kept gzipped alone, and the rare
// client that refuses gzip (an operator's curl) gets it decoded on the way
// out. On top of the cache sits HTTP revalidation: responses carry a strong
// ETag derived from the same token (gossip.ETag), and a request presenting it
// via If-None-Match gets 304 Not Modified — converged peers exchange headers
// only.

// ServeStats counts what the response cache did, for /status.
type ServeStats struct {
	// Hits served a cached body without touching the agent's table.
	Hits uint64 `json:"hits"`
	// Misses rebuilt a body because the table moved, the cache was cold, or
	// an entry-bearing body aged out.
	Misses uint64 `json:"misses"`
	// NotModified answered 304 to a matching If-None-Match — no body.
	NotModified uint64 `json:"notModified"`
}

// Cache slots, one encoded body retained per kind — the cache's memory
// bound is one binary and one gzipped encoding of the table, regardless of
// peer count or request rate.
const (
	kindDelta = iota
	kindSnapshot
	numKinds
)

// cachedBody is one encoded response, built at a content token. A delta body
// is plain. A snapshot body — JSON with a trailing newline — is gz, gzipped,
// and size bytes decoded; it is plain only when compressing it failed.
type cachedBody struct {
	valid    bool
	version  uint64
	markers  uint64
	filledAt time.Time
	gz       []byte
	size     int
	plain    []byte
}

// Server serves the fleet endpoints (delta, snapshot) for one agent with
// version-keyed response caching. Construct with NewServer and mount the
// *Handler methods.
//
// Correctness note: cached bodies embed per-entry ages measured at encode
// time, and ages keep growing while the version stands still. Cached bodies
// are therefore reused only while younger than a quarter of the agent's TTL —
// bounded staleness, invisible at gossip cadence, and the conservative merge
// policy discounts by age anyway.
type Server struct {
	agent  *core.Agent
	source string
	// instance is this run's identity. A server is bound to one agent for
	// its life, so an embedding that reboots its agent in-process builds a
	// new server under a new instance: the new life's ETags never validate
	// against the old life's, and no cached body outlives its table.
	instance string
	now      func() time.Time
	maxAge   time.Duration

	hits        atomic.Uint64
	misses      atomic.Uint64
	notModified atomic.Uint64

	// mu guards the cache slots and the pooled encode scratch. Miss-path
	// rebuilds run under it, so concurrent requests for the same cold body
	// encode once, not once each.
	mu     sync.Mutex
	bodies [numKinds]cachedBody

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

// Instance returns the identity ETags are scoped to.
func (s *Server) Instance() string { return s.instance }

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

// DigestHandler answers 404: the content digest is retired.
//
// Deprecated: it stays only for bench/rig.go, which still mounts it.
func (s *Server) DigestHandler() http.Handler {
	return http.NotFoundHandler()
}

// SnapshotHandler serves GET /fleet/snapshot from the cache.
func (s *Server) SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if version, markers, etag, ok := s.revalidate(w, r); ok {
			s.serveCached(w, r, kindSnapshot, version, markers, etag)
		}
	})
}

// DeltaHandler serves GET /fleet/delta (see DeltaPath): a 304 decided before
// the query is parsed, a versioned delta encoded per request (pooled
// scratch), or the full table from the cache.
func (s *Server) DeltaHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		version, markers, etag, ok := s.revalidate(w, r)
		if !ok {
			return
		}
		var cursor gossip.Cursor
		if r.URL.RawQuery != "" {
			q := r.URL.Query()
			if str := q.Get("since"); str != "" {
				v, err := strconv.ParseUint(str, 10, 64)
				if err != nil {
					http.Error(w, "bad since "+strconv.Quote(str), http.StatusBadRequest)
					return
				}
				cursor = gossip.Cursor{Instance: q.Get("instance"), Version: v}
			}
		}
		if cursor.Usable(s.Instance(), version) {
			s.serveSince(w, cursor.Version, etag)
			return
		}
		// The full table is identical for every asker at a given content
		// token: cache-eligible.
		s.serveCached(w, r, kindDelta, version, markers, etag)
	})
}

// revalidate refuses anything but GET, reads the content token and answers
// 304 when the request's If-None-Match names it — before any table work.
// Otherwise it returns the token and its ETag, and ok is true: the caller
// writes the body.
func (s *Server) revalidate(w http.ResponseWriter, r *http.Request) (version, markers uint64, etag string, ok bool) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return 0, 0, "", false
	}
	version, markers = s.agent.ContentToken()
	s.mu.Lock()
	if !s.etagOK || s.etagVer != version || s.etagMark != markers {
		s.etagStr = gossip.ETag(s.instance, version, markers)
		s.etagVer, s.etagMark, s.etagOK = version, markers, true
	}
	etag = s.etagStr
	s.mu.Unlock()
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		s.counter("riptide_fleet_serve_not_modified").Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return 0, 0, "", false
	}
	return version, markers, etag, true
}

// serveCached answers one of the cache-eligible kinds at the given token:
// the cached body when it was built at that token, a rebuild otherwise.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, kind int, version, markers uint64, etag string) {
	s.mu.Lock()
	b := &s.bodies[kind]
	fresh := b.valid && b.version == version && b.markers == markers
	if fresh && s.now().Sub(b.filledAt) > s.maxAge {
		// Entry ages have drifted too far from the cached stamp; re-encode
		// even though the version stands still.
		fresh = false
	}
	if !fresh {
		if err := s.fillLocked(kind, version, markers); err != nil {
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
	body := *b
	s.mu.Unlock()

	w.Header().Set("Content-Type", contentType[kind])
	w.Header().Set("ETag", etag)
	var n int
	switch {
	case body.gz == nil:
		n = writeBody(w, body.plain)
	case acceptsGzip(r):
		w.Header().Set("Content-Encoding", "gzip")
		n = writeBody(w, body.gz)
	default:
		n = writeGunzipped(w, body.gz, body.size)
	}
	s.counter("riptide_gossip_bytes_sent").Add(uint64(n))
}

// fillLocked rebuilds one cache slot under mu. The token was read before
// the export below, so a commit racing the rebuild can only store current
// bytes under a stale token — the next request re-reads the token,
// mismatches, and rebuilds; never serves stale.
func (s *Server) fillLocked(kind int, version, markers uint64) error {
	b := cachedBody{valid: true, version: version, markers: markers, filledAt: s.now()}
	if kind == kindDelta {
		// Encoded into pooled scratch and kept at its exact size: the
		// encode's capacity hint is generous, and the cache holds the body
		// until the table moves.
		buf := bodyPool.Get().(*[]byte)
		plain, err := s.deltaLocked((*buf)[:0], 0)
		if err != nil {
			return err
		}
		b.plain = append([]byte(nil), plain...)
		*buf = plain
		bodyPool.Put(buf)
		s.bodies[kind] = b
		return nil
	}
	entries, ver := s.agent.ExportDeltaAppend(s.coreBuf.Take(0), 0)
	defer s.coreBuf.Keep(entries, len(entries))
	// An IPv4 entry runs ≈85 bytes of JSON: the usual body is one allocation.
	plain, err := appendSnapshot(make([]byte, 0, 256+96*len(entries)), Snapshot{
		Version:         Version,
		Source:          s.source,
		Instance:        s.instance,
		TableVersion:    ver,
		CreatedUnixNano: s.now().UnixNano(),
	}, entries)
	if err != nil {
		return err
	}
	plain = append(plain, '\n')
	b.size = len(plain)
	if b.gz, err = gzipBytes(plain); err != nil {
		// Compression is an optimization; serve plain only.
		b.gz, b.plain = nil, plain
	}
	s.bodies[kind] = b
	return nil
}

// contentType is each kind's media type: the delta wire is binary
// (gossip.AppendDelta), the snapshot JSON.
var contentType = [numKinds]string{
	kindDelta:    "application/octet-stream",
	kindSnapshot: "application/json",
}

// deltaLocked exports the entries committed after since (0: the whole table,
// marked full) into the pooled scratch and appends the delta's wire form to
// dst. Under mu.
func (s *Server) deltaLocked(dst []byte, since uint64) ([]byte, error) {
	entries, ver := s.agent.ExportDeltaAppend(s.coreBuf.Take(0), since)
	defer s.coreBuf.Keep(entries, len(entries))
	// An IPv4 host route runs 6 to 12 bytes: the usual body is one
	// allocation.
	if hint := 64 + 16*len(entries); cap(dst) < hint {
		dst = make([]byte, 0, hint)
	}
	return gossip.AppendDelta(dst, gossip.Delta{
		Version:      gossip.WireVersion,
		Source:       s.source,
		Instance:     s.instance,
		TableVersion: ver,
		Since:        since,
		Full:         since == 0,
	}, entries)
}

// bodyPool recycles the bodies of versioned deltas: they live only until
// they are on the wire.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// serveSince encodes one versioned delta — under mu, which guards the export
// scratch — and writes it outside the lock with the ETag of the token read
// before the export, so the peer's next round revalidates conservatively.
func (s *Server) serveSince(w http.ResponseWriter, since uint64, etag string) {
	buf := bodyPool.Get().(*[]byte)
	s.mu.Lock()
	data, err := s.deltaLocked((*buf)[:0], since)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType[kindDelta])
	w.Header().Set("ETag", etag)
	n := writeBody(w, data)
	s.counter("riptide_gossip_bytes_sent").Add(uint64(n))
	*buf = data
	bodyPool.Put(buf)
}

func (s *Server) counter(name string) *metrics.Counter {
	return s.agent.Metrics().Counter(name)
}
