package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"riptide/internal/core"
	"riptide/internal/gossip"
	"riptide/internal/metrics"
)

// SnapshotPath is the URL path riptided serves its fleet snapshot on.
const SnapshotPath = "/fleet/snapshot"

// maxSnapshotBytes bounds how much of a peer's response the puller will
// read — decompressed, when the response is gzipped — so a misbehaving peer
// cannot balloon this agent's memory. 10k entries are well under 1 MiB;
// 16 MiB leaves generous headroom.
const maxSnapshotBytes = 16 << 20

// Round modes: how one successful pull round synced, cheapest first.
const (
	// ModeDigest: the digest matched — the peers are converged and the
	// round moved no entries at all.
	ModeDigest = "digest"
	// ModeDelta: entries committed since the last round were fetched.
	ModeDelta = "delta"
	// ModeBuckets: the peer restarted; only divergent digest buckets were
	// fetched.
	ModeBuckets = "buckets"
	// ModeFull: the whole table came over the gossip delta endpoint.
	ModeFull = "full"
	// ModeSnapshot: the whole table came over the legacy snapshot
	// endpoint (gossip disabled, or the peer predates it).
	ModeSnapshot = "snapshot"
)

// Handler serves the agent's current snapshot as JSON on GET, gzipped when
// the client accepts it. now supplies the CreatedUnixNano stamp; nil means
// time.Now. instance stamps the snapshot with this agent run's identity so
// gossip-aware pullers can seed their delta cursors from a full pull; pass
// "" for none (persisted snapshots never carry one).
func Handler(agent *core.Agent, source, instance string, now func() time.Time) http.Handler {
	return NewServer(agent, source, instance, now).SnapshotHandler()
}

// NormalizePeerURL turns a peer spec from the -peers flag into a snapshot
// URL: a bare host:port gets the http scheme and the snapshot path; a URL
// with an explicit path is used as given.
func NormalizePeerURL(peer string) string {
	p := strings.TrimSpace(peer)
	if p == "" {
		return ""
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	// Split off scheme://host and check whether a path was given.
	rest := p[strings.Index(p, "://")+3:]
	if i := strings.IndexByte(rest, '/'); i < 0 {
		p += SnapshotPath
	} else if rest[i:] == "/" {
		p = p[:len(p)-1] + SnapshotPath
	}
	return p
}

// PeerHealth is the observable state of one peer, exposed via /status.
type PeerHealth struct {
	// URL is the peer's snapshot URL.
	URL string `json:"url"`
	// Healthy is true when the most recent pull succeeded.
	Healthy bool `json:"healthy"`
	// Failures counts consecutive failed pulls; reset on success.
	Failures int `json:"failures"`
	// LastError describes the most recent failure, empty when healthy.
	LastError string `json:"lastError,omitempty"`
	// Pulls and Merged count successful pulls and entries merged from this
	// peer over the puller's lifetime.
	Pulls  uint64 `json:"pulls"`
	Merged uint64 `json:"merged"`
	// LastSuccessUnixNano is the wall-clock time of the most recent
	// successful pull; 0 before the first.
	LastSuccessUnixNano int64 `json:"lastSuccessUnixNano,omitempty"`
	// LastBytes is how many bytes the most recent successful round moved
	// on the wire (compressed size when gzipped).
	LastBytes int64 `json:"lastBytes,omitempty"`
	// Mode is how the most recent successful round synced: one of the
	// Mode* constants ("digest", "delta", "buckets", "full", "snapshot").
	Mode string `json:"mode,omitempty"`
	// Per-mode round counts over the puller's lifetime.
	DigestHits    uint64 `json:"digestHits,omitempty"`
	DeltaPulls    uint64 `json:"deltaPulls,omitempty"`
	BucketPulls   uint64 `json:"bucketPulls,omitempty"`
	FullPulls     uint64 `json:"fullPulls,omitempty"`
	SnapshotPulls uint64 `json:"snapshotPulls,omitempty"`
	// NotModified counts digest rounds answered 304 — the cheapest form of
	// DigestHits, where not even the digest body crossed the wire.
	NotModified uint64 `json:"notModified,omitempty"`
}

// peerCursor is the gossip sync position against one peer: which instance
// of the peer it refers to, the table version synced through, and the
// digest of the peer's content as of the last sync.
type peerCursor struct {
	instance string
	version  uint64
	digest   *gossip.Digest
	// etag is the validator from the peer's last digest response, replayed
	// as If-None-Match so a converged peer can answer 304 with no body.
	etag string
}

// peerState is a peer plus its backoff bookkeeping and gossip cursor.
type peerState struct {
	health      PeerHealth
	nextAttempt time.Time // zero means eligible immediately
	// gossipBase is the peer's scheme://host root for the digest/delta
	// endpoints, derived from the snapshot URL; empty when the peer spec
	// used a custom path (legacy-only peer).
	gossipBase string
	cursor     peerCursor
}

// PullerConfig configures a Puller.
type PullerConfig struct {
	// Agent receives merged snapshots; required.
	Agent *core.Agent
	// Peers are the snapshot URLs to pull (pass through NormalizePeerURL).
	Peers []string
	// Interval between pull rounds. 0 means 30 seconds.
	Interval time.Duration
	// MaxBackoff caps the per-peer retry backoff. 0 means 8× Interval.
	MaxBackoff time.Duration
	// Timeout bounds each HTTP request. 0 means 5 seconds.
	Timeout time.Duration
	// Policy is applied to every merge; the zero value uses the agent's
	// TTL-derived defaults.
	Policy core.MergePolicy
	// Client is the HTTP client; nil means a default client (the per-pull
	// timeout still applies via request contexts).
	Client *http.Client
	// Now supplies time for backoff scheduling; nil means time.Now.
	Now func() time.Time
	// Logf, if set, receives pull errors; pulling continues regardless.
	Logf func(format string, args ...any)
	// Gossip enables the digest→delta→full sync ladder against peers
	// whose spec uses the standard snapshot path. Peers that cannot answer
	// the gossip endpoints (pre-gossip builds, custom-path specs) are
	// pulled as legacy full snapshots either way.
	Gossip bool
	// Jitter is the fraction of each retry backoff randomly subtracted so
	// a healed partition does not synchronize the whole fleet's retries
	// onto one instant. 0 means the default 0.2 (a 40s backoff retries
	// after 32–40s); negative disables jitter. Jitter only ever shortens
	// a backoff, never extends it.
	Jitter float64
	// randFloat supplies jitter randomness in [0,1); nil means math/rand.
	// A test seam.
	randFloat func() float64
}

// Puller periodically fetches snapshots from fleet peers and merges them
// into the local agent. Each peer fails independently: a down peer backs
// off exponentially (up to MaxBackoff) while the others keep being pulled,
// and the agent's own tick loop is never involved — peer trouble degrades
// to local-only learning, not to stalls.
type Puller struct {
	cfg PullerConfig

	mu    sync.Mutex
	peers []*peerState

	// roundMu serializes pull rounds, which share the read scratch and the
	// slice deltas are decoded into for the merge.
	roundMu sync.Mutex
	body    bodyReader
	entries core.Scratch[core.SnapshotEntry]

	// decodeFallback counts delta bodies the scanner declined and
	// encoding/json decoded at ten times the cost: a peer that always takes
	// that path is worth knowing about. Registered at construction, so it
	// reads 0 rather than being absent.
	decodeFallback *metrics.Counter
}

// NewPuller validates the config and returns a Puller.
func NewPuller(cfg PullerConfig) (*Puller, error) {
	if cfg.Agent == nil {
		return nil, fmt.Errorf("riptide/fleet: PullerConfig.Agent is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("riptide/fleet: Interval %v must be positive", cfg.Interval)
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 8 * cfg.Interval
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.Jitter > 1 {
		return nil, fmt.Errorf("riptide/fleet: Jitter %v must be at most 1", cfg.Jitter)
	}
	if cfg.randFloat == nil {
		cfg.randFloat = rand.Float64
	}
	p := &Puller{cfg: cfg, decodeFallback: cfg.Agent.Metrics().Counter("riptide_gossip_decode_fallback")}
	for _, raw := range cfg.Peers {
		u := NormalizePeerURL(raw)
		if u == "" {
			continue
		}
		p.peers = append(p.peers, &peerState{
			health:     PeerHealth{URL: u},
			gossipBase: strings.TrimSuffix(u, SnapshotPath),
		})
	}
	for _, ps := range p.peers {
		if ps.gossipBase == ps.health.URL {
			// The spec carried a custom path: there is nowhere sensible
			// to derive the gossip endpoints from.
			ps.gossipBase = ""
		}
	}
	return p, nil
}

// Health returns a snapshot of every peer's state, sorted by URL.
func (p *Puller) Health() []PeerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerHealth, 0, len(p.peers))
	for _, ps := range p.peers {
		out = append(out, ps.health)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Run pulls every Interval until ctx is canceled.
func (p *Puller) Run(ctx context.Context) {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.PullOnce(ctx)
		}
	}
}

// PullOnce attempts one pull round: every peer whose backoff has lapsed is
// fetched and merged. It returns the number of entries merged this round.
func (p *Puller) PullOnce(ctx context.Context) int {
	p.roundMu.Lock()
	defer p.roundMu.Unlock()
	defer p.body.trim()
	now := p.cfg.Now()

	p.mu.Lock()
	due := make([]*peerState, 0, len(p.peers))
	for _, ps := range p.peers {
		if !ps.nextAttempt.After(now) {
			due = append(due, ps)
		}
	}
	p.mu.Unlock()

	merged := 0
	for _, ps := range due {
		if ctx.Err() != nil {
			return merged
		}
		stats, round, cursor, err := p.pullPeer(ctx, ps)
		p.mu.Lock()
		if err != nil {
			ps.health.Healthy = false
			ps.health.Failures++
			ps.health.LastError = err.Error()
			ps.nextAttempt = p.cfg.Now().Add(p.jittered(p.backoff(ps.health.Failures)))
			p.mu.Unlock()
			p.cfg.Agent.Metrics().Counter("riptide_peer_pull_errors").Inc()
			if p.cfg.Logf != nil {
				p.cfg.Logf("fleet: pull %s: %v", ps.health.URL, err)
			}
			continue
		}
		ps.health.Healthy = true
		ps.health.Failures = 0
		ps.health.LastError = ""
		ps.health.Pulls++
		ps.health.Merged += uint64(stats.Merged)
		ps.health.LastSuccessUnixNano = p.cfg.Now().UnixNano()
		ps.health.LastBytes = round.bytes
		ps.health.Mode = round.mode
		switch round.mode {
		case ModeDigest:
			ps.health.DigestHits++
		case ModeDelta:
			ps.health.DeltaPulls++
		case ModeBuckets:
			ps.health.BucketPulls++
		case ModeFull:
			ps.health.FullPulls++
		case ModeSnapshot:
			ps.health.SnapshotPulls++
		}
		if round.notModified {
			ps.health.NotModified++
		}
		ps.cursor = cursor
		ps.nextAttempt = time.Time{}
		p.mu.Unlock()
		m := p.cfg.Agent.Metrics()
		m.Counter("riptide_peer_pulls").Inc()
		m.Counter("riptide_gossip_bytes_received").Add(uint64(round.bytes))
		m.Counter("riptide_gossip_rounds_" + round.mode).Inc()
		if round.notModified {
			m.Counter("riptide_gossip_not_modified").Inc()
		}
		merged += stats.Merged
	}
	return merged
}

// backoff returns the wait after `failures` consecutive failures: the pull
// interval doubled per extra failure, capped at MaxBackoff.
func (p *Puller) backoff(failures int) time.Duration {
	d := p.cfg.Interval
	for i := 1; i < failures; i++ {
		d *= 2
		if d >= p.cfg.MaxBackoff {
			return p.cfg.MaxBackoff
		}
	}
	if d > p.cfg.MaxBackoff {
		d = p.cfg.MaxBackoff
	}
	return d
}

// jittered subtracts a random slice of up to Jitter×d from a backoff, so
// peers that failed in unison (a partition) do not all retry in unison
// (a stampede onto the healed peer). Subtractive jitter never extends the
// backoff, so retry-latency expectations are upper-bounded by backoff().
func (p *Puller) jittered(d time.Duration) time.Duration {
	if p.cfg.Jitter <= 0 || d <= 0 {
		return d
	}
	return d - time.Duration(p.cfg.randFloat()*p.cfg.Jitter*float64(d))
}

// roundResult describes one successful pull round for health/metrics.
type roundResult struct {
	mode  string
	bytes int64
	// notModified marks a digest round that was answered 304 — converged,
	// with only headers on the wire.
	notModified bool
}

// pullPeer syncs from one peer, walking the gossip ladder when enabled and
// falling back to the legacy full snapshot whenever a gossip rung cannot be
// climbed (the peer predates gossip, restarted mid-round, or returned
// something unusable). The returned cursor is the caller's to store on
// success; pullPeer itself never mutates ps.
func (p *Puller) pullPeer(ctx context.Context, ps *peerState) (core.MergeStats, roundResult, peerCursor, error) {
	p.mu.Lock()
	base := ps.gossipBase
	cursor := ps.cursor
	snapURL := ps.health.URL
	p.mu.Unlock()

	var round roundResult
	if p.cfg.Gossip && base != "" {
		stats, gossipRound, next, err := p.pullGossip(ctx, base, cursor)
		round.bytes += gossipRound.bytes
		if err == nil {
			round.mode = gossipRound.mode
			round.notModified = gossipRound.notModified
			return stats, round, next, nil
		}
		if ctx.Err() != nil {
			return core.MergeStats{}, round, cursor, err
		}
		// The gossip rungs are an optimization; the snapshot endpoint is
		// the protocol floor. Any gossip failure falls through to it
		// within the same round (counting the bytes already spent).
		if p.cfg.Logf != nil {
			p.cfg.Logf("fleet: gossip %s: %v (falling back to full snapshot)", base, err)
		}
	}

	data, n, err := p.fetch(ctx, snapURL)
	round.bytes += n
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	snap, err := Decode(data)
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	stats := p.merge(snap.CoreEntries(), snapURL)
	round.mode = ModeSnapshot
	next := peerCursor{}
	if snap.Instance != "" {
		// A v3 snapshot seeds the gossip cursor: the next round can open
		// with a digest compare and a delta instead of another full pull.
		digest := gossip.Compute(snap.Entries, snap.Source, snap.Instance, snap.TableVersion)
		next = peerCursor{instance: snap.Instance, version: snap.TableVersion, digest: &digest}
	}
	return stats, round, next, nil
}

// pullGossip walks the ladder: digest first, then whichever of
// delta/buckets/full the digest says is needed.
func (p *Puller) pullGossip(ctx context.Context, base string, cursor peerCursor) (core.MergeStats, roundResult, peerCursor, error) {
	var round roundResult
	data, n, respETag, notModified, err := p.fetchCond(ctx, base+DigestPath, cursor.etag)
	round.bytes += n
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	if notModified {
		// The validator matched: the peer's content is exactly what the
		// cursor already describes, and only headers crossed the wire. The
		// cursor stands as-is.
		round.mode = ModeDigest
		round.notModified = true
		return core.MergeStats{}, round, cursor, nil
	}
	d, err := gossip.DecodeDigest(data)
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}

	if cursor.digest != nil && gossip.ContentEqual(d, *cursor.digest) {
		// Converged: the round cost one digest, no entries moved. The
		// cursor fast-forwards even across an instance change — identical
		// content needs nothing fetched, whatever the counter says.
		round.mode = ModeDigest
		return core.MergeStats{}, round, peerCursor{instance: d.Instance, version: d.TableVersion, digest: &d, etag: respETag}, nil
	}

	deltaURL := base + DeltaPath
	mode := ModeFull
	switch {
	case d.Instance != "" && d.Instance == cursor.instance && cursor.version > 0:
		// Same instance, known position: ask only for what changed.
		deltaURL += "?since=" + strconv.FormatUint(cursor.version, 10) +
			"&instance=" + url.QueryEscape(cursor.instance)
		mode = ModeDelta
	case cursor.digest != nil:
		// The peer restarted (or first contact carried a digest from a
		// persisted snapshot): fetch only the buckets that diverge from
		// what we remember of its content.
		diff := gossip.DiffBuckets(*cursor.digest, d)
		deltaURL += "?buckets=" + bucketList(diff)
		mode = ModeBuckets
	}
	data, n, err = p.fetch(ctx, deltaURL)
	round.bytes += n
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	// A delta or a bucket resync decodes straight into the merge's input, on
	// the slice the last round of that size left; a full table keeps its text
	// for the digest below and converts once.
	delta, entries, scanned, err := gossip.DecodeDeltaAppend(p.entries.Take(0), data)
	if !scanned {
		p.decodeFallback.Inc()
	}
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	if mode == ModeDelta && !delta.Full {
		// A delta answers one cursor of one table. Adopting the table
		// version of a delta computed against some other cursor, or of
		// another boot's table, would skip for good whatever changed
		// between ours and the one it answers.
		switch {
		case delta.Since != cursor.version:
			return core.MergeStats{}, round, cursor, fmt.Errorf("delta since %d does not echo the cursor %d", delta.Since, cursor.version)
		case delta.Instance != cursor.instance:
			return core.MergeStats{}, round, cursor, fmt.Errorf("delta from instance %q answers a cursor on instance %q", delta.Instance, cursor.instance)
		}
	}
	if delta.Full {
		// The peer judged our cursor unusable (instance mismatch raced
		// between the two requests, version compacted, ...).
		mode = ModeFull
		entries = gossip.ToCore(delta.Entries)
	}
	stats := p.merge(entries, deltaURL)
	if !delta.Full {
		p.entries.Keep(entries, len(entries))
	}
	round.mode = mode

	// The ETag travels with the digest it validated: if the table moved
	// between the digest and delta fetches it is already stale, and the
	// mismatch next round just costs one digest body — never correctness.
	next := peerCursor{instance: delta.Instance, version: delta.TableVersion, etag: respETag}
	if mode == ModeFull {
		// A full table is complete knowledge: recompute the digest from
		// it rather than trusting the pre-transfer digest (the table may
		// have moved between the two requests; being conservative here
		// only costs a delta next round, never correctness).
		digest := gossip.Compute(delta.Entries, delta.Source, delta.Instance, delta.TableVersion)
		next.digest = &digest
	} else {
		// Deltas and bucket fetches do not reveal the whole table; the
		// served digest is the best content summary available.
		next.digest = &d
	}
	return stats, round, next, nil
}

// merge folds received entries into the agent, logging (not failing) route
// programming errors: they are the agent's problem, not the peer's — the
// pull itself succeeded.
func (p *Puller) merge(entries []core.SnapshotEntry, from string) core.MergeStats {
	stats, err := p.cfg.Agent.MergeSnapshot(entries, p.cfg.Policy)
	if err != nil && p.cfg.Logf != nil {
		p.cfg.Logf("fleet: merge from %s: %v", from, err)
	}
	return stats
}

// fetch GETs a fleet endpoint, advertising gzip and enforcing the
// decompressed-size cap, and reports the payload plus wire bytes moved. The
// payload aliases the puller's read scratch: decode it before the next fetch
// (every decoder here copies what it keeps).
func (p *Puller) fetch(ctx context.Context, url string) ([]byte, int64, error) {
	data, n, _, _, err := p.fetchCond(ctx, url, "")
	return data, n, err
}

// fetchCond is fetch plus conditional-request support: a non-empty etag is
// sent as If-None-Match, and a 304 answer comes back as notModified=true
// with no payload. The response's own ETag (when present) is returned so
// the caller can arm the next round's validator.
func (p *Puller) fetchCond(ctx context.Context, url, etag string) (data []byte, wireBytes int64, respETag string, notModified bool, err error) {
	reqCtx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, "", false, err
	}
	// Setting the header explicitly (rather than letting net/http add it)
	// disables the transport's transparent decompression, so the
	// decompressed-size cap in bodyReader.read sees every byte.
	req.Header.Set("Accept-Encoding", "gzip")
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, "", false, err
	}
	defer resp.Body.Close()
	respETag = resp.Header.Get("ETag")
	if etag != "" && resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, respETag, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, "", false, fmt.Errorf("status %s", resp.Status)
	}
	data, wireBytes, err = p.body.read(resp, maxSnapshotBytes)
	return data, wireBytes, respETag, false, err
}

// bucketList renders bucket indices as the comma-separated form the delta
// endpoint parses.
func bucketList(buckets []int) string {
	var b strings.Builder
	for i, idx := range buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return b.String()
}
