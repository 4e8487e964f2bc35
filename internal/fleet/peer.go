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

// maxSnapshotBytes bounds how much of a peer's response the puller will
// read — decompressed, when the response is gzipped — so a misbehaving peer
// cannot balloon this agent's memory. 10k entries are well under 1 MiB;
// 16 MiB leaves generous headroom.
const maxSnapshotBytes = 16 << 20

// Round modes: how one successful pull round synced.
const (
	// ModeNotModified: the peer answered 304 to the round's If-None-Match —
	// nothing changed since the cursor, and only headers crossed the wire.
	ModeNotModified = "not_modified"
	// ModeDelta: the entries committed after the cursor were fetched.
	ModeDelta = "delta"
	// ModeFull: the whole table was fetched (first contact, or a cursor
	// the peer could not use).
	ModeFull = "full"
)

// NormalizePeerURL turns a peer spec from the -peers flag into the peer's
// base URL (scheme://host[:port]): a bare host:port gets the http scheme,
// and a path of "/" or of SnapshotPath is stripped, so peer lists written
// as snapshot URLs keep working. Any other path is an error: the puller
// derives the delta endpoint from the base, and a custom path would leave
// it nowhere to pull from. A blank spec returns "".
func NormalizePeerURL(peer string) (string, error) {
	p := strings.TrimSpace(peer)
	if p == "" {
		return "", nil
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	rest := p[strings.Index(p, "://")+3:]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return p, nil
	}
	switch rest[i:] {
	case "/", SnapshotPath:
		return p[:len(p)-len(rest)+i], nil
	}
	return "", fmt.Errorf("riptide/fleet: peer %q: path %q is not served by the fleet protocol (give host:port or a base URL)", peer, rest[i:])
}

// PeerHealth is the observable state of one peer, exposed via /status.
type PeerHealth struct {
	// URL is the peer's base URL.
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
	// Mode* constants ("not_modified", "delta", "full").
	Mode string `json:"mode,omitempty"`
	// Per-mode round counts over the puller's lifetime.
	NotModified uint64 `json:"notModified,omitempty"`
	DeltaPulls  uint64 `json:"deltaPulls,omitempty"`
	FullPulls   uint64 `json:"fullPulls,omitempty"`
	// DigestHits and BucketPulls counted rounds of the retired digest
	// ladder; they stay 0.
	//
	// Deprecated: they stay only for bench/rig.go.
	DigestHits  uint64 `json:"-"`
	BucketPulls uint64 `json:"-"`
}

// peerCursor is the sync position against one peer: the gossip cursor, the
// validator from the peer's last answer (replayed as If-None-Match), and the
// request URL, built once per cursor change rather than once per round.
type peerCursor struct {
	gossip.Cursor
	etag string
	url  string
}

// peerState is a peer plus its backoff bookkeeping and cursor.
type peerState struct {
	health      PeerHealth
	nextAttempt time.Time // zero means eligible immediately
	cursor      peerCursor
}

// PullerConfig configures a Puller.
type PullerConfig struct {
	// Agent receives merged snapshots; required.
	Agent *core.Agent
	// Peers are the peer specs to pull: host:port or a base URL (see
	// NormalizePeerURL).
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
	// Gossip is ignored: every peer is pulled with the one conditional
	// ?since= request.
	//
	// Deprecated: it stays only for bench/rig.go.
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

// Puller periodically fetches table deltas from fleet peers and merges them
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
		base, err := NormalizePeerURL(raw)
		if err != nil {
			return nil, err
		}
		if base == "" {
			continue
		}
		p.peers = append(p.peers, &peerState{
			health: PeerHealth{URL: base},
			cursor: advance(peerCursor{}, base, gossip.Cursor{}, ""),
		})
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
		case ModeNotModified:
			ps.health.NotModified++
		case ModeDelta:
			ps.health.DeltaPulls++
		case ModeFull:
			ps.health.FullPulls++
		}
		ps.cursor = cursor
		ps.nextAttempt = time.Time{}
		p.mu.Unlock()
		m := p.cfg.Agent.Metrics()
		m.Counter("riptide_peer_pulls").Inc()
		m.Counter("riptide_gossip_bytes_received").Add(uint64(round.bytes))
		m.Counter("riptide_gossip_rounds_" + round.mode).Inc()
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
}

// pullPeer runs one round against a peer: the conditional request its cursor
// calls for, then the merge of whatever came back. The returned cursor is the
// caller's to store on success; pullPeer itself never mutates ps.
func (p *Puller) pullPeer(ctx context.Context, ps *peerState) (core.MergeStats, roundResult, peerCursor, error) {
	p.mu.Lock()
	cursor := ps.cursor
	base := ps.health.URL
	p.mu.Unlock()

	var round roundResult
	data, n, etag, notModified, err := p.fetch(ctx, cursor.url, cursor.etag)
	round.bytes = n
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	if notModified {
		// The validator matched: the peer's table is exactly what the
		// cursor already describes. The cursor stands as-is.
		round.mode = ModeNotModified
		return core.MergeStats{}, round, cursor, nil
	}
	// The entries decode straight into the merge's input, on the slice the
	// last round of that size left.
	delta, entries, scanned, err := gossip.DecodeDeltaAppend(p.entries.Take(0), data)
	if !scanned {
		p.decodeFallback.Inc()
	}
	if err != nil {
		return core.MergeStats{}, round, cursor, err
	}
	round.mode = ModeFull
	if !delta.Full {
		// A delta answers one cursor of one table. Adopting the table
		// version of a delta computed against some other cursor, or of
		// another boot's table, would skip for good whatever changed
		// between ours and the one it answers.
		switch {
		case delta.Since != cursor.Version:
			return core.MergeStats{}, round, cursor, fmt.Errorf("delta since %d does not echo the cursor %d", delta.Since, cursor.Version)
		case !cursor.Usable(delta.Instance, delta.TableVersion):
			return core.MergeStats{}, round, cursor, fmt.Errorf("delta from instance %q at version %d cannot answer a cursor on instance %q at %d",
				delta.Instance, delta.TableVersion, cursor.Instance, cursor.Version)
		}
		round.mode = ModeDelta
	}
	stats := p.merge(entries, base)
	p.entries.Keep(entries, len(entries))
	return stats, round, advance(cursor, base, gossip.Cursor{Instance: delta.Instance, Version: delta.TableVersion}, etag), nil
}

// advance moves a peer cursor to next, armed with the answer's validator
// (none when the peer sent no ETag: the next round is unconditional). The
// request URL is rebuilt only when the cursor moved, and carries ?since= only
// for a cursor a peer could use.
func advance(cur peerCursor, base string, next gossip.Cursor, etag string) peerCursor {
	if next != cur.Cursor || cur.url == "" {
		cur.url = base + DeltaPath
		if next.Usable(next.Instance, next.Version) {
			cur.url += "?since=" + strconv.FormatUint(next.Version, 10) + "&instance=" + url.QueryEscape(next.Instance)
		}
	}
	cur.Cursor, cur.etag = next, etag
	return cur
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
// decompressed-size cap, and reports the payload plus wire bytes moved. A
// non-empty etag is sent as If-None-Match, and a 304 answer to it comes back
// as notModified with no payload; a 304 to a request that named no validator
// is an error. The response's ETag is returned to arm the next round. The
// payload aliases the puller's read scratch: decode it before the next fetch
// (every decoder here copies what it keeps).
func (p *Puller) fetch(ctx context.Context, url, etag string) (data []byte, wireBytes int64, respETag string, notModified bool, err error) {
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
