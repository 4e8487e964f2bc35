// Package core implements the Riptide algorithm (Flores, Khakpour, Bedi —
// ICDCS 2016, Algorithm 1): learn the congestion level of the paths between
// datacenters from live connections and program the initial congestion
// window of future connections accordingly.
//
// Every update interval i_u the agent:
//
//  1. samples the congestion window of every open connection (the `ss` step),
//  2. groups observations by destination (host /32 or a coarser prefix),
//  3. reduces each group to one value with a Combiner (the paper uses the
//     average; max and traffic-weighted variants are provided, matching the
//     paper's "Combination Algorithm" discussion),
//  4. folds the group value into per-destination history (EWMA with weight
//     alpha on the historical value, by default),
//  5. clamps the result to [CMin, CMax], and
//  6. programs a route to the destination with that initial window (the
//     `ip route ... initcwnd N` step), refreshing the entry's TTL.
//
// Entries that receive no observations for TTL expire: their route is
// removed, restoring the kernel default initial window — the conservative
// fallback the paper prescribes when Riptide has no information.
//
// The agent is backend-agnostic: internal/netsim + internal/kernel provide a
// simulated backend, internal/netlink the real Linux one (the sock_diag and
// rtnetlink interfaces that ss(8) and ip(8) wrap).
//
// Each poll round runs as a three-stage pipeline (see tick.go) so backend
// I/O never blocks readers; RetryingRouteProgrammer (retry.go) adds bounded
// backoff and a conservative clear-the-route fallback around flaky route
// substrates, and a sampler circuit breaker degrades to expiry-only rounds
// when sampling keeps failing.
package core

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"riptide/internal/metrics"
)

// Defaults matching the paper's deployment (Sections III-B and IV-A).
const (
	DefaultUpdateInterval = 1 * time.Second  // i_u
	DefaultTTL            = 90 * time.Second // t
	DefaultAlpha          = 0.75             // history weight
	DefaultCMax           = 100              // best c_max per Figure 10
	DefaultCMin           = 10               // never below the kernel default
	DefaultPrefixBits     = 32               // per-host routes
)

// Circuit-breaker defaults: a production sampler (a sock_diag dump) that
// fails this many ticks in a row is almost certainly wedged; degrading to
// expiry-only ticks keeps the TTL safety net alive without hammering a
// broken substrate.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// Common errors.
var (
	ErrClosed = errors.New("riptide/core: agent closed")
)

// Observation is one sampled connection: what one line of `ss -i` tells
// Riptide.
type Observation struct {
	// Dst is the remote address of the connection.
	Dst netip.Addr
	// Cwnd is the current congestion window in segments.
	Cwnd int
	// RTT is the connection's smoothed round-trip time (informational).
	RTT time.Duration
	// BytesAcked is cumulative payload acknowledged; the traffic-weighted
	// combiner uses it as its weight.
	BytesAcked int64

	// Loss telemetry, consumed by the safety governor (internal/guard).
	// Samplers that cannot observe a field leave it zero.

	// Retrans is the cumulative count of retransmitted segments (ss's
	// `retrans:<inflight>/<total>` total).
	Retrans int64
	// SegsOut is the cumulative count of segments sent, including
	// retransmissions (ss's `segs_out:N`). Retrans/SegsOut is the
	// connection's lifetime loss rate.
	SegsOut int64
}

// ConnectionSampler supplies the current set of open connections.
// Implementations: the simulated kernel's connection table
// (internal/cdn), or a sock_diag dump (internal/netlink).
//
// SampleConnections appends the current observations to buf — which may be
// nil — and returns the resulting slice. buf's array is last round's stream:
// the agent keeps nothing of it that the sampler may not overwrite, so a
// steady-state sampler decodes over it and performs no per-tick slice
// allocation once the array has grown to the working-set size. The caller
// owns the returned slice until its next SampleConnections call; samplers
// with a fixed observation set may ignore buf and return their own slice,
// but must then never mutate it between calls; once one has ignored a buf
// it was handed, the agent hands it nil.
type ConnectionSampler interface {
	SampleConnections(buf []Observation) ([]Observation, error)
}

// RouteProgrammer installs and removes per-destination initcwnd overrides.
// Implementations: the simulated kernel route table, or `ip route` commands.
//
// A programmer that keeps state for a prefix across calls may also have a
// ForgetRoute(netip.Prefix) method: the agent calls it when it deletes a
// destination it never installed (its installs kept failing, or the governor
// held it back), whose state no clear will ever reset.
// RetryingRouteProgrammer has one, for its failure counts; a decorator that
// wraps a programmer with one must forward the call, or that state outlives
// the destination.
type RouteProgrammer interface {
	// SetInitCwnd installs (or replaces) a route for prefix with the
	// given initial window.
	SetInitCwnd(prefix netip.Prefix, cwnd int) error
	// ClearInitCwnd removes the override, restoring the default.
	ClearInitCwnd(prefix netip.Prefix) error
}

// RouteOp is one element of a batched route-programming request: install a
// window override (Clear false) or withdraw one (Clear true, Window
// ignored).
type RouteOp struct {
	Prefix netip.Prefix
	Window int
	Clear  bool
}

// BatchRouteProgrammer is an optional extension of RouteProgrammer for
// backends that can apply a whole route set in one operation — the simulated
// kernel under a single lock acquisition, or one rtnetlink message batch for
// the entire tick. The agent prefers this path whenever the configured
// programmer implements it.
//
// ProgramRoutes applies every op, continuing past individual failures. It
// returns nil when the whole batch succeeded, otherwise a slice of exactly
// len(ops) per-op errors (nil entries mark successes). A backend that cannot
// attribute a batch failure to specific members may mark every member
// failed; decorators such as RetryingRouteProgrammer then re-drive the
// members individually to recover attribution.
type BatchRouteProgrammer interface {
	RouteProgrammer
	ProgramRoutes(ops []RouteOp) []error
}

// Combiner reduces one destination's observations to a single window value.
type Combiner interface {
	Name() string
	// Combine is called with at least one observation.
	Combine(obs []Observation) float64
}

// AverageCombiner is the paper's default: the mean of the observed windows.
type AverageCombiner struct{}

// Name implements Combiner.
func (AverageCombiner) Name() string { return "average" }

// Combine implements Combiner. It reads only Cwnd, as readsCwndOnly records.
func (AverageCombiner) Combine(obs []Observation) float64 {
	sum := 0.0
	for _, o := range obs {
		sum += float64(o.Cwnd)
	}
	return sum / float64(len(obs))
}

// MaxCombiner is the paper's "more aggressive" variant: the maximum observed
// window, "the most the link is capable of handling".
type MaxCombiner struct{}

// Name implements Combiner.
func (MaxCombiner) Name() string { return "max" }

// Combine implements Combiner. It reads only Cwnd, as readsCwndOnly records.
func (MaxCombiner) Combine(obs []Observation) float64 {
	best := 0.0
	for _, o := range obs {
		if v := float64(o.Cwnd); v > best {
			best = v
		}
	}
	return best
}

// TrafficWeightedCombiner is the paper's "more conservative" variant: each
// window weighted by the traffic the connection has carried, so lightly used
// connections (whose windows may just be untested initial values) count less.
type TrafficWeightedCombiner struct{}

// Name implements Combiner.
func (TrafficWeightedCombiner) Name() string { return "traffic-weighted" }

// Combine implements Combiner.
func (TrafficWeightedCombiner) Combine(obs []Observation) float64 {
	var weighted, total float64
	for _, o := range obs {
		w := float64(o.BytesAcked)
		if w <= 0 {
			w = 1 // connections with no traffic still count minimally
		}
		weighted += w * float64(o.Cwnd)
		total += w
	}
	return weighted / total
}

// readsCwndOnly reports whether c is a shipped Combiner that reads nothing of
// an observation but its window, so that the plan ignores a change to any
// other field. It must list only Combiners whose Combine reads Cwnd alone;
// any other Combiner is compared on the whole observation.
func readsCwndOnly(c Combiner) bool {
	switch c.(type) {
	case AverageCombiner, MaxCombiner:
		return true
	}
	return false
}

// combiners is the one table of combiner names: riptided's -combiner flag
// and a scenario file's combiner key both resolve through CombinerByName.
var combiners = []Combiner{AverageCombiner{}, MaxCombiner{}, TrafficWeightedCombiner{}}

// CombinerByName returns the shipped combiner whose Name is name, and false
// when none is.
func CombinerByName(name string) (Combiner, bool) {
	for _, c := range combiners {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// HistoryPolicy folds each round's combined value into per-destination
// history. Implementations must be safe to call from a single goroutine.
type HistoryPolicy interface {
	Name() string
	// Update folds value into dst's history and returns the smoothed
	// result.
	Update(dst netip.Prefix, value float64) float64
	// Forget drops dst's history (called when an entry expires).
	Forget(dst netip.Prefix)
}

// EWMAHistory is the paper's default: next = alpha*prev + (1-alpha)*value.
type EWMAHistory struct {
	alpha float64
	state map[netip.Prefix]float64
}

// NewEWMAHistory returns an EWMAHistory with the given history weight.
func NewEWMAHistory(alpha float64) (*EWMAHistory, error) {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("riptide/core: alpha %v out of range [0,1]", alpha)
	}
	return &EWMAHistory{alpha: alpha, state: make(map[netip.Prefix]float64)}, nil
}

// Name implements HistoryPolicy.
func (h *EWMAHistory) Name() string { return "ewma" }

// Update implements HistoryPolicy.
func (h *EWMAHistory) Update(dst netip.Prefix, value float64) float64 {
	prev, ok := h.state[dst]
	if !ok {
		h.state[dst] = value
		return value
	}
	next := h.alpha*prev + (1-h.alpha)*value
	h.state[dst] = next
	return next
}

// Forget implements HistoryPolicy.
func (h *EWMAHistory) Forget(dst netip.Prefix) { delete(h.state, dst) }

// NoHistory reacts instantly to each round's observations — the paper's
// "ignore history entirely, to more rapidly respond to changes" variant.
type NoHistory struct{}

// Name implements HistoryPolicy.
func (NoHistory) Name() string { return "none" }

// Update implements HistoryPolicy.
func (NoHistory) Update(_ netip.Prefix, value float64) float64 { return value }

// Forget implements HistoryPolicy.
func (NoHistory) Forget(netip.Prefix) {}

// WindowedHistory keeps the mean of the last N values — the paper's
// "longer-view historical analysis" variant for consistent links.
type WindowedHistory struct {
	n     int
	state map[netip.Prefix][]float64
}

// NewWindowedHistory returns a WindowedHistory over the last n values.
func NewWindowedHistory(n int) (*WindowedHistory, error) {
	if n < 1 {
		return nil, fmt.Errorf("riptide/core: window %d must be >= 1", n)
	}
	return &WindowedHistory{n: n, state: make(map[netip.Prefix][]float64)}, nil
}

// Name implements HistoryPolicy.
func (h *WindowedHistory) Name() string { return "windowed" }

// Update implements HistoryPolicy.
func (h *WindowedHistory) Update(dst netip.Prefix, value float64) float64 {
	vals := append(h.state[dst], value)
	if len(vals) > h.n {
		vals = vals[len(vals)-h.n:]
	}
	h.state[dst] = vals
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Forget implements HistoryPolicy.
func (h *WindowedHistory) Forget(dst netip.Prefix) { delete(h.state, dst) }

var (
	_ HistoryPolicy = (*EWMAHistory)(nil)
	_ HistoryPolicy = NoHistory{}
	_ HistoryPolicy = (*WindowedHistory)(nil)
)

// HistoryByName builds the history policy a scenario file's history key
// names, with alpha as Config.Alpha (0 means DefaultAlpha): "ewma" is nil,
// the agent's inline EWMA; "none" is NoHistory; "trend" is a TrendHistory
// collapsing at TrendCollapse. It fails on any other name, and on an alpha
// the policy rejects. Each call builds a fresh policy, since a stateful one
// serves one agent.
func HistoryByName(name string, alpha float64) (HistoryPolicy, error) {
	switch name {
	case "ewma":
		return nil, nil
	case "none":
		return NoHistory{}, nil
	case "trend":
		if alpha == 0 {
			alpha = DefaultAlpha
		}
		h, err := NewTrendHistory(alpha, TrendCollapse)
		if err != nil {
			return nil, err // not a nil *TrendHistory in a non-nil interface
		}
		return h, nil
	}
	return nil, fmt.Errorf("riptide/core: history %q unknown (valid: ewma none trend)", name)
}

// Config configures an Agent. Sampler and Routes are required; everything
// else has paper defaults.
type Config struct {
	// Sampler provides the observed table (the `ss` step).
	Sampler ConnectionSampler
	// Routes programs initcwnd overrides (the `ip route` step).
	Routes RouteProgrammer
	// Clock returns elapsed (monotonic) time; required. In simulation
	// this is the event engine's clock, in production time.Since(start).
	Clock func() time.Duration

	// UpdateInterval is i_u. Informational to the agent itself — the
	// caller drives Tick at this cadence — but validated and exposed.
	UpdateInterval time.Duration
	// TTL is t, the lifetime of a learned entry without fresh
	// observations.
	TTL time.Duration
	// Alpha is the EWMA history weight (ignored when History is set).
	Alpha float64
	// CMax / CMin clamp the programmed window; CMax is at most
	// math.MaxInt32.
	CMax, CMin int
	// PrefixBits sets destination granularity: 32 programs per-host
	// routes, smaller values aggregate whole prefixes (the paper's
	// "Destinations as Routes" discussion).
	PrefixBits int
	// Shards is ignored.
	//
	// Deprecated: the agent keeps one destination table; its stream scans
	// fan out over min(GOMAXPROCS, 16) workers on their own.
	Shards int
	// Combiner reduces a destination's observations; defaults to
	// AverageCombiner. It must not call back into the Agent.
	Combiner Combiner
	// History smooths across rounds. Nil means the inline per-destination
	// EWMA(Alpha); a caller-supplied policy is called only from the
	// goroutine running Tick, Close or MergeSnapshot, one at a time, and
	// must not call back into the Agent.
	History HistoryPolicy
	// Advisor optionally damps programmed windows with system-level
	// knowledge, e.g. an imminent load-balancing shift (Section V). Nil
	// means no adjustment. Non-finite multipliers are rejected (treated
	// as 1) and counted in the riptide_advisor_rejects metric.
	Advisor Advisor
	// Guard is the closed-loop safety governor (internal/guard): it
	// observes per-destination loss outcomes and caps or vetoes route
	// programs. Nil disables governing.
	Guard Governor

	// BreakerThreshold is the number of consecutive sampler failures that
	// open the sampler circuit breaker, degrading subsequent ticks to
	// expiry-only passes. 0 means DefaultBreakerThreshold; a negative
	// value disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long (measured by Clock) the breaker stays
	// open before the next tick probes the sampler again. 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration

	// Metrics receives the agent's counters and latency histograms
	// (sample/program/tick durations). Nil means a private registry,
	// retrievable via Agent.Metrics; deployments share one registry
	// across the agent and the retry decorator.
	Metrics *metrics.Registry
}

func (c *Config) applyDefaults() error {
	if c.Sampler == nil {
		return errors.New("riptide/core: Config.Sampler is required")
	}
	if c.Routes == nil {
		return errors.New("riptide/core: Config.Routes is required")
	}
	if c.Clock == nil {
		return errors.New("riptide/core: Config.Clock is required")
	}
	if c.UpdateInterval == 0 {
		c.UpdateInterval = DefaultUpdateInterval
	}
	if c.UpdateInterval < 0 {
		return fmt.Errorf("riptide/core: UpdateInterval %v must be positive", c.UpdateInterval)
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.TTL < 0 {
		return fmt.Errorf("riptide/core: TTL %v must be positive", c.TTL)
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("riptide/core: Alpha %v out of range [0,1]", c.Alpha)
	}
	if c.CMax == 0 {
		c.CMax = DefaultCMax
	}
	if c.CMin == 0 {
		c.CMin = DefaultCMin
	}
	if c.CMin < 1 || c.CMax < c.CMin || c.CMax > math.MaxInt32 {
		return fmt.Errorf("riptide/core: window bounds [%d,%d] invalid", c.CMin, c.CMax)
	}
	if c.PrefixBits == 0 {
		c.PrefixBits = DefaultPrefixBits
	}
	if c.PrefixBits < 1 || c.PrefixBits > 128 {
		return fmt.Errorf("riptide/core: PrefixBits %d out of range [1,128]", c.PrefixBits)
	}
	if c.Combiner == nil {
		c.Combiner = AverageCombiner{}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.BreakerCooldown < 0 {
		return fmt.Errorf("riptide/core: BreakerCooldown %v must be positive", c.BreakerCooldown)
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return nil
}

// entry is one learned destination. window and lastObs are int32: every
// window is clamped to CMax, which New bounds by math.MaxInt32 (the kernel
// holds an initcwnd in 32 bits), and a group is at most a stream's worth of
// sockets, which int32 sample indices already bound.
type entry struct {
	window  int32
	lastObs int32 // observations in the most recent round that refreshed it
	expires time.Duration
	updated time.Duration // when the entry was last refreshed or merged
	samples uint64        // cumulative observations folded into the entry
	// version is the agent table version at the entry's last commit (a
	// program or a fleet merge). Delta exports send only entries whose
	// version is newer than the peer's last-seen table version, so it is
	// stamped only when the exported content actually changes — TTL
	// refreshes and lazy sample credit do not touch it. A state that is not
	// installed carries version 0; the table's export log holds one live
	// ref per stamped version (exportRef).
	version uint64
	// mergedAge is the remote age the entry carried when it was merged.
	// Re-exporting adds it to the local age so gossip cannot launder a
	// stale window into a fresh-looking one by passing it between peers.
	mergedAge time.Duration
}

// Entry is a read-only snapshot of one learned destination.
type Entry struct {
	Prefix netip.Prefix `json:"prefix"`
	// Window is the initcwnd currently programmed for the destination.
	Window int `json:"window"`
	// ExpiresAt is the simulated/monotonic time the entry lapses.
	ExpiresAt time.Duration `json:"expiresAtNanos"`
	// Observations is the group size in the round that last refreshed it.
	Observations int `json:"observations"`
}

// Stats counts agent activity.
type Stats struct {
	Ticks          uint64 `json:"ticks"`
	Observations   uint64 `json:"observations"`
	RoutesSet      uint64 `json:"routesSet"`
	RoutesCleared  uint64 `json:"routesCleared"`
	EntriesExpired uint64 `json:"entriesExpired"`
	SampleErrors   uint64 `json:"sampleErrors"`
	RouteErrors    uint64 `json:"routeErrors"`
	// DegradedTicks counts expiry-only ticks run while the sampler
	// circuit breaker was open.
	DegradedTicks uint64 `json:"degradedTicks"`
	// BreakerOpens counts closed-to-open transitions of the sampler
	// circuit breaker.
	BreakerOpens uint64 `json:"breakerOpens"`
	// FleetMerged counts remote snapshot entries accepted by MergeSnapshot.
	FleetMerged uint64 `json:"fleetMerged"`
	// FleetSkippedLocal counts remote entries rejected because a local
	// entry already covered the prefix (local observations win).
	FleetSkippedLocal uint64 `json:"fleetSkippedLocal"`
	// FleetSkippedStale counts remote entries rejected as too old.
	FleetSkippedStale uint64 `json:"fleetSkippedStale"`
	// FleetSkippedQuarantined counts remote entries rejected because the
	// source quarantined the prefix or the local governor vetoed seeding.
	FleetSkippedQuarantined uint64 `json:"fleetSkippedQuarantined"`
	// GuardCapped counts route programs whose window the governor reduced.
	GuardCapped uint64 `json:"guardCapped"`
	// GuardVetoed counts route programs the governor skipped (canary
	// holdback plus quarantines).
	GuardVetoed uint64 `json:"guardVetoed"`
	// GuardQuarantined counts vetoes that were quarantine decisions
	// specifically (a subset of GuardVetoed).
	GuardQuarantined uint64 `json:"guardQuarantined"`
	// GuardCleared counts installed routes withdrawn because the governor
	// vetoed or quarantined their destination.
	GuardCleared uint64 `json:"guardCleared"`
	// CombinerRejects counts per-destination combined values dropped
	// because they were NaN or ±Inf (a custom Combiner gone wrong); the
	// destination is skipped for the round so the garbage never reaches
	// history state or a route program.
	CombinerRejects uint64 `json:"combinerRejects"`
}

// Agent runs Algorithm 1. Create with New, drive with Tick (one poll round
// per call), and Close to withdraw all programmed routes.
//
// Agent is safe for concurrent use. Tick and Close serialize with each
// other (including their backend I/O), but readers — Entries, Lookup,
// Stats — only synchronize on the in-memory state, so they return promptly
// even while a Tick is blocked inside a slow sampler or route programmer.
//
// Per-destination state lives in one table behind one lock, which a mutator
// holds for a whole plan or commit stage, so Entries and ExportDelta taken
// during a concurrent Tick each see one consistent table.
type Agent struct {
	cfg Config

	// tickMu serializes the mutating paths (Tick, Close, MergeSnapshot)
	// end to end, including backend I/O, so their plan/commit stages
	// cannot interleave. tab.mu guards the destination table; a.mu guards
	// only the counters and the closed flag. Neither is ever held across a
	// Sampler or RouteProgrammer call.
	tickMu sync.Mutex
	mu     sync.Mutex

	tab    destTable
	closed bool
	stats  Stats

	// history is the caller-supplied smoothing policy, nil for the inline
	// EWMA. Only tickMu holders call it.
	history HistoryPolicy

	// tableVer is the monotone table version: bumped on every commit that
	// changes exported content (route programs, fleet merges, withdrawals)
	// and never on refresh-only paths. Atomic so exports can read it
	// without tickMu; it is read BEFORE an export walks the table, so a
	// concurrent commit can only make the reported version conservative
	// (the entry is re-sent on the next delta, never lost).
	tableVer atomic.Uint64

	// Sampler circuit-breaker state; touched only under tickMu.
	sampleFailures int
	breakerOpen    bool
	breakerUntil   time.Duration

	// Per-tick scratch, reused across rounds to keep the steady-state
	// hot path allocation-free. Touched only under tickMu.
	//
	// obsBuf is the array the sampler appends into, last round's stream when
	// it did. ownStream is the first observation of last round's stream when
	// the sampler returned a slice of its own instead, which is never handed
	// back as obsBuf; obsBuf is then nil.
	obsBuf       []Observation
	ownStream    *Observation
	buckets      [][]keyedObs // one per scan worker
	roundWorkers int          // this round's scan width
	tickSeq      uint64       // plan-stage first-touch stamp, bumped per tick (tickMu)
	opsBuf       Scratch[RouteOp]
	sortKeys     []uint64 // packed keys of the prefix-order sorts under tickMu
	// clearOps is the withdrawal batch (guard clears, expiries). Not opsBuf:
	// a round's withdrawals and its installs differ in size, and alternating
	// them through one Scratch would drop it every time.
	clearOps Scratch[RouteOp]
	// scanWorkers pins the scan width for tests; 0 means scanWidth's
	// default.
	scanWorkers int

	// MergeSnapshot's plan and route batch (tickMu). Not the tick's opsBuf:
	// a merge and a tick differ in size by orders of magnitude, and
	// alternating them through one Scratch would drop it every time.
	mergePlan Scratch[mergeOp]
	mergeOps  Scratch[RouteOp]

	// The sample cache (tickMu only; valid while havePrev): one record per
	// position of last round's stream, as long as that stream. A rebuild
	// writes every position; a stable round rewrites the positions that
	// changed (see the plan-stage invariants in table.go).
	cache     []cachedSample
	havePrev  bool
	compareOK []bool // per-worker stable-round verdicts, reused scratch
	// The round's stream as the scan workers see it (tickMu): set before the
	// scans, cleared after. The workers are bound once in New, so handing
	// them to runParallel allocates no closure per round.
	tickObs            []Observation
	compareW, observeW func(w int)
	// canDrain is the one config predicate of the plan stage: with no hook
	// installed (Guard, Advisor, caller-supplied History) a visit to a
	// converged destination has no effect beyond its own entry, so the state
	// may drain from the active list and be credited lazily. Hook
	// configs visit every group every round.
	canDrain bool
	// cwndOnly marks a Combiner that reads only windows (readsCwndOnly): a
	// stable round's compare then ignores changes to any other field.
	cwndOnly bool

	mTick    *metrics.Histogram
	mSample  *metrics.Histogram
	mPlan    *metrics.Histogram
	mCommit  *metrics.Histogram
	mProgram *metrics.Histogram
	// Rounds planned on the stable path and by a full rebuild: a daemon
	// whose rebuild count keeps climbing has lost the O(change) tick.
	// mRebuildWhy splits the rebuilds by their reason.
	mStable     *metrics.Counter
	mRebuild    *metrics.Counter
	mRebuildWhy [numRebuildReasons]*metrics.Counter
}

// New constructs an Agent.
func New(cfg Config) (*Agent, error) {
	history := cfg.History
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:       cfg,
		history:   history,
		canDrain:  history == nil && cfg.Guard == nil && cfg.Advisor == nil,
		cwndOnly:  readsCwndOnly(cfg.Combiner),
		buckets:   make([][]keyedObs, maxScanWorkers),
		compareOK: make([]bool, maxScanWorkers),
		mTick:     cfg.Metrics.Histogram("riptide_tick_duration"),
		mSample:   cfg.Metrics.Histogram("riptide_sample_duration"),
		mPlan:     cfg.Metrics.Histogram("riptide_plan_duration"),
		mCommit:   cfg.Metrics.Histogram("riptide_commit_duration"),
		mProgram:  cfg.Metrics.Histogram("riptide_program_duration"),
		mStable:   cfg.Metrics.Counter("riptide_tick_rounds_stable"),
		mRebuild:  cfg.Metrics.Counter("riptide_tick_rounds_rebuild"),
	}
	for why, name := range rebuildCounters {
		a.mRebuildWhy[why] = cfg.Metrics.Counter(name)
	}
	a.compareW = func(w int) { a.compareOK[w] = a.compareChunk(w, a.tickObs) }
	a.observeW = func(w int) { a.observeChunk(w, a.tickObs) }
	if history == nil {
		// The default smoothing is the inline per-destination EWMA
		// (bit-identical to EWMAHistory); expose a detached instance
		// through Config() for introspection.
		h, err := NewEWMAHistory(cfg.Alpha)
		if err != nil {
			return nil, err
		}
		a.cfg.History = h
	}
	return a, nil
}

// Config returns the agent's effective (defaulted) configuration.
func (a *Agent) Config() Config { return a.cfg }

// Metrics returns the agent's metrics registry (the one from Config, or the
// private registry created when none was supplied).
func (a *Agent) Metrics() *metrics.Registry { return a.cfg.Metrics }

// destKey maps a destination address to its route-granularity prefix.
func (a *Agent) destKey(dst netip.Addr) (netip.Prefix, error) {
	bits := a.cfg.PrefixBits
	if dst.Is4() && bits > 32 {
		bits = 32
	}
	p, err := dst.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("riptide/core: prefix %v/%d: %w", dst, bits, err)
	}
	return p, nil
}

// clamp bounds w to [CMin, CMax] and rounds to whole segments. Non-finite
// values (a custom Combiner or Advisor gone wrong) fall to CMin — the
// conservative floor — rather than reaching int(math.Round), whose result
// for NaN/±Inf is platform-dependent.
func (a *Agent) clamp(w float64) int {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return a.cfg.CMin
	}
	v := int(math.Round(w))
	if v < a.cfg.CMin {
		return a.cfg.CMin
	}
	if v > a.cfg.CMax {
		return a.cfg.CMax
	}
	return v
}

// Entries returns a snapshot of all learned destinations, sorted by prefix
// for determinism.
func (a *Agent) Entries() []Entry {
	tb := &a.tab
	tb.mu.Lock()
	out := make([]Entry, 0, tb.installed)
	tb.states.each(func(p netip.Prefix, st *destState) {
		if !st.installed {
			return
		}
		// Converged entries carry lazily applied TTL/sample credit from
		// stable rounds; fold it in before exposing the fields.
		a.materializeLocked(st)
		out = append(out, Entry{
			Prefix:       p,
			Window:       int(st.window),
			ExpiresAt:    st.expires,
			Observations: int(st.lastObs),
		})
	})
	tb.mu.Unlock()
	sortByPrefixPooled(out, func(e *Entry) netip.Prefix { return e.Prefix })
	return out
}

// Len returns the number of learned destinations — len(Entries()) — in
// O(1), from the table's installed counter.
func (a *Agent) Len() int {
	a.tab.mu.Lock()
	defer a.tab.mu.Unlock()
	return a.tab.installed
}

// Lookup returns the currently programmed window for the destination, if
// Riptide has learned one.
func (a *Agent) Lookup(dst netip.Addr) (int, bool) {
	key, err := a.destKey(dst)
	if err != nil {
		return 0, false
	}
	a.tab.mu.Lock()
	defer a.tab.mu.Unlock()
	if st := a.tab.states.get(key); st != nil && st.installed {
		return int(st.window), true
	}
	return 0, false
}

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Close withdraws every programmed route and stops the agent. Further Ticks
// return ErrClosed. Close is idempotent; it returns the first withdrawal
// error but attempts all. Close waits for an in-flight Tick to finish, but
// readers stay unblocked while the withdrawals run.
func (a *Agent) Close() error {
	a.tickMu.Lock()
	defer a.tickMu.Unlock()

	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()

	tb := &a.tab
	tb.mu.Lock()
	targets := make([]netip.Prefix, 0, tb.installed)
	tb.states.each(func(dst netip.Prefix, st *destState) {
		if st.installed {
			targets = append(targets, dst)
		}
		st.dead = true
	})
	tb.release()
	tb.mu.Unlock()
	sortPrefixes(targets, &a.sortKeys)
	// A closed agent may stay reachable (a server or a puller still holds
	// it): drop every per-round buffer, since some hold state pointers that
	// would pin the whole table. Every mutating path checks closed first.
	a.obsBuf, a.ownStream, a.cache, a.havePrev = nil, nil, nil, false
	a.buckets, a.compareOK, a.sortKeys = nil, nil, nil
	a.opsBuf, a.clearOps = Scratch[RouteOp]{}, Scratch[RouteOp]{}
	a.mergePlan, a.mergeOps = Scratch[mergeOp]{}, Scratch[RouteOp]{}

	ops := make([]RouteOp, len(targets))
	for i, dst := range targets {
		ops[i] = RouteOp{Prefix: dst, Clear: true}
	}
	errs := a.applyOps(ops)
	var firstErr error
	var cleared, routeErrs uint64
	for i, dst := range targets {
		if errs != nil && errs[i] != nil {
			routeErrs++
			if firstErr == nil {
				firstErr = fmt.Errorf("clear initcwnd %v: %w", dst, errs[i])
			}
			continue
		}
		cleared++
	}
	a.countLocked(func(s *Stats) {
		s.RoutesCleared += cleared
		s.RouteErrors += routeErrs
	})
	return firstErr
}

// applyOps sends ops to the route backend, in order: one ProgramRoutes call
// when the backend batches, otherwise one SetInitCwnd/ClearInitCwnd per op.
// Every backend call is timed into riptide_program_duration. The result
// follows the BatchRouteProgrammer contract: nil when every op succeeded,
// else one slot per op. Backend calls may block, so callers must not hold the
// table lock.
func (a *Agent) applyOps(ops []RouteOp) []error {
	if len(ops) == 0 {
		return nil
	}
	if bp, ok := a.cfg.Routes.(BatchRouteProgrammer); ok {
		start := time.Now()
		errs := bp.ProgramRoutes(ops)
		a.mProgram.Observe(time.Since(start))
		return errs
	}
	var errs []error
	for i, op := range ops {
		start := time.Now()
		var err error
		if op.Clear {
			err = a.cfg.Routes.ClearInitCwnd(op.Prefix)
		} else {
			err = a.cfg.Routes.SetInitCwnd(op.Prefix, op.Window)
		}
		a.mProgram.Observe(time.Since(start))
		if err != nil {
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = err
		}
	}
	return errs
}

// countLocked applies a counter mutation under the state lock.
func (a *Agent) countLocked(f func(*Stats)) {
	a.mu.Lock()
	f(&a.stats)
	a.mu.Unlock()
}
