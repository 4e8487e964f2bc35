// Package riptide is the public API of the Riptide reproduction: a
// user-space agent that learns per-destination congestion state from live
// TCP connections and jump-starts new connections by programming their
// initial congestion window (initcwnd), after "Riptide: Jump-Starting
// Back-Office Connections in Cloud Systems" (ICDCS 2016).
//
// # Quick start
//
//	agent, err := riptide.NewLinuxAgent(riptide.LinuxOptions{
//		Device:  "eth0",
//		Gateway: "10.0.0.1",
//	})
//	if err != nil { ... }
//	defer agent.Close()
//	err = riptide.Run(ctx, agent) // polls every i_u until ctx is done
//
// Custom backends plug in through the ConnectionSampler and RouteProgrammer
// interfaces; the simulated CDN used by the evaluation harness implements
// the same pair against an in-memory kernel.
package riptide

import (
	"context"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
)

// Re-exported core types: the agent's full configuration surface.
type (
	// Agent runs the Riptide algorithm; see core.Agent.
	Agent = core.Agent
	// Config configures an Agent.
	Config = core.Config
	// Observation is one sampled connection (dst, cwnd, rtt, bytes).
	Observation = core.Observation
	// ConnectionSampler supplies the observed table (the `ss` step).
	ConnectionSampler = core.ConnectionSampler
	// RouteProgrammer applies initcwnd overrides (the `ip route` step).
	RouteProgrammer = core.RouteProgrammer
	// BatchRouteProgrammer is the optional batched route-programming
	// extension (one netlink message batch per tick).
	BatchRouteProgrammer = core.BatchRouteProgrammer
	// RouteOp is one element of a batched route-programming request.
	RouteOp = core.RouteOp
	// Combiner reduces a destination's observations to one value.
	Combiner = core.Combiner
	// HistoryPolicy smooths combined values across rounds.
	HistoryPolicy = core.HistoryPolicy
	// Entry is a learned destination snapshot.
	Entry = core.Entry
	// Stats counts agent activity.
	Stats = core.Stats

	// AverageCombiner is the paper's default combiner.
	AverageCombiner = core.AverageCombiner
	// MaxCombiner is the aggressive maximum-window combiner.
	MaxCombiner = core.MaxCombiner
	// TrafficWeightedCombiner weights windows by bytes carried.
	TrafficWeightedCombiner = core.TrafficWeightedCombiner
	// NoHistory reacts instantly to each round.
	NoHistory = core.NoHistory

	// Advisor damps programmed windows with system-level knowledge
	// (paper Section V).
	Advisor = core.Advisor
	// LoadBalanceAdvisor damps windows ahead of traffic shifts.
	LoadBalanceAdvisor = core.LoadBalanceAdvisor
	// TrendHistory snaps the learned window down on observed collapses.
	TrendHistory = core.TrendHistory

	// RetryingRouteProgrammer decorates a RouteProgrammer with bounded
	// exponential backoff and a per-destination failure budget that falls
	// back to clearing the route (the paper's conservative default).
	RetryingRouteProgrammer = core.RetryingRouteProgrammer
	// RetryPolicy configures a RetryingRouteProgrammer.
	RetryPolicy = core.RetryPolicy
	// RetryStats counts retry-decorator activity.
	RetryStats = core.RetryStats

	// Governor is the closed-loop safety hook consulted per planned route
	// program; internal/guard provides the loss-feedback implementation
	// (Config.Guard accepts any Governor).
	Governor = core.Governor
	// GuardAction is a Governor verdict: allow, cap, veto, or quarantine.
	GuardAction = core.GuardAction
	// Quarantine is one destination a Governor is holding out of service.
	Quarantine = core.Quarantine
)

// Paper-default parameters (Sections III-B, IV-A).
const (
	// DefaultUpdateInterval is i_u.
	DefaultUpdateInterval = core.DefaultUpdateInterval
	// DefaultTTL is t, the learned-entry lifetime.
	DefaultTTL = core.DefaultTTL
	// DefaultAlpha is the EWMA history weight.
	DefaultAlpha = core.DefaultAlpha
	// DefaultCMax is the best-performing window cap (Figure 10).
	DefaultCMax = core.DefaultCMax
	// DefaultCMin is the window floor (the kernel default of 10).
	DefaultCMin = core.DefaultCMin
)

// ErrClosed is returned by Tick after Close.
var ErrClosed = core.ErrClosed

// ErrFallbackCleared is returned (wrapped) by RetryingRouteProgrammer when a
// destination exhausted its failure budget and the decorator successfully
// fell back to clearing the route; the agent drops the entry in response.
var ErrFallbackCleared = core.ErrFallbackCleared

// NewRetryingRouteProgrammer wraps inner with retry/backoff/fallback
// behaviour per policy. Zero-value policy fields take the DefaultRetry*
// constants in internal/core.
func NewRetryingRouteProgrammer(inner RouteProgrammer, policy RetryPolicy) (*RetryingRouteProgrammer, error) {
	return core.NewRetryingRouteProgrammer(inner, policy)
}

// New constructs an Agent from an explicit Config. Most callers want
// NewLinuxAgent (production) or the internal simulation harness (research).
func New(cfg Config) (*Agent, error) {
	return core.New(cfg)
}

// NewEWMAHistory returns the paper's exponentially weighted history policy
// with the given weight on the historical value.
func NewEWMAHistory(alpha float64) (HistoryPolicy, error) {
	return core.NewEWMAHistory(alpha)
}

// NewWindowedHistory returns a mean-of-last-n history policy.
func NewWindowedHistory(n int) (HistoryPolicy, error) {
	return core.NewWindowedHistory(n)
}

// NewLoadBalanceAdvisor returns an Advisor that damps windows for
// destinations about to absorb shifted load (paper Section V).
func NewLoadBalanceAdvisor() *LoadBalanceAdvisor {
	return core.NewLoadBalanceAdvisor()
}

// NewTrendHistory returns the Section V trend policy: EWMA smoothing that
// snaps down immediately when observations collapse below collapseFraction
// of the running average.
func NewTrendHistory(alpha, collapseFraction float64) (*TrendHistory, error) {
	return core.NewTrendHistory(alpha, collapseFraction)
}

// LinuxOptions configures a production agent on the local Linux kernel.
type LinuxOptions struct {
	// Device is the outgoing interface for programmed routes ("eth0").
	Device string
	// Gateway is the next hop for programmed routes ("10.0.0.1"); the
	// installed routes must otherwise mirror the default route.
	Gateway string
	// SetInitRwnd also raises initrwnd on programmed routes so receivers
	// accept the initial burst (paper Section III-C).
	SetInitRwnd bool

	// UpdateInterval, TTL, Alpha, CMax, CMin and PrefixBits override the
	// paper defaults when non-zero. The agent sizes its own concurrency:
	// one destination table, with its per-round socket scans fanned out
	// over min(GOMAXPROCS, 16) workers.
	UpdateInterval time.Duration
	TTL            time.Duration
	Alpha          float64
	CMax, CMin     int
	PrefixBits     int
}

// NewLinuxAgent builds the agent riptided runs (internal/daemon), wired to
// the local kernel over netlink: sock_diag dumps read each connection's cwnd
// and rtnetlink writes initcwnd, the interfaces behind the `ss` and `ip`
// commands of the paper's deployment, with routes programmed through the
// same retry decorator (bounded backoff, then a fall-back to clearing a
// destination that keeps failing). Construction resolves a named Device to
// its interface index but dials no netlink socket; the first Tick does, and
// programming routes requires the CAP_NET_ADMIN capability (or root).
func NewLinuxAgent(opts LinuxOptions) (*Agent, error) {
	d, err := daemon.New(daemon.Config{
		Agent: core.Config{
			UpdateInterval: opts.UpdateInterval,
			TTL:            opts.TTL,
			Alpha:          opts.Alpha,
			CMax:           opts.CMax,
			CMin:           opts.CMin,
			PrefixBits:     opts.PrefixBits,
		},
		Device:   opts.Device,
		Gateway:  opts.Gateway,
		InitRwnd: opts.SetInitRwnd,
	})
	if err != nil {
		return nil, err
	}
	return d.Agent, nil
}

// Run drives the agent's poll loop every UpdateInterval until ctx is done,
// then withdraws all programmed routes. Per-tick errors are delivered to
// onError when provided (a failing tick does not stop the loop); the final
// Close error, if any, is returned.
func Run(ctx context.Context, agent *Agent, onError ...func(error)) error {
	daemon.Loop(ctx, agent, func(err error) {
		for _, f := range onError {
			if err != nil {
				f(err)
			}
		}
	})
	return agent.Close()
}
