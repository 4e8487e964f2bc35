// Command riptided is the Riptide agent daemon for real Linux hosts: it
// samples the established-connection table every update interval, learns
// per-destination congestion windows, and programs per-route initcwnd
// overrides, exactly as described in the paper's Section III.
//
// It speaks to the kernel over netlink: NETLINK_SOCK_DIAG dumps to read each
// socket's cwnd, and rtnetlink route batches to write initcwnd — the
// interfaces behind the `ss -tin` and `ip route` commands the paper's
// deployment ran. Both are probed at startup, so a host that lacks them, or
// a process without CAP_NET_ADMIN, fails before the first tick.
//
// Run with -dry-run to print the route changes instead of applying them
// (sampling still reads the real kernel). Stopping the daemon
// (SIGINT/SIGTERM) withdraws every route it installed.
//
// The daemon itself is internal/daemon; this command binds its flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/guard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// options is riptided's command line. Most flags bind straight into the
// daemon's Config; parse converts the other three into it.
type options struct {
	cfg      daemon.Config
	runFor   time.Duration
	combiner string       // -combiner: a core.CombinerByName name
	peers    string       // -peers: comma-separated
	guard    bool         // -guard: set cfg.Guard to governor
	governor guard.Config // -guard-holdback, -guard-quarantine-ttl
}

// flags binds riptided's command line into o.
func (o *options) flags() *flag.FlagSet {
	cfg := &o.cfg
	fs := flag.NewFlagSet("riptided", flag.ContinueOnError)
	fs.StringVar(&cfg.Device, "dev", "", "outgoing device for programmed routes (e.g. eth0)")
	fs.StringVar(&cfg.Gateway, "via", "", "next-hop gateway for programmed routes")
	fs.DurationVar(&cfg.Agent.UpdateInterval, "interval", core.DefaultUpdateInterval, "update interval i_u")
	fs.DurationVar(&cfg.Agent.TTL, "ttl", core.DefaultTTL, "learned-entry TTL t")
	fs.Float64Var(&cfg.Agent.Alpha, "alpha", core.DefaultAlpha, "EWMA weight on historical value")
	fs.IntVar(&cfg.Agent.CMax, "cmax", core.DefaultCMax, "maximum programmed initcwnd")
	fs.IntVar(&cfg.Agent.CMin, "cmin", core.DefaultCMin, "minimum programmed initcwnd")
	fs.IntVar(&cfg.Agent.PrefixBits, "prefix-bits", 32, "destination granularity (32=per host, 24=per /24)")
	fs.BoolVar(&cfg.InitRwnd, "initrwnd", false, "also set initrwnd on programmed routes")
	fs.BoolVar(&cfg.DryRun, "dry-run", false, "print route changes (as ip route commands) instead of applying them")
	fs.StringVar(&o.combiner, "combiner", "average", "combiner: average|max|traffic-weighted")
	fs.BoolVar(&cfg.Verbose, "v", false, "log the learned entries every tenth tick")
	fs.StringVar(&cfg.StatusAddr, "status", "", "serve /status, /metrics, /metrics.json, /healthz on this address (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&cfg.Reconcile, "reconcile", true, "withdraw leftover riptide routes from a previous run at startup")
	fs.DurationVar(&o.runFor, "run-for", 0, "exit after this long instead of waiting for a signal (diagnostics)")

	fs.IntVar(&cfg.Retry.MaxAttempts, "route-attempts", core.DefaultRetryAttempts, "attempts per route operation (1 disables retries)")
	fs.DurationVar(&cfg.Retry.BaseDelay, "retry-base", core.DefaultRetryBaseDelay, "backoff before the first route retry (doubles per retry)")
	fs.DurationVar(&cfg.Retry.MaxDelay, "retry-max", core.DefaultRetryMaxDelay, "backoff cap for route retries")
	fs.IntVar(&cfg.Retry.FailureBudget, "route-failure-budget", core.DefaultRetryFailureBudget, "consecutive per-destination programming failures before falling back to clearing the route (negative disables)")

	fs.IntVar(&cfg.Agent.BreakerThreshold, "breaker-threshold", core.DefaultBreakerThreshold, "consecutive sampling failures that open the sampler circuit breaker (negative disables)")
	fs.DurationVar(&cfg.Agent.BreakerCooldown, "breaker-cooldown", core.DefaultBreakerCooldown, "how long the open breaker degrades ticks to expiry-only before sampling again")

	fs.BoolVar(&o.guard, "guard", false, "enable the loss-feedback safety governor (throttles, then quarantines, destinations whose loss regresses under the programmed window)")
	fs.Float64Var(&o.governor.Holdback, "guard-holdback", guard.DefaultHoldback, "fraction of destinations held back at the kernel default as the governor's canary baseline")
	fs.DurationVar(&o.governor.QuarantineTTL, "guard-quarantine-ttl", guard.DefaultQuarantineTTL, "quarantine cool-down before the governor probes a destination again")

	fs.StringVar(&cfg.SnapshotFile, "snapshot-file", "", "persist the learned table to this file (periodic + on shutdown) and warm-start from it on boot")
	fs.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", time.Minute, "how often to persist the snapshot file")
	fs.StringVar(&o.peers, "peers", "", "comma-separated fleet peers (host:port or base URL) to pull table deltas from")
	fs.DurationVar(&cfg.Puller.Interval, "peer-interval", 30*time.Second, "how often to pull each peer: one conditional ?since= request, a header-only 304 when nothing changed")
	fs.DurationVar(&cfg.Puller.Timeout, "peer-timeout", 5*time.Second, "timeout per peer request")
	fs.DurationVar(&cfg.Puller.Policy.MaxAge, "fleet-max-age", 0, "reject fleet entries older than this (0 = the TTL)")
	return fs
}

// parse reads riptided's command line into o.
func (o *options) parse(args []string) error {
	if err := o.flags().Parse(args); err != nil {
		return err
	}
	comb, ok := core.CombinerByName(o.combiner)
	if !ok {
		return fmt.Errorf("unknown combiner %q", o.combiner)
	}
	o.cfg.Agent.Combiner = comb
	if o.guard {
		o.cfg.Guard = &o.governor
	}
	if o.peers != "" {
		o.cfg.Puller.Peers = strings.Split(o.peers, ",")
	}
	return nil
}

func run(args []string) error {
	var o options
	if err := o.parse(args); err != nil {
		return err
	}
	o.cfg.Logf = log.New(os.Stderr, "riptided: ", log.LstdFlags).Printf
	d, err := daemon.New(o.cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if o.runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.runFor)
		defer cancel()
	}
	return d.Run(ctx)
}
