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
	"log"
	"os"
	"os/signal"
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

// flags binds riptided's command line into cfg, and -run-for into runFor.
func flags(cfg *daemon.Config, runFor *time.Duration) *flag.FlagSet {
	fs := flag.NewFlagSet("riptided", flag.ContinueOnError)
	fs.StringVar(&cfg.Device, "dev", "", "outgoing device for programmed routes (e.g. eth0)")
	fs.StringVar(&cfg.Gateway, "via", "", "next-hop gateway for programmed routes")
	fs.DurationVar(&cfg.Interval, "interval", core.DefaultUpdateInterval, "update interval i_u")
	fs.DurationVar(&cfg.TTL, "ttl", core.DefaultTTL, "learned-entry TTL t")
	fs.Float64Var(&cfg.Alpha, "alpha", core.DefaultAlpha, "EWMA weight on historical value")
	fs.IntVar(&cfg.CMax, "cmax", core.DefaultCMax, "maximum programmed initcwnd")
	fs.IntVar(&cfg.CMin, "cmin", core.DefaultCMin, "minimum programmed initcwnd")
	fs.IntVar(&cfg.PrefixBits, "prefix-bits", 32, "destination granularity (32=per host, 24=per /24)")
	fs.BoolVar(&cfg.InitRwnd, "initrwnd", false, "also set initrwnd on programmed routes")
	fs.BoolVar(&cfg.DryRun, "dry-run", false, "print route changes (as ip route commands) instead of applying them")
	fs.StringVar(&cfg.Combiner, "combiner", "average", "combiner: average|max|traffic-weighted")
	fs.BoolVar(&cfg.Verbose, "v", false, "log each tick's learned entries")
	fs.StringVar(&cfg.StatusAddr, "status", "", "serve /status, /metrics, /metrics.json, /healthz on this address (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&cfg.Reconcile, "reconcile", true, "withdraw leftover riptide routes from a previous run at startup")
	fs.DurationVar(runFor, "run-for", 0, "exit after this long instead of waiting for a signal (diagnostics)")

	fs.IntVar(&cfg.RouteAttempts, "route-attempts", core.DefaultRetryAttempts, "attempts per route operation (1 disables retries)")
	fs.DurationVar(&cfg.RetryBase, "retry-base", core.DefaultRetryBaseDelay, "backoff before the first route retry (doubles per retry)")
	fs.DurationVar(&cfg.RetryMax, "retry-max", core.DefaultRetryMaxDelay, "backoff cap for route retries")
	fs.IntVar(&cfg.RouteFailureBudget, "route-failure-budget", core.DefaultRetryFailureBudget, "consecutive per-destination programming failures before falling back to clearing the route (negative disables)")

	fs.IntVar(&cfg.BreakerThreshold, "breaker-threshold", core.DefaultBreakerThreshold, "consecutive sampling failures that open the sampler circuit breaker (negative disables)")
	fs.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", core.DefaultBreakerCooldown, "how long the open breaker degrades ticks to expiry-only before sampling again")

	fs.BoolVar(&cfg.Guard, "guard", false, "enable the loss-feedback safety governor (throttles, then quarantines, destinations whose loss regresses under the programmed window)")
	fs.Float64Var(&cfg.GuardHoldback, "guard-holdback", guard.DefaultHoldback, "fraction of destinations held back at the kernel default as the governor's canary baseline")
	fs.DurationVar(&cfg.GuardQuarantineTTL, "guard-quarantine-ttl", guard.DefaultQuarantineTTL, "quarantine cool-down before the governor probes a destination again")

	fs.StringVar(&cfg.SnapshotFile, "snapshot-file", "", "persist the learned table to this file (periodic + on shutdown) and warm-start from it on boot")
	fs.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", time.Minute, "how often to persist the snapshot file")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated fleet peers (host:port or base URL) to pull table deltas from")
	fs.DurationVar(&cfg.PeerInterval, "peer-interval", 30*time.Second, "how often to pull each peer: one conditional ?since= request, a header-only 304 when nothing changed")
	fs.DurationVar(&cfg.PeerTimeout, "peer-timeout", 5*time.Second, "timeout per peer request")
	fs.DurationVar(&cfg.FleetMaxAge, "fleet-max-age", 0, "reject fleet entries older than this (0 = the TTL)")
	return fs
}

func run(args []string) error {
	var cfg daemon.Config
	var runFor time.Duration
	if err := flags(&cfg, &runFor).Parse(args); err != nil {
		return err
	}
	cfg.Logf = log.New(os.Stderr, "riptided: ", log.LstdFlags).Printf
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, runFor)
		defer cancel()
	}
	return d.Run(ctx)
}
