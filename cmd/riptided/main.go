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
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"riptide"
	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/metrics"
	"riptide/internal/netlink"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// dryRunRoutes prints the route changes riptided would make.
type dryRunRoutes struct {
	out interface{ Printf(string, ...any) }
}

func (d dryRunRoutes) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	d.out.Printf("DRY-RUN ip route replace %s proto static initcwnd %s", prefix, strconv.Itoa(cwnd))
	return nil
}

func (d dryRunRoutes) ClearInitCwnd(prefix netip.Prefix) error {
	d.out.Printf("DRY-RUN ip route del %s proto static", prefix)
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("riptided", flag.ContinueOnError)
	var (
		device     = fs.String("dev", "", "outgoing device for programmed routes (e.g. eth0)")
		gateway    = fs.String("via", "", "next-hop gateway for programmed routes")
		interval   = fs.Duration("interval", riptide.DefaultUpdateInterval, "update interval i_u")
		ttl        = fs.Duration("ttl", riptide.DefaultTTL, "learned-entry TTL t")
		alpha      = fs.Float64("alpha", riptide.DefaultAlpha, "EWMA weight on historical value")
		cmax       = fs.Int("cmax", riptide.DefaultCMax, "maximum programmed initcwnd")
		cmin       = fs.Int("cmin", riptide.DefaultCMin, "minimum programmed initcwnd")
		prefixBits = fs.Int("prefix-bits", 32, "destination granularity (32=per host, 24=per /24)")
		shards     = fs.Int("shards", 0, "lock-striped state shards for the agent hot path (0 = GOMAXPROCS, capped at 16)")
		initRwnd   = fs.Bool("initrwnd", false, "also set initrwnd on programmed routes")
		dryRun     = fs.Bool("dry-run", false, "print route changes (as ip route commands) instead of applying them")
		combiner   = fs.String("combiner", "average", "combiner: average|max|traffic-weighted")
		verbose    = fs.Bool("v", false, "log each tick's learned entries")
		statusAddr = fs.String("status", "", "serve /status, /metrics, /metrics.json, /healthz on this address (e.g. 127.0.0.1:9090)")
		reconcile  = fs.Bool("reconcile", true, "withdraw leftover riptide routes from a previous run at startup")
		runFor     = fs.Duration("run-for", 0, "exit after this long instead of waiting for a signal (diagnostics)")

		routeAttempts = fs.Int("route-attempts", core.DefaultRetryAttempts, "attempts per route operation (1 disables retries)")
		retryBase     = fs.Duration("retry-base", core.DefaultRetryBaseDelay, "backoff before the first route retry (doubles per retry)")
		retryMax      = fs.Duration("retry-max", core.DefaultRetryMaxDelay, "backoff cap for route retries")
		failureBudget = fs.Int("route-failure-budget", core.DefaultRetryFailureBudget, "consecutive per-destination programming failures before falling back to clearing the route (negative disables)")

		breakerThreshold = fs.Int("breaker-threshold", core.DefaultBreakerThreshold, "consecutive sampling failures that open the sampler circuit breaker (negative disables)")
		breakerCooldown  = fs.Duration("breaker-cooldown", core.DefaultBreakerCooldown, "how long the open breaker degrades ticks to expiry-only before sampling again")

		guardOn       = fs.Bool("guard", false, "enable the loss-feedback safety governor (throttles, then quarantines, destinations whose loss regresses under the programmed window)")
		guardHoldback = fs.Float64("guard-holdback", guard.DefaultHoldback, "fraction of destinations held back at the kernel default as the governor's canary baseline")
		guardQuarTTL  = fs.Duration("guard-quarantine-ttl", guard.DefaultQuarantineTTL, "quarantine cool-down before the governor probes a destination again")

		snapshotFile     = fs.String("snapshot-file", "", "persist the learned table to this file (periodic + on shutdown) and warm-start from it on boot")
		snapshotInterval = fs.Duration("snapshot-interval", time.Minute, "how often to persist the snapshot file")
		peerSpec         = fs.String("peers", "", "comma-separated fleet peers (host:port or base URL) to pull table deltas from")
		peerInterval     = fs.Duration("peer-interval", 30*time.Second, "how often to pull each peer: one conditional ?since= request, a header-only 304 when nothing changed")
		peerTimeout      = fs.Duration("peer-timeout", 5*time.Second, "timeout per peer request")
		fleetMaxAge      = fs.Duration("fleet-max-age", 0, "reject fleet entries older than this (0 = the TTL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "riptided: ", log.LstdFlags)

	// The shutdown context is created before the route pipeline so the
	// retry decorator can abandon in-flight backoff waits the moment a
	// signal arrives, instead of sleeping through them.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runFor)
		defer cancel()
	}

	var comb riptide.Combiner
	switch *combiner {
	case "average":
		comb = riptide.AverageCombiner{}
	case "max":
		comb = riptide.MaxCombiner{}
	case "traffic-weighted":
		comb = riptide.TrafficWeightedCombiner{}
	default:
		return fmt.Errorf("unknown combiner %q", *combiner)
	}

	// One registry spans the agent and the retry decorator, so /metrics and
	// /metrics.json show the whole pipeline.
	reg := metrics.NewRegistry()

	sampler, err := netlink.NewSampler(netlink.SamplerConfig{})
	if err != nil {
		return err
	}
	defer sampler.Close()
	if err := sampler.Probe(); err != nil {
		return fmt.Errorf("netlink sampler probe: %w", err)
	}
	var routes riptide.RouteProgrammer
	if *dryRun {
		routes = dryRunRoutes{out: logger}
	} else {
		nl, err := netlink.NewRoutes(netlink.RoutesConfig{
			Device:      *device,
			Gateway:     *gateway,
			SetInitRwnd: *initRwnd,
		})
		if err != nil {
			return err
		}
		defer nl.Close()
		if err := nl.Probe(); err != nil {
			return fmt.Errorf("netlink routes probe: %w", err)
		}
		if *reconcile {
			// A previous incarnation may have died without
			// withdrawing its routes; stale aggressive windows must
			// not outlive their observations (Section III-C).
			removed, err := nl.Reconcile()
			if err != nil {
				logger.Printf("reconcile: %v", err)
			}
			if removed > 0 {
				logger.Printf("reconcile: withdrew %d stale riptide route(s)", removed)
			}
		}
		routes = nl
	}

	// The retry decorator sits between the agent and the backend: bounded
	// backoff for transient route failures, and a conservative fall-back to
	// clearing the route when a destination keeps failing.
	retry, err := core.NewRetryingRouteProgrammer(routes, core.RetryPolicy{
		MaxAttempts:   *routeAttempts,
		BaseDelay:     *retryBase,
		MaxDelay:      *retryMax,
		FailureBudget: *failureBudget,
		Context:       ctx,
		Metrics:       reg,
	})
	if err != nil {
		return err
	}

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }

	// The governor shares the agent's clock and metrics registry, so its
	// quarantine cool-downs and transition counters line up with the
	// agent's ticks in /metrics.
	var gov *guard.Governor
	if *guardOn {
		gov, err = guard.New(guard.Config{
			Holdback:      *guardHoldback,
			QuarantineTTL: *guardQuarTTL,
			Clock:         clock,
			Metrics:       reg,
		})
		if err != nil {
			return err
		}
	}

	cfg := core.Config{
		Sampler:          sampler,
		Routes:           retry,
		Clock:            clock,
		UpdateInterval:   *interval,
		TTL:              *ttl,
		Alpha:            *alpha,
		CMax:             *cmax,
		CMin:             *cmin,
		PrefixBits:       *prefixBits,
		Shards:           *shards,
		Combiner:         comb,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Metrics:          reg,
	}
	if gov != nil {
		// Assigned only when non-nil: a typed-nil *guard.Governor in the
		// interface field would read as "governor present" to the agent.
		cfg.Guard = gov
	}
	agent, err := core.New(cfg)
	if err != nil {
		return err
	}

	// Fleet sharing: warm-start from the on-disk snapshot before the first
	// sampler tick, then keep persisting, and pull peer deltas in the
	// background. All of it is optional and advisory — fleet trouble never
	// touches the local learn/program loop.
	source, _ := os.Hostname()
	// The instance identity is fresh per boot: peers use it to notice a
	// restart (version counter reset) and pull the full table instead of
	// trusting a stale delta cursor.
	instance := fmt.Sprintf("%s-%d", source, time.Now().UnixNano())
	fl := &fleetState{Source: source, Instance: instance}
	// One shared response-cache server backs both fleet endpoints, so
	// a converged fleet's identical GETs are answered from one encoded body
	// (or a 304) instead of a fresh table export each.
	fl.Server = fleet.NewServer(agent, source, instance, nil)
	if *snapshotFile != "" {
		stats, err := warmStart(agent, *snapshotFile, *fleetMaxAge, time.Now())
		if err != nil {
			logger.Printf("warm start: %v (starting cold)", err)
		} else if stats.Merged > 0 || stats.SkippedStale > 0 {
			logger.Printf("warm start: merged %d entries, skipped %d stale", stats.Merged, stats.SkippedStale)
		}
		fl.Persister = &fleet.Persister{
			Path:     *snapshotFile,
			Source:   source,
			Agent:    agent,
			Interval: *snapshotInterval,
			Logf:     logger.Printf,
		}
	}
	if *peerSpec != "" {
		fl.Puller, err = fleet.NewPuller(fleet.PullerConfig{
			Agent:    agent,
			Peers:    strings.Split(*peerSpec, ","),
			Interval: *peerInterval,
			Timeout:  *peerTimeout,
			Policy:   core.MergePolicy{MaxAge: *fleetMaxAge},
			Logf:     logger.Printf,
		})
		if err != nil {
			return err
		}
	}

	var persistDone chan struct{}
	if fl.Persister != nil {
		persistDone = make(chan struct{})
		go func() {
			fl.Persister.Run(ctx)
			close(persistDone)
		}()
	}
	if fl.Puller != nil {
		go func() {
			// One immediate pull jump-starts from peers at boot; then the
			// periodic loop takes over.
			fl.Puller.PullOnce(ctx)
			fl.Puller.Run(ctx)
		}()
	}

	if *statusAddr != "" {
		go func() {
			if err := serveStatus(ctx, *statusAddr, agent, retry, fl, gov); err != nil {
				logger.Printf("status server: %v", err)
			}
		}()
	}

	logger.Printf("started: i_u=%v ttl=%v alpha=%v window=[%d,%d] combiner=%s shards=%d dry-run=%v guard=%v",
		*interval, *ttl, *alpha, *cmin, *cmax, *combiner, agent.Shards(), *dryRun, *guardOn)

	if *verbose {
		go func() {
			t := time.NewTicker(10 * *interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					for _, e := range agent.Entries() {
						logger.Printf("entry %s initcwnd=%d obs=%d", e.Prefix, e.Window, e.Observations)
					}
				}
			}
		}()
	}

	tickLoop(ctx, agent, func(tickErr error) {
		logger.Printf("tick: %v", tickErr)
	})
	if persistDone != nil {
		// The persister writes its final snapshot on ctx cancellation;
		// wait for it before Close wipes the learned table.
		<-persistDone
	}
	err = agent.Close()
	s := agent.Stats()
	rs := retry.Stats()
	logger.Printf("stopped: ticks=%d observations=%d routes-set=%d routes-cleared=%d retries=%d fallbacks=%d degraded-ticks=%d",
		s.Ticks, s.Observations, s.RoutesSet, s.RoutesCleared, rs.Retries, rs.Fallbacks, s.DegradedTicks)
	return err
}
