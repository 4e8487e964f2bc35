// Command riptided is the Riptide agent daemon for real Linux hosts: it
// samples the established-connection table every update interval, learns
// per-destination congestion windows, and programs per-route initcwnd
// overrides, exactly as described in the paper's Section III.
//
// The kernel is spoken to through a selectable backend (-backend): netlink
// (NETLINK_SOCK_DIAG dumps and rtnetlink route batches, no fork/exec on
// the hot path), exec (`ss -tin` / `ip route` commands), or auto (the
// default: probe netlink, fall back to exec).
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
	"riptide/internal/linux"
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

// backend bundles one host-backend selection: how riptided samples the
// connection table and programs routes.
type backend struct {
	name      string
	sampler   core.ConnectionSampler
	routes    riptide.RouteProgrammer // nil in dry-run
	reconcile func() (int, error)     // nil in dry-run
	close     func()                  // nil when nothing to release
}

// buildBackend constructs the selected host backend. "netlink" talks the
// kernel wire protocols directly (no fork/exec on the hot path), "exec"
// shells out to ss/ip, and "auto" probes netlink — interface present and
// privileges sufficient — falling back to exec with a logged reason.
func buildBackend(kind string, reg *metrics.Registry, rcfg linux.RoutesConfig, dryRun bool, logf func(string, ...any)) (*backend, error) {
	switch kind {
	case "netlink":
		return buildNetlinkBackend(rcfg, dryRun)
	case "exec":
		return buildExecBackend(reg, rcfg, dryRun)
	case "auto":
		be, err := buildNetlinkBackend(rcfg, dryRun)
		if err == nil {
			return be, nil
		}
		logf("backend auto: netlink unavailable (%v), falling back to exec", err)
		return buildExecBackend(reg, rcfg, dryRun)
	default:
		return nil, fmt.Errorf("unknown backend %q (want netlink, exec, or auto)", kind)
	}
}

func buildNetlinkBackend(rcfg linux.RoutesConfig, dryRun bool) (*backend, error) {
	s, err := netlink.NewSampler(netlink.SamplerConfig{})
	if err != nil {
		return nil, err
	}
	if err := core.ProbeBackend(s); err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("netlink sampler probe: %w", err)
	}
	be := &backend{name: "netlink", sampler: s, close: func() { _ = s.Close() }}
	if dryRun {
		return be, nil
	}
	r, err := netlink.NewRoutes(netlink.RoutesConfig{RoutesConfig: rcfg})
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	if err := core.ProbeBackend(r); err != nil {
		_ = s.Close()
		_ = r.Close()
		return nil, fmt.Errorf("netlink routes probe: %w", err)
	}
	be.routes = r
	be.reconcile = r.Reconcile
	be.close = func() { _ = s.Close(); _ = r.Close() }
	return be, nil
}

func buildExecBackend(reg *metrics.Registry, rcfg linux.RoutesConfig, dryRun bool) (*backend, error) {
	runner := linux.ExecRunner{Metrics: reg}
	sampler, err := linux.NewSampler(runner)
	if err != nil {
		return nil, err
	}
	be := &backend{name: "exec", sampler: sampler}
	if dryRun {
		return be, nil
	}
	ipRoutes, err := linux.NewRoutes(runner, rcfg)
	if err != nil {
		return nil, err
	}
	be.routes = ipRoutes
	be.reconcile = ipRoutes.Reconcile
	return be, nil
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
		backendSel = fs.String("backend", "auto", "host backend: netlink (speak NETLINK_SOCK_DIAG/rtnetlink directly), exec (shell out to ss/ip), auto (probe netlink, fall back to exec)")
		dryRun     = fs.Bool("dry-run", false, "print ip commands instead of executing them")
		combiner   = fs.String("combiner", "average", "combiner: average|max|traffic-weighted")
		verbose    = fs.Bool("v", false, "log each tick's learned entries")
		statusAddr = fs.String("status", "", "serve /status, /metrics, /metrics.json, /healthz on this address (e.g. 127.0.0.1:9090)")
		reconcile  = fs.Bool("reconcile", true, "withdraw leftover riptide routes from a previous run at startup")
		runFor     = fs.Duration("run-for", 0, "exit after this long instead of waiting for a signal (diagnostics)")

		routeAttempts = fs.Int("route-attempts", core.DefaultRetryAttempts, "attempts per ip-route operation (1 disables retries)")
		retryBase     = fs.Duration("retry-base", core.DefaultRetryBaseDelay, "backoff before the first route retry (doubles per retry)")
		retryMax      = fs.Duration("retry-max", core.DefaultRetryMaxDelay, "backoff cap for route retries")
		failureBudget = fs.Int("route-failure-budget", core.DefaultRetryFailureBudget, "consecutive per-destination programming failures before falling back to clearing the route (negative disables)")

		breakerThreshold = fs.Int("breaker-threshold", core.DefaultBreakerThreshold, "consecutive ss failures that open the sampler circuit breaker (negative disables)")
		breakerCooldown  = fs.Duration("breaker-cooldown", core.DefaultBreakerCooldown, "how long the open breaker degrades ticks to expiry-only before probing ss again")

		guardOn       = fs.Bool("guard", false, "enable the loss-feedback safety governor (throttles, then quarantines, destinations whose loss regresses under the programmed window)")
		guardHoldback = fs.Float64("guard-holdback", guard.DefaultHoldback, "fraction of destinations held back at the kernel default as the governor's canary baseline")
		guardQuarTTL  = fs.Duration("guard-quarantine-ttl", guard.DefaultQuarantineTTL, "quarantine cool-down before the governor probes a destination again")

		snapshotFile     = fs.String("snapshot-file", "", "persist the learned table to this file (periodic + on shutdown) and warm-start from it on boot")
		snapshotInterval = fs.Duration("snapshot-interval", time.Minute, "how often to persist the snapshot file")
		peerSpec         = fs.String("peers", "", "comma-separated fleet peers (host:port or URL) to pull snapshots from")
		peerInterval     = fs.Duration("peer-interval", 30*time.Second, "how often to pull peer snapshots")
		peerTimeout      = fs.Duration("peer-timeout", 5*time.Second, "timeout per peer snapshot request")
		fleetMaxAge      = fs.Duration("fleet-max-age", 0, "reject snapshot entries older than this (0 = the TTL)")
		gossipOn         = fs.Bool("gossip", true, "sync peers via the anti-entropy digest/delta ladder, falling back per round to a full snapshot pull when a peer lacks the gossip endpoints; -gossip=false pulls the full table every -peer-interval")
		gossipInterval   = fs.Duration("gossip-interval", 0, "peer sync cadence when -gossip is on (0 = -peer-interval); digests are cheap, so this can be much shorter")
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

	// One registry spans the agent, the retry decorator, and the exec
	// runner, so /metrics and /metrics.json show the whole pipeline.
	reg := metrics.NewRegistry()

	be, err := buildBackend(*backendSel, reg, linux.RoutesConfig{
		Device:      *device,
		Gateway:     *gateway,
		SetInitRwnd: *initRwnd,
	}, *dryRun, logger.Printf)
	if err != nil {
		return err
	}
	sampler := be.sampler
	var routes riptide.RouteProgrammer
	if *dryRun {
		routes = dryRunRoutes{out: logger}
	} else {
		if *reconcile {
			// A previous incarnation may have died without
			// withdrawing its routes; stale aggressive windows must
			// not outlive their observations (Section III-C).
			removed, err := be.reconcile()
			if err != nil {
				logger.Printf("reconcile: %v", err)
			}
			if removed > 0 {
				logger.Printf("reconcile: withdrew %d stale riptide route(s)", removed)
			}
		}
		routes = be.routes
	}

	// The retry decorator sits between the agent and the backend: bounded
	// backoff for transient ip failures, and a conservative fall-back to
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
	// sampler tick, then keep persisting, and pull peer snapshots in the
	// background. All of it is optional and advisory — fleet trouble never
	// touches the local learn/program loop.
	source, _ := os.Hostname()
	// The instance identity is fresh per boot: peers use it to notice a
	// restart (version counter reset) and resync divergent digest buckets
	// instead of trusting a stale delta cursor.
	instance := fmt.Sprintf("%s-%d", source, time.Now().UnixNano())
	fl := &fleetState{Source: source, Instance: instance}
	// One shared response-cache server backs all three fleet endpoints, so
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
		pullEvery := *peerInterval
		if *gossipOn && *gossipInterval > 0 {
			pullEvery = *gossipInterval
		}
		fl.Puller, err = fleet.NewPuller(fleet.PullerConfig{
			Agent:    agent,
			Peers:    strings.Split(*peerSpec, ","),
			Interval: pullEvery,
			Timeout:  *peerTimeout,
			Policy:   core.MergePolicy{MaxAge: *fleetMaxAge},
			Gossip:   *gossipOn,
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

	logger.Printf("started: backend=%s i_u=%v ttl=%v alpha=%v window=[%d,%d] combiner=%s shards=%d dry-run=%v guard=%v gossip=%v",
		be.name, *interval, *ttl, *alpha, *cmin, *cmax, *combiner, agent.Shards(), *dryRun, *guardOn, *gossipOn)

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
	if be.close != nil {
		be.close()
	}
	s := agent.Stats()
	rs := retry.Stats()
	logger.Printf("stopped: ticks=%d observations=%d routes-set=%d routes-cleared=%d retries=%d fallbacks=%d degraded-ticks=%d",
		s.Ticks, s.Observations, s.RoutesSet, s.RoutesCleared, rs.Retries, rs.Fallbacks, s.DegradedTicks)
	return err
}
