// Package daemon assembles the agent a Linux host runs: netlink sampling and
// route programming behind the retry decorator, the optional governor, fleet
// sharing, the status surface, and the one tick loop (the paper's Section
// III). riptided binds its flags into a Config and calls Run;
// riptide.NewLinuxAgent returns the same stack's Agent.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"sync"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/metrics"
	"riptide/internal/netlink"
)

// Config holds the values of riptided's flags, named after them, plus four
// seams that let tests run the shipped assembly without the host kernel, the
// network or the wall clock. Zero values mean the agent's defaults, except
// where a field says otherwise.
type Config struct {
	Device     string        // -dev: outgoing device for programmed routes
	Gateway    string        // -via: next hop for programmed routes
	Interval   time.Duration // -interval: update interval i_u
	TTL        time.Duration // -ttl: learned-entry TTL t
	Alpha      float64       // -alpha: EWMA weight on the historical value
	CMax, CMin int           // -cmax, -cmin: the programmed window's bounds
	PrefixBits int           // -prefix-bits: destination granularity
	InitRwnd   bool          // -initrwnd: also set initrwnd on routes
	DryRun     bool          // -dry-run: log route changes instead of applying them
	Combiner   string        // -combiner: average|max|traffic-weighted
	Verbose    bool          // -v: log the learned entries every ten ticks
	StatusAddr string        // -status: serve the status surface here; "" disables
	Reconcile  bool          // -reconcile: withdraw leftover riptide routes at startup

	RouteAttempts       int           // -route-attempts
	RetryBase, RetryMax time.Duration // -retry-base, -retry-max
	RouteFailureBudget  int           // -route-failure-budget

	BreakerThreshold int           // -breaker-threshold
	BreakerCooldown  time.Duration // -breaker-cooldown

	Guard              bool          // -guard: enable the loss-feedback governor
	GuardHoldback      float64       // -guard-holdback
	GuardQuarantineTTL time.Duration // -guard-quarantine-ttl

	SnapshotFile     string        // -snapshot-file: persist and warm-start here; "" disables
	SnapshotInterval time.Duration // -snapshot-interval
	Peers            string        // -peers: comma-separated fleet peers; "" disables
	PeerInterval     time.Duration // -peer-interval
	PeerTimeout      time.Duration // -peer-timeout
	FleetMaxAge      time.Duration // -fleet-max-age

	Dial      netlink.DialFunc                 // both netlink halves; nil means the host's
	Transport http.RoundTripper                // the peer puller's; nil means http.DefaultTransport
	Now       func() time.Time                 // the wall clock, which the agent's clock follows; nil means time.Now
	Logf      func(format string, args ...any) // nil means log.Printf
}

// Daemon is one assembled agent stack. New builds it without touching the
// kernel; Run probes, starts and stops it.
type Daemon struct {
	Agent *core.Agent // the assembled agent; its routes go through the retry decorator

	cfg         Config
	sampler     *netlink.Sampler
	routes      *netlink.Routes // nil in a dry run
	retry       *core.RetryingRouteProgrammer
	gov         *guard.Governor // nil without -guard
	source      string
	server      *fleet.Server
	puller      *fleet.Puller      // nil without -peers
	persister   *fleet.Persister   // nil without -snapshot-file
	cancelRetry context.CancelFunc // makes a shutdown abandon in-flight route backoff waits
}

// New assembles the stack cfg describes. It validates the configuration and
// resolves a named Device, but opens no netlink socket.
func New(cfg Config) (*Daemon, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	comb, ok := core.CombinerByName(cfg.Combiner)
	if !ok {
		return nil, fmt.Errorf("unknown combiner %q", cfg.Combiner)
	}

	d := &Daemon{cfg: cfg}
	var err error
	if d.sampler, err = netlink.NewSampler(netlink.SamplerConfig{Dial: cfg.Dial}); err != nil {
		return nil, err
	}
	var routes core.RouteProgrammer = dryRunRoutes{logf: cfg.Logf}
	if !cfg.DryRun {
		d.routes, err = netlink.NewRoutes(netlink.RoutesConfig{
			Device:      cfg.Device,
			Gateway:     cfg.Gateway,
			SetInitRwnd: cfg.InitRwnd,
			Dial:        cfg.Dial,
		})
		if err != nil {
			return nil, err
		}
		routes = d.routes
	}

	// One registry spans the agent, the retry decorator and the governor,
	// so /metrics and /metrics.json show the whole pipeline.
	reg := metrics.NewRegistry()
	var retryCtx context.Context
	retryCtx, d.cancelRetry = context.WithCancel(context.Background())
	// The retry decorator sits between the agent and the backend: bounded
	// backoff for transient route failures, and a conservative fall-back
	// to clearing the route when a destination keeps failing.
	d.retry, err = core.NewRetryingRouteProgrammer(routes, core.RetryPolicy{
		MaxAttempts:   cfg.RouteAttempts,
		BaseDelay:     cfg.RetryBase,
		MaxDelay:      cfg.RetryMax,
		FailureBudget: cfg.RouteFailureBudget,
		Context:       retryCtx,
		Metrics:       reg,
	})
	if err != nil {
		return nil, err
	}

	start := cfg.Now()
	clock := func() time.Duration { return cfg.Now().Sub(start) }
	agentCfg := core.Config{
		Sampler:          d.sampler,
		Routes:           d.retry,
		Clock:            clock,
		UpdateInterval:   cfg.Interval,
		TTL:              cfg.TTL,
		Alpha:            cfg.Alpha,
		CMax:             cfg.CMax,
		CMin:             cfg.CMin,
		PrefixBits:       cfg.PrefixBits,
		Combiner:         comb,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Metrics:          reg,
	}
	if cfg.Guard {
		// The governor shares the agent's clock and registry, so its
		// quarantine cool-downs and counters line up with the ticks.
		d.gov, err = guard.New(guard.Config{
			Holdback:      cfg.GuardHoldback,
			QuarantineTTL: cfg.GuardQuarantineTTL,
			Clock:         clock,
			Metrics:       reg,
		})
		if err != nil {
			return nil, err
		}
		// Assigned only when non-nil: a typed-nil *guard.Governor in the
		// interface field would read as "governor present" to the agent.
		agentCfg.Guard = d.gov
	}
	if d.Agent, err = core.New(agentCfg); err != nil {
		return nil, err
	}

	// Fleet sharing is advisory: its trouble never touches the local
	// learn/program loop. The instance identity is fresh per boot, so peers
	// notice a restart and pull the full table instead of a stale delta.
	d.source, _ = os.Hostname()
	instance := fmt.Sprintf("%s-%d", d.source, cfg.Now().UnixNano())
	d.server = fleet.NewServer(d.Agent, d.source, instance, cfg.Now)
	if cfg.SnapshotFile != "" {
		d.persister = &fleet.Persister{
			Path:     cfg.SnapshotFile,
			Source:   d.source,
			Agent:    d.Agent,
			Interval: cfg.SnapshotInterval,
			Now:      cfg.Now,
			Logf:     cfg.Logf,
		}
	}
	if cfg.Peers != "" {
		d.puller, err = fleet.NewPuller(fleet.PullerConfig{
			Agent:    d.Agent,
			Peers:    strings.Split(cfg.Peers, ","),
			Interval: cfg.PeerInterval,
			Timeout:  cfg.PeerTimeout,
			Policy:   core.MergePolicy{MaxAge: cfg.FleetMaxAge},
			Client:   &http.Client{Transport: cfg.Transport},
			Now:      cfg.Now,
			Logf:     cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Run probes both netlink halves, withdraws a previous run's leftover
// routes, warm-starts from the snapshot file, then ticks the agent every
// update interval until ctx is done, alongside the persister, the peer
// puller and the status server; -v logs the learned entries every ten ticks. On the way out it writes
// the final snapshot and closes the agent, withdrawing every route. It
// returns once every goroutine it started has exited.
func (d *Daemon) Run(ctx context.Context) error {
	logf := d.cfg.Logf
	defer d.sampler.Close()
	if err := d.sampler.Probe(); err != nil {
		return fmt.Errorf("netlink sampler probe: %w", err)
	}
	if d.routes != nil {
		defer d.routes.Close()
		if err := d.routes.Probe(); err != nil {
			return fmt.Errorf("netlink routes probe: %w", err)
		}
		if d.cfg.Reconcile {
			// A previous incarnation may have died without withdrawing its
			// routes; stale aggressive windows must not outlive their
			// observations (Section III-C).
			removed, err := d.routes.Reconcile()
			if err != nil {
				logf("reconcile: %v", err)
			}
			if removed > 0 {
				logf("reconcile: withdrew %d stale riptide route(s)", removed)
			}
		}
	}
	// The goroutines below run until the tick loop has returned, so the
	// persister's final snapshot holds the last tick's table.
	bg, stop := context.WithCancel(context.WithoutCancel(ctx))
	defer stop()

	if d.persister != nil {
		// Programs the previously learned routes, aged by the downtime,
		// before the first tick. A missing file is the normal first boot.
		snap, elapsed, err := fleet.Load(d.cfg.SnapshotFile, d.cfg.Now())
		var stats core.MergeStats
		if err == nil {
			stats, err = d.Agent.MergeSnapshot(snap.AgedBy(elapsed).CoreEntries(), core.MergePolicy{MaxAge: d.cfg.FleetMaxAge})
		}
		if err != nil && !errors.Is(err, fleet.ErrNoSnapshot) {
			logf("warm start: %v (starting cold)", err)
		} else if stats.Merged > 0 || stats.SkippedStale > 0 {
			logf("warm start: merged %d entries, skipped %d stale", stats.Merged, stats.SkippedStale)
		}
	}

	var wg sync.WaitGroup
	goRun := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	if d.persister != nil {
		// Writes the final snapshot on cancellation, which the wait below
		// orders before Close wipes the learned table.
		goRun(func() { d.persister.Run(bg) })
	}
	if d.puller != nil {
		goRun(func() {
			// One immediate pull jump-starts from peers at boot.
			d.puller.PullOnce(bg)
			d.puller.Run(bg)
		})
	}
	var status *http.Server
	if d.cfg.StatusAddr != "" {
		if ln, err := net.Listen("tcp", d.cfg.StatusAddr); err != nil {
			logf("status server: %v", err)
		} else {
			logf("status: serving on %s", ln.Addr())
			status = &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 5 * time.Second}
			goRun(func() {
				if err := status.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
					logf("status server: %v", err)
				}
			})
		}
	}
	goRun(func() {
		select {
		case <-ctx.Done():
		case <-bg.Done():
		}
		d.cancelRetry()
		if status != nil {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = status.Shutdown(shutdownCtx)
		}
	})

	acfg := d.Agent.Config()
	logf("started: i_u=%v ttl=%v alpha=%v window=[%d,%d] combiner=%s dry-run=%v guard=%v",
		acfg.UpdateInterval, acfg.TTL, acfg.Alpha, acfg.CMin, acfg.CMax, d.cfg.Combiner, d.cfg.DryRun, d.cfg.Guard)

	ticks := 0
	Loop(ctx, d.Agent, func(err error) {
		if err != nil {
			logf("tick: %v", err)
		}
		if ticks++; d.cfg.Verbose && ticks%10 == 0 {
			for _, e := range d.Agent.Entries() {
				logf("entry %s initcwnd=%d obs=%d", e.Prefix, e.Window, e.Observations)
			}
		}
	})
	stop()
	wg.Wait()
	err := d.Agent.Close()
	s := d.Agent.Stats()
	rs := d.retry.Stats()
	logf("stopped: ticks=%d observations=%d routes-set=%d routes-cleared=%d retries=%d fallbacks=%d degraded-ticks=%d",
		s.Ticks, s.Observations, s.RoutesSet, s.RoutesCleared, rs.Retries, rs.Fallbacks, s.DegradedTicks)
	return err
}

// Loop ticks agent every UpdateInterval until ctx is done or the agent is
// closed, handing each tick's error, nil on success, to onTick. It does not
// close the agent: the daemon saves a final snapshot first.
func Loop(ctx context.Context, agent *core.Agent, onTick func(error)) {
	ticker := time.NewTicker(agent.Config().UpdateInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			err := agent.Tick()
			if errors.Is(err, core.ErrClosed) {
				return
			}
			onTick(err)
		}
	}
}

// dryRunRoutes logs the route changes a dry run would make, as the ip
// route commands that would make them.
type dryRunRoutes struct {
	logf func(format string, args ...any)
}

func (d dryRunRoutes) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	d.logf("DRY-RUN ip route replace %s proto static initcwnd %d", prefix, cwnd)
	return nil
}

func (d dryRunRoutes) ClearInitCwnd(prefix netip.Prefix) error {
	d.logf("DRY-RUN ip route del %s proto static", prefix)
	return nil
}
