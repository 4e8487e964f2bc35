// Package daemon assembles the agent a host runs: sampling and route
// programming behind the retry decorator, the optional governor, fleet
// sharing, the status surface, and the one tick loop (the paper's Section
// III). riptided binds its flags into a Config and calls Run over the host
// kernel's netlink; riptide.NewLinuxAgent returns the same stack's Agent; and
// every simulated host of internal/cdn is a Daemon over its simulated kernel,
// driven step by step on simulated time.
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
	"sync"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/metrics"
	"riptide/internal/netlink"
)

// Config holds the configs the daemon assembles, plus the values of
// riptided's flags that belong to no one of them, and the seams that let
// tests and the simulator run the shipped assembly without the host kernel,
// the network or the wall clock. Zero values mean the defaults, except where
// a field says otherwise.
type Config struct {
	// Agent configures the agent. The daemon owns its Clock (following
	// Now), its Metrics registry and its Guard; a nil Sampler or Routes is
	// the host kernel's, over netlink.
	Agent core.Config
	// Retry configures the route-programming retry decorator; the daemon
	// owns its Context and Metrics.
	Retry core.RetryPolicy
	// Guard configures the loss-feedback governor (-guard); nil means none.
	// The daemon owns its Clock and Metrics.
	Guard *guard.Config
	// Puller configures the fleet puller (-peers and the -peer- flags); no
	// Peers means none. The daemon owns its Agent, Now and Logf. Its Policy
	// also governs the warm start from the snapshot file.
	Puller fleet.PullerConfig

	Device     string // -dev: outgoing device for netlink-programmed routes
	Gateway    string // -via: next hop for netlink-programmed routes
	InitRwnd   bool   // -initrwnd: also set initrwnd on netlink-programmed routes
	DryRun     bool   // -dry-run: log route changes instead of programming netlink routes
	Verbose    bool   // -v: log the learned entries every ten ticks
	StatusAddr string // -status: serve the status surface here; "" disables
	Reconcile  bool   // -reconcile: withdraw leftover riptide netlink routes at startup

	SnapshotFile     string        // -snapshot-file: persist and warm-start here; "" disables
	SnapshotInterval time.Duration // -snapshot-interval; 0 means one minute

	Source string                           // this host's name to its fleet peers; "" means the hostname
	Dial   netlink.DialFunc                 // opens both netlink halves; nil means the host's
	Now    func() time.Time                 // the wall clock the agent's clock follows; nil means time.Now
	Logf   func(format string, args ...any) // nil means log.Printf
}

// Daemon is one assembled agent stack. New builds it without touching the
// kernel. Run drives it on the wall clock; a caller with a clock of its own
// drives the same steps: Start, then Tick and Pull as its clock says, then
// Stop.
type Daemon struct {
	Agent *core.Agent // the assembled agent; its routes go through the retry decorator

	cfg     Config
	sampler *netlink.Sampler // nil when Config.Agent.Sampler was given
	routes  *netlink.Routes  // nil in a dry run or when Config.Agent.Routes was given
	retry   *core.RetryingRouteProgrammer
	gov     *guard.Governor // nil without Config.Guard
	server  *fleet.Server
	puller  *fleet.Puller // nil without peers
	// handler is the status surface, built by the first Handler call.
	handler     http.Handler
	handlerOnce sync.Once
	// retryCtx bounds the route retries; cancelRetry makes a shutdown, or a
	// failed start, abandon their backoff waits.
	retryCtx    context.Context
	cancelRetry context.CancelFunc
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
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = time.Minute
	}
	if cfg.Source == "" {
		cfg.Source, _ = os.Hostname()
	}

	d := &Daemon{cfg: cfg}
	acfg := cfg.Agent
	var err error
	if acfg.Sampler == nil {
		if d.sampler, err = netlink.NewSampler(netlink.SamplerConfig{Dial: cfg.Dial}); err != nil {
			return nil, err
		}
		acfg.Sampler = d.sampler
	}
	routes := acfg.Routes
	switch {
	case routes != nil:
	case cfg.DryRun:
		routes = dryRunRoutes{logf: cfg.Logf}
	default:
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
	d.retryCtx, d.cancelRetry = context.WithCancel(context.Background())
	// The retry decorator sits between the agent and the backend: bounded
	// backoff for transient route failures, and a conservative fall-back
	// to clearing the route when a destination keeps failing.
	policy := cfg.Retry
	policy.Context, policy.Metrics = d.retryCtx, reg
	if d.retry, err = core.NewRetryingRouteProgrammer(routes, policy); err != nil {
		return nil, err
	}

	start := cfg.Now()
	clock := func() time.Duration { return cfg.Now().Sub(start) }
	acfg.Routes, acfg.Clock, acfg.Metrics, acfg.Guard = d.retry, clock, reg, nil
	if cfg.Guard != nil {
		// The governor shares the agent's clock and registry, so its
		// quarantine cool-downs and counters line up with the ticks.
		gcfg := *cfg.Guard
		gcfg.Clock, gcfg.Metrics = clock, reg
		if d.gov, err = guard.New(gcfg); err != nil {
			return nil, err
		}
		// Assigned only when non-nil: a typed-nil *guard.Governor in the
		// interface field would read as "governor present" to the agent.
		acfg.Guard = d.gov
	}
	if d.Agent, err = core.New(acfg); err != nil {
		return nil, err
	}

	// Fleet sharing is advisory: its trouble never touches the local
	// learn/program loop. The instance identity is fresh per boot, so peers
	// notice a restart and pull the full table instead of a stale delta.
	instance := fmt.Sprintf("%s-%d", cfg.Source, cfg.Now().UnixNano())
	d.server = fleet.NewServer(d.Agent, cfg.Source, instance, cfg.Now)
	if len(cfg.Puller.Peers) > 0 {
		pcfg := cfg.Puller
		pcfg.Agent, pcfg.Now, pcfg.Logf = d.Agent, cfg.Now, cfg.Logf
		if d.puller, err = fleet.NewPuller(pcfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Start probes the netlink halves the daemon built, withdraws a previous
// run's leftover routes, and warm-starts from the snapshot file, before the
// first tick. A failed start releases what New acquired: the daemon is done,
// and there is nothing to Stop.
func (d *Daemon) Start() error {
	var err error
	if d.sampler != nil {
		if err = d.sampler.Probe(); err != nil {
			err = fmt.Errorf("netlink sampler probe: %w", err)
		}
	}
	if d.routes != nil && err == nil {
		if err = d.routes.Probe(); err != nil {
			err = fmt.Errorf("netlink routes probe: %w", err)
		}
	}
	if err != nil {
		d.release()
		return err
	}
	logf := d.cfg.Logf
	if d.routes != nil && d.cfg.Reconcile {
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
	if d.cfg.SnapshotFile != "" {
		// Programs the previously learned routes, aged by the downtime,
		// before the first tick. A missing file is the normal first boot.
		snap, elapsed, err := fleet.Load(d.cfg.SnapshotFile, d.cfg.Now())
		var stats core.MergeStats
		if err == nil {
			stats, err = d.Agent.MergeSnapshot(snap.AgedBy(elapsed).CoreEntries(), d.cfg.Puller.Policy)
		}
		if err != nil && !errors.Is(err, fleet.ErrNoSnapshot) {
			logf("warm start: %v (starting cold)", err)
		} else if stats.Merged > 0 || stats.SkippedStale > 0 {
			logf("warm start: merged %d entries, skipped %d stale", stats.Merged, stats.SkippedStale)
		}
	}
	acfg := d.Agent.Config()
	logf("started: i_u=%v ttl=%v alpha=%v window=[%d,%d] combiner=%s dry-run=%v guard=%v",
		acfg.UpdateInterval, acfg.TTL, acfg.Alpha, acfg.CMin, acfg.CMax, acfg.Combiner.Name(), d.cfg.DryRun, d.gov != nil)
	return nil
}

// Tick runs one round of Algorithm 1 and logs its error; -v logs the learned
// entries every ten ticks. It returns the agent's error, core.ErrClosed once
// the daemon has stopped.
func (d *Daemon) Tick() error {
	err := d.Agent.Tick()
	if !errors.Is(err, core.ErrClosed) {
		d.logTick(err)
	}
	return err
}

func (d *Daemon) logTick(err error) {
	if err != nil {
		d.cfg.Logf("tick: %v", err)
	}
	if d.cfg.Verbose && d.Agent.Stats().Ticks%10 == 0 {
		for _, e := range d.Agent.Entries() {
			d.cfg.Logf("entry %s initcwnd=%d obs=%d", e.Prefix, e.Window, e.Observations)
		}
	}
}

// Pull runs one round of the fleet puller: every peer whose backoff has
// lapsed is fetched and merged. Without peers it does nothing.
func (d *Daemon) Pull(ctx context.Context) {
	if d.puller != nil {
		d.puller.PullOnce(ctx)
	}
}

// PeerHealth returns the puller's view of each peer, sorted by URL; nil
// without peers.
func (d *Daemon) PeerHealth() []fleet.PeerHealth {
	if d.puller == nil {
		return nil
	}
	return d.puller.Health()
}

// Stop ends the daemon: it writes the final snapshot, closes the agent,
// withdrawing every route, logs the stopped line and releases the netlink
// sockets. It returns Close's error.
func (d *Daemon) Stop() error {
	if d.cfg.SnapshotFile != "" {
		if err := d.save(); err != nil {
			d.cfg.Logf("fleet: final snapshot save: %v", err)
		}
	}
	// Route withdrawal still gets its first attempt; only retries stop.
	d.cancelRetry()
	err := d.Agent.Close()
	s := d.Agent.Stats()
	rs := d.retry.Stats()
	d.cfg.Logf("stopped: ticks=%d observations=%d routes-set=%d routes-cleared=%d retries=%d fallbacks=%d degraded-ticks=%d",
		s.Ticks, s.Observations, s.RoutesSet, s.RoutesCleared, rs.Retries, rs.Fallbacks, s.DegradedTicks)
	d.release()
	return err
}

// release closes the netlink sockets and abandons route retries.
func (d *Daemon) release() {
	d.cancelRetry()
	if d.sampler != nil {
		d.sampler.Close()
	}
	if d.routes != nil {
		d.routes.Close()
	}
}

// save writes the agent's table to the snapshot file.
func (d *Daemon) save() error {
	return fleet.Save(d.cfg.SnapshotFile, fleet.FromAgent(d.Agent, d.cfg.Source, d.cfg.Now()))
}

// Run drives the steps on the wall clock: Start, then a tick every update
// interval until ctx is done, alongside periodic snapshot saves, the peer
// puller and the status server, then Stop. It returns once every goroutine
// it started has exited.
func (d *Daemon) Run(ctx context.Context) error {
	if err := d.Start(); err != nil {
		return err
	}
	logf := d.cfg.Logf
	// The goroutines below run until the tick loop has returned, so Stop's
	// final snapshot holds the last tick's table.
	bg, stop := context.WithCancel(context.WithoutCancel(ctx))
	defer stop()

	var wg sync.WaitGroup
	goRun := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	if d.cfg.SnapshotFile != "" {
		goRun(func() {
			t := time.NewTicker(d.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-bg.Done():
					return
				case <-t.C:
					if err := d.save(); err != nil {
						logf("fleet: snapshot save: %v", err)
					}
				}
			}
		})
	}
	if d.puller != nil {
		goRun(func() {
			// One immediate pull jump-starts from peers at boot.
			d.Pull(bg)
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

	Loop(ctx, d.Agent, d.logTick)
	stop()
	wg.Wait()
	return d.Stop()
}

// Loop ticks agent every UpdateInterval until ctx is done or the agent is
// closed, handing each tick's error, nil on success, to onTick. A tick during
// which ctx is done is the last. It does not close the agent: the daemon saves
// a final snapshot first.
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
			if ctx.Err() != nil {
				return
			}
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
