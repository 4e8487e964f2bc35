package main

import (
	"fmt"
	"runtime"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/eventsim"
)

// simDuration is how much simulated time one sim-34pop round covers.
const simDuration = 30 * time.Minute

// busyPoPs carry four organic transfers per second and every other PoP one:
// the organic profile of experiments.Headline.
var busyPoPs = map[string]bool{"lhr": true, "fra": true, "jfk": true, "lax": true, "nrt": true}

// simRound is what one cluster run measured and counted.
type simRound struct {
	buildMs, runMs float64
	events, ticks  uint64
	probes, routes int
	probeFailures  int
	freshP50       time.Duration // median fresh-connection 50 KB probe time
}

func (r simRound) wallMs() float64 { return r.buildMs + r.runMs }

// simCounts is what must repeat exactly for a seed.
type simCounts struct {
	events, ticks uint64
	probes        int
}

// runCluster builds the 34-PoP cluster and runs it for simFor of simulated
// time, timing both steps.
func runCluster(seed int64, simFor time.Duration, riptide bool, tr *tracer) (c *cdn.Cluster, buildMs, runMs float64, err error) {
	pops := cdn.DefaultTopology()
	organic := make(map[string]float64, len(pops))
	for _, p := range pops {
		organic[p.Name] = 1
		if busyPoPs[p.Name] {
			organic[p.Name] = 4
		}
	}
	t0 := time.Now()
	s := tr.begin(spanBuild)
	c, err = cdn.NewCluster(cdn.Config{
		PoPs:     pops,
		Seed:     seed,
		LossRate: 0.002,
		Riptide:  cdn.RiptideOptions{Enabled: riptide},
		Traffic: cdn.TrafficOptions{
			ProbeInterval: 4 * time.Minute,
			IdleTimeout:   2 * time.Minute,
			OrganicRates:  organic,
		},
	})
	tr.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	s = tr.begin(spanRun)
	c.Run(simFor)
	tr.end(s)
	return c, float64(t1.Sub(t0)) / 1e6, float64(time.Since(t1)) / 1e6, nil
}

// collect reads a finished cluster's counts and stops it.
func collect(c *cdn.Cluster, buildMs, runMs float64) simRound {
	out := simRound{buildMs: buildMs, runMs: runMs}
	out.events = c.Engine().Fired()
	out.routes = c.TotalRoutes()
	out.probeFailures = len(c.ProbeFailures())
	for _, p := range c.PoPs() {
		for _, a := range c.Agents(p.Name) {
			out.ticks += a.Stats().Ticks
		}
	}
	var fresh []float64
	records := c.ProbeRecords()
	out.probes = len(records)
	for _, p := range records {
		if p.FreshConn && p.SizeBytes == 50*1024 {
			fresh = append(fresh, float64(p.Elapsed))
		}
	}
	out.freshP50 = time.Duration(percentile(fresh, 50))
	c.Stop()
	return out
}

// bareEventNs times an eventsim.Engine firing a million no-op events: the
// event queue's own cost per event.
func bareEventNs() (float64, error) {
	const n = 1_000_000
	e := eventsim.NewEngine()
	for i := 0; i < n; i++ {
		if _, err := e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	e.Run()
	return float64(time.Since(start)) / n, nil
}

// simPhase is a run of consecutive simulator rounds measured together.
type simPhase struct {
	rounds []simRound
	cpu    time.Duration
	alloc  uint64
}

// simRun is the state of one sim-34pop run.
type simRun struct {
	cfg        runConfig
	simFor     time.Duration
	tr         *tracer
	m          *meter
	seen       map[int64]simCounts // per round seed, to check runs repeat
	heaps      []float64           // HeapInuse with each measured round's cluster still live
	violations []string
	failed     int
}

func (s *simRun) violate(format string, args ...any) {
	if len(s.violations) < 8 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// round runs the cluster for round i (seed = base + i) and gates it: no
// probe failed to connect, and a seed run before gives the same counts.
func (s *simRun) round(i int, measure bool) (simRound, error) {
	seed := s.cfg.seed + int64(i)
	s.tr.setRound(i + 1)
	if measure {
		s.m.begin()
	}
	root := s.tr.begin(spanRound)
	c, buildMs, runMs, err := runCluster(seed, s.simFor, true, s.tr)
	s.tr.end(root)
	if measure {
		s.m.end()
	}
	if err != nil {
		return simRound{}, err
	}
	r := collect(c, buildMs, runMs)
	if measure && !s.cfg.trace {
		// One cluster's heap depends on its seed; the median over the rounds
		// does not depend on which round happened to be last.
		s.heaps = append(s.heaps, float64(heapInUse()))
		runtime.KeepAlive(c)
	}
	ok := true
	if r.probeFailures > 0 {
		s.violate("seed %d: %d probes failed to connect", seed, r.probeFailures)
		ok = false
	}
	got := simCounts{r.events, r.ticks, r.probes}
	if prev, dup := s.seen[seed]; dup && prev != got {
		s.violate("seed %d does not repeat: %+v then %+v", seed, prev, got)
		ok = false
	}
	s.seen[seed] = got
	if !ok {
		s.failed++
	}
	return r, nil
}

// phase runs rounds 0,1,2,... until the budget is spent or maxRounds are
// done, whichever is set and comes first.
func (s *simRun) phase(budget time.Duration, maxRounds int) (simPhase, error) {
	runtime.GC()
	s.m.take()
	var p simPhase
	start := time.Now()
	for i := 0; ; i++ {
		if maxRounds > 0 && i == maxRounds {
			break
		}
		if budget > 0 && i >= 3 && time.Since(start) >= budget {
			break
		}
		r, err := s.round(i, true)
		if err != nil {
			return p, err
		}
		p.rounds = append(p.rounds, r)
	}
	p.cpu, p.alloc = s.m.take()
	return p, nil
}

// runSim runs the sim-34pop workload. Set-up is the event-queue calibration,
// one control run with Riptide off and one warm run with it on, both on the
// base seed: the control must show slower fresh-connection probes, and the
// first measured round must repeat the warm run's counts.
func runSim(cfg runConfig, prov provenance) (runResult, error) {
	s := &simRun{cfg: cfg, simFor: simDuration, tr: newTracer(), m: newMeter(), seen: map[int64]simCounts{}}
	if cfg.simFor > 0 {
		s.simFor = cfg.simFor
	}
	res := runResult{Workload: cfg.workload.Name, Seed: cfg.seed, Trace: cfg.trace, N: len(cdn.DefaultTopology()), Metrics: values{}}
	began := time.Now()

	bareNs, err := bareEventNs()
	if err != nil {
		return res, err
	}
	c, buildMs, runMs, err := runCluster(cfg.seed, s.simFor, false, s.tr)
	if err != nil {
		return res, err
	}
	control := collect(c, buildMs, runMs)
	warm, err := s.round(0, false)
	if err != nil {
		return res, err
	}
	if control.freshP50 <= warm.freshP50 {
		s.violate("fresh 50 KB probes: control median %v is not above Riptide's %v", control.freshP50, warm.freshP50)
		s.failed++
	}
	setupFailed := s.failed
	setup := time.Since(began)

	var measured, untraced simPhase
	if !cfg.trace {
		if measured, err = s.phase(cfg.budget(1), cfg.rounds); err != nil {
			return res, err
		}
		endToEndValues(res.Metrics, column(measured.rounds, simRound.wallMs), measured.cpu, measured.alloc, uint64(percentile(s.heaps, 50)), setup)
		res.Metrics.complete(endToEnd)
	} else {
		// The single-processor pass has nothing to show here: the simulator
		// is one goroutine. Its share goes to the traced pass.
		if untraced, err = s.phase(cfg.budget(untracedShare), cfg.rounds); err != nil {
			return res, err
		}
		s.tr.on.Store(true)
		if measured, err = s.phase(cfg.budget(tracedShare+singleProcShare), cfg.rounds); err != nil {
			return res, err
		}
		s.tr.on.Store(false)
		s.layerValues(res.Metrics, untraced, measured, bareNs)
		res.Metrics.complete(perLayer)
		if res.TraceFile, err = s.tr.write(cfg.outDir, cfg.workload.Name, prov); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
	}

	// One attempt per measured round, plus one for the set-up checks.
	res.Rounds = len(measured.rounds) + len(untraced.rounds)
	res.Attempted = res.Rounds + 1
	res.Failed = s.failed - setupFailed
	if setupFailed > 0 {
		res.Failed++
	}
	res.Violations = s.violations
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// layerValues turns the two passes of a traced simulator run into per-layer
// metrics: means per round of the traced pass, latencies of the untraced one.
func (s *simRun) layerValues(v values, untraced, traced simPhase, bareNs float64) {
	run := column(untraced.rounds, func(r simRound) float64 { return r.runMs })
	v.setN("sim_run_ms_p50", percentile(run, 50), len(run))
	v.set("sim_events_per_s", ratio(total(column(untraced.rounds, func(r simRound) float64 { return float64(r.events) })), total(run)/1e3))

	n := float64(len(traced.rounds))
	st := s.tr.totals(1, len(traced.rounds)+1)
	mean := func(f func(simRound) float64) float64 { return total(column(traced.rounds, f)) / n }
	events := mean(func(r simRound) float64 { return float64(r.events) })
	v.set("cdn.build_ms", float64(st.dur[spanBuild])/1e6/n)
	v.set("cdn.run_ms", float64(st.dur[spanRun])/1e6/n)
	v.set("cdn.probes", mean(func(r simRound) float64 { return float64(r.probes) }))
	v.set("cdn.routes_end", mean(func(r simRound) float64 { return float64(r.routes) }))
	v.set("eventsim.events", events)
	v.set("eventsim.bare_ns_per_event", bareNs)
	v.set("eventsim.queue_share", ratio(events*bareNs, float64(st.dur[spanRun])/n))
	v.set("core.sim_ticks", mean(func(r simRound) float64 { return float64(r.ticks) }))

	v.set("trace.rounds", n)
	v.set("trace.unattributed_share", ratio(float64(st.self[spanRound]), float64(st.dur[spanRound])))
	v.set("trace.overhead_share", overheadShare(column(untraced.rounds, simRound.wallMs), column(traced.rounds, simRound.wallMs)))
}
