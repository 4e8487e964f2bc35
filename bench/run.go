package main

import (
	"fmt"
	"runtime"
	"time"

	"riptide/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	rig  *rigSpec // nil for the simulator workload
}

// workloads are final: names, sizes and reasons are part of the ledger.
// README.md holds the long form of each reason.
var workloads = []workload{
	{"steady-100k", "converged fleet: the full socket dump dominates, plan is quiescent, the pull is a 304; route programming, encode, decode and merge are bypassed",
		&rigSpec{n: 100_000, warm: 120}},
	{"churn-100k", "working regime: 1% new cwnds and 0.1% new destinations per round, so plan/commit, delta encode, decode and merge dominate and sampling is a minority",
		&rigSpec{n: 100_000, warm: 120, cwndShare: 0.01, moveShare: 0.001}},
	{"cold-25k", "reboot and warm start: fresh boxes every round, so every layer does bulk work (first-touch plan, 25k-op batches, full encode, full merge) and no delta path helps",
		&rigSpec{n: 25_000, warm: 3, cwndShare: 1, cold: true}},
	{"sim-34pop", "the paper's evaluation harness: 34 simulated PoPs for 30 simulated minutes, which exercises eventsim/tcpsim/netsim/kernel/cdn and none of netlink/fleet",
		nil},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one benchmark run.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64 // length of the measured phase
	rounds   int     // when > 0, measure this many rounds and ignore seconds
	trace    bool
	outDir   string // where the trace file goes

	// Sizes the smoke tests shrink; zero means the workload's own.
	n      int
	simFor time.Duration
}

// runResult is one run's report.
type runResult struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      bool     `json:"trace"`
	N          int      `json:"n"`
	Rounds     int      `json:"rounds"`
	WallS      float64  `json:"wall_s"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    values   `json:"metrics"`
	Violations []string `json:"violations,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
}

// phase is a run of consecutive rounds measured together.
type phase struct {
	first  int // number of the first round
	rounds int
	failed int
	times  []roundTimes
	cpu    time.Duration
	alloc  uint64
	c      counters
}

// Shares of a traced run's measured time: an untraced pass for the
// workload-specific latencies and the overhead base, the traced pass, and a
// traced pass at GOMAXPROCS=1 of at most singleProcRounds rounds.
const (
	untracedShare    = 0.35
	tracedShare      = 0.50
	singleProcShare  = 0.15
	singleProcRounds = 50
)

// runPhase runs rounds until the budget is spent or maxRounds are done,
// whichever is set and comes first. It forces a GC first, so a phase starts
// from the same heap state whatever ran before it.
func (r *rig) runPhase(budget time.Duration, maxRounds int, m *meter) phase {
	runtime.GC()
	m.take()
	p := phase{first: r.round + 1}
	before := r.counts()
	start := time.Now()
	for {
		if maxRounds > 0 && p.rounds == maxRounds {
			break
		}
		if budget > 0 && p.rounds >= 3 && time.Since(start) >= budget {
			break
		}
		t, failed := r.runRound(m)
		p.rounds++
		if failed {
			p.failed++
		}
		p.times = append(p.times, t)
	}
	p.cpu, p.alloc = m.take()
	p.c = r.counts().minus(before)
	return p
}

// endToEndValues turns an untraced phase — the wall time of each round in
// milliseconds, and what the meter charged — into the end-to-end metrics.
func endToEndValues(v values, wall []float64, cpu time.Duration, alloc uint64, heap uint64, setup time.Duration) {
	n := float64(len(wall))
	v.setN("round_ms_p50", percentile(wall, 50), len(wall))
	v.set("rounds_per_s", ratio(n, total(wall)/1e3))
	v.set("cpu_ms_per_round", float64(cpu)/1e6/n)
	v.set("alloc_kb_per_round", float64(alloc)/1024/n)
	v.set("heap_mb", float64(heap)/(1<<20))
	v.set("setup_s", setup.Seconds())
}

// heapInUse is HeapInuse after a forced GC.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// budget is the time one pass may take: its share of the measured seconds,
// or no limit when the run counts rounds instead.
func (c runConfig) budget(share float64) time.Duration {
	if c.rounds > 0 {
		return 0
	}
	return time.Duration(share * c.seconds * float64(time.Second))
}

// runRig runs one of the three two-box workloads.
func runRig(cfg runConfig, prov provenance) (runResult, error) {
	spec := *cfg.workload.rig
	if cfg.n > 0 {
		spec.n = cfg.n
	}
	res := runResult{Workload: cfg.workload.Name, Seed: cfg.seed, Trace: cfg.trace, N: spec.n, Metrics: values{}}
	began := time.Now()
	tr := newTracer()
	m := newMeter()

	r, err := newRig(spec, cfg.seed, tr)
	if err != nil {
		return res, err
	}
	defer r.close()
	setupFailed := 0
	for i := 0; i <= spec.warm; i++ {
		if _, failed := r.runRound(m); failed {
			setupFailed++
		}
	}
	setup := time.Since(began)

	var measured, untraced, oneProc phase
	var heap uint64
	if !cfg.trace {
		measured = r.runPhase(cfg.budget(1), cfg.rounds, m)
		heap = heapInUse()
	} else {
		untraced = r.runPhase(cfg.budget(untracedShare), cfg.rounds, m)
		tr.on.Store(true)
		measured = r.runPhase(cfg.budget(tracedShare), cfg.rounds, m)
		// The sharded tick's speed-up is its self time on one processor over
		// its self time on all of them; agents built meanwhile keep the
		// shard count they would have had.
		procs := runtime.GOMAXPROCS(1)
		r.shards = min(procs, core.MaxDefaultShards)
		oneProcRounds := singleProcRounds
		if cfg.rounds > 0 {
			oneProcRounds = min(oneProcRounds, cfg.rounds)
		}
		oneProc = r.runPhase(cfg.budget(singleProcShare), oneProcRounds, m)
		runtime.GOMAXPROCS(procs)
		tr.on.Store(false)
	}
	finalFailed := setupFailed > 0
	if r.a != nil {
		before := r.nViolation
		r.retire()
		finalFailed = finalFailed || r.nViolation > before
	}

	if !cfg.trace {
		endToEndValues(res.Metrics, column(measured.times, roundTimes.wallMs), measured.cpu, measured.alloc, heap, setup)
		res.Metrics.complete(endToEnd)
	} else {
		r.layerValues(res.Metrics, untraced, measured, oneProc)
		res.Metrics.complete(perLayer)
		if res.TraceFile, err = tr.write(cfg.outDir, cfg.workload.Name, prov); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
	}

	// One attempt per measured round, plus one for set-up and the end-of-life
	// check of the boxes together.
	res.Rounds = measured.rounds + untraced.rounds + oneProc.rounds
	res.Attempted = res.Rounds + 1
	res.Failed = measured.failed + untraced.failed + oneProc.failed
	if finalFailed {
		res.Failed++
	}
	res.Violations = r.violations
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// layerValues turns the three passes of a traced run into per-layer metrics.
// Times are means per round of the traced pass; counts marked "per round"
// likewise; fleet.rounds_* and trace.rounds are totals of the traced pass.
func (r *rig) layerValues(v values, untraced, traced, oneProc phase) {
	v.setN("local_ms_p50", percentile(column(untraced.times, roundTimes.localMs), 50), untraced.rounds)
	peer := column(untraced.times, roundTimes.peerMs)
	v.setN("peer_ms_p50", percentile(peer, 50), untraced.rounds)
	v.setN("peer_ms_p95", percentile(peer, 95), untraced.rounds)
	v.set("wire_bytes_per_round", ratio(float64(untraced.c[cWireBytes]), float64(untraced.rounds)))

	n := float64(traced.rounds)
	st := r.tr.totals(traced.first, traced.first+traced.rounds)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	c := func(i counter) float64 { return float64(traced.c[i]) }

	v.set("netlink.sample_ms", ms(st.dur[spanSample]))
	v.set("netlink.sample_ns_per_sock", ratio(float64(st.dur[spanSample]), c(cSocks)))
	v.set("netlink.program_ms", ms(st.dur[spanProgram]))
	v.set("netlink.program_ops", c(cProgramOps)/n)
	v.set("netlink.program_ns_per_op", ratio(float64(st.dur[spanProgram]), c(cProgramOps)))
	v.set("netlink.program_failed", c(cProgramFailed)+c(cPeerProgramFailed))
	v.set("netlink.peer_program_ms", ms(st.dur[spanPeerProgram]))
	v.set("netlink.peer_program_ops", c(cPeerProgramOps)/n)

	v.set("core.tick_self_ms", ms(st.self[spanTick]))
	v.set("core.retry_self_ms", ms(st.self[spanRetry]))
	v.set("core.observations", c(cObservations)/n)
	v.set("core.routes_set", c(cRoutesSet)/n)
	v.set("core.routes_cleared", c(cRoutesCleared)/n)
	v.set("core.entries_expired", c(cEntriesExpired)/n)
	v.set("core.ops_per_changed_sock", ratio(c(cProgramOps), c(cMutations)))
	v.set("core.useful_op_share", ratio(c(cShadowUseful), c(cShadowOps)))
	one := r.tr.totals(oneProc.first, oneProc.first+oneProc.rounds)
	v.set("core.shard_speedup", ratio(float64(one.self[spanTick])/float64(oneProc.rounds), float64(st.self[spanTick])/n))
	v.set("core.peer_tick_ms", ms(st.dur[spanPeerTick]))
	v.set("core.merged", c(cMerged)/n)
	v.set("core.merge_skipped_local", c(cMergeSkippedLocal)/n)
	v.set("core.table_entries", float64(r.tableEntries))

	v.set("fleet.serve_ms", ms(st.dur[spanServe]))
	v.set("fleet.serve_requests", c(cServeRequests)/n)
	v.set("fleet.serve_body_bytes", c(cServeBodyBytes)/n)
	v.set("fleet.serve_304_share", ratio(c(cServeNotModified), c(cServeRequests)))
	v.set("fleet.serve_cache_hit_share", ratio(c(cServeHits), c(cServeRequests)))
	v.set("fleet.transport_ms", ms(st.self[spanRoundTrip]))
	v.set("fleet.pull_self_ms", ms(st.self[spanPull]))
	v.set("fleet.rounds_digest", c(cRoundsDigest))
	v.set("fleet.rounds_delta", c(cRoundsDelta))
	v.set("fleet.rounds_buckets", c(cRoundsBuckets))
	v.set("fleet.rounds_full", c(cRoundsFull))
	v.set("fleet.rounds_not_modified", c(cRoundsNotModified))

	decodeMs := c(cDecodeNs) / 1e6 / n
	v.set("gossip.decode_ms", decodeMs)
	v.set("gossip.decode_ns_per_entry", ratio(c(cDecodeNs), c(cEntriesMoved)))
	v.set("gossip.entries_moved", c(cEntriesMoved)/n)
	v.set("gossip.bytes_per_entry", ratio(c(cWireBytes), c(cEntriesMoved)))
	// Derived, not timed: what is left of the pull after the round trips,
	// B's route programming and the decode is gunzip plus MergeSnapshot.
	v.set("core.merge_ms", max(ms(st.self[spanPull])-decodeMs, 0))

	v.set("trace.rounds", n)
	v.set("trace.unattributed_share", ratio(float64(st.self[spanRound]), float64(st.dur[spanRound])))
	v.set("trace.overhead_share", overheadShare(column(untraced.times, roundTimes.wallMs), column(traced.times, roundTimes.wallMs)))
}

// overheadShare is the share of throughput tracing costs: 1 − traced rounds
// per second over untraced rounds per second, from each pass's round walls.
func overheadShare(untraced, traced []float64) float64 {
	return 1 - ratio(ratio(float64(len(traced)), total(traced)), ratio(float64(len(untraced)), total(untraced)))
}
