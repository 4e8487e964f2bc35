// Package perf is the perf-trajectory harness for the Riptide agent hot
// path. It builds synthetic sampling backends at controlled sizes, runs the
// agent's Tick loop under a Go-bench-style measuring loop, and serialises
// the results as machine-readable JSON (BENCH_<n>.json artefacts) so that
// successive PRs can be compared number-for-number.
//
// The harness lives outside _test.go files on purpose: cmd/riptide-bench
// links it into a plain binary, so perf snapshots can be produced on hosts
// where `go test` tooling is unavailable.
package perf

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"riptide/internal/core"
	"riptide/internal/kernel"
)

// SyntheticObservations builds an n-connection observed table spanning many
// destination addresses with varied windows, RTTs, and byte counts — the
// shape of a busy production host's `ss -tin` output. Addresses are unique
// up to 250^3 connections (the previous encoding silently wrapped at 62 500,
// so larger "destination counts" re-observed the same hosts), and hosts fill
// /24s densely so prefix-aggregation runs see realistic covering groups.
func SyntheticObservations(n int) []core.Observation {
	obs := make([]core.Observation, 0, n)
	for i := 0; i < n; i++ {
		obs = append(obs, core.Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd:       10 + i%90,
			RTT:        time.Duration(20+i%200) * time.Millisecond,
			BytesAcked: int64(i) * 1500,
		})
	}
	return obs
}

// StaticSampler replays a fixed observation set, appending into the
// caller's pooled buffer per the ConnectionSampler contract. Because the
// copy lands in the agent's own (ping-ponged) buffers, successive rounds
// present equal observations in distinct backing arrays — the delta tick's
// element-compare path, not its identical-slice path.
type StaticSampler []core.Observation

// SampleConnections implements core.ConnectionSampler.
func (s StaticSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	return append(buf, s...), nil
}

// FixedSampler returns the same backing slice every round — the shape of a
// sampler with a stable connection table and its own buffer. The delta tick
// recognises the identical slice and skips ingest and regrouping entirely.
type FixedSampler []core.Observation

// SampleConnections implements core.ConnectionSampler.
func (s FixedSampler) SampleConnections([]core.Observation) ([]core.Observation, error) {
	return s, nil
}

// ChurnSampler replays a fixed table with a deterministic ~1 in frac of the
// entries' windows mutated each round, modelling steady-state sampling where
// a small slice of destinations is actually changing. The base table stays
// pristine and every round diverges from the previous one at ~2/frac of the
// indices. It alternates between two internal copies of the table — the
// slice handed out last round stays frozen while the other is repaired
// (its stale mutations reverted from base) and re-mutated, so the caller
// sees a fresh backing array each round without paying a full table copy.
type ChurnSampler struct {
	base []core.Observation
	bufs [2][]core.Observation
	muts [2][]int // positions mutated in each buffer, reverted on reuse
	frac int
	tick int
}

// NewChurnSampler builds a ChurnSampler mutating 1 in frac entries per
// round (frac <= 0 means 100, i.e. 1% churn).
func NewChurnSampler(base []core.Observation, frac int) *ChurnSampler {
	if frac <= 0 {
		frac = 100
	}
	return &ChurnSampler{base: base, frac: frac}
}

// SampleConnections implements core.ConnectionSampler.
func (s *ChurnSampler) SampleConnections([]core.Observation) ([]core.Observation, error) {
	cur := s.tick & 1
	out := s.bufs[cur]
	if out == nil {
		out = append([]core.Observation(nil), s.base...)
	}
	for _, i := range s.muts[cur] {
		out[i] = s.base[i]
	}
	muts := s.muts[cur][:0]
	s.tick++
	n := len(out)
	for j := 0; j < n/s.frac; j++ {
		i := (j*9973 + s.tick*31337) % n
		o := &out[i]
		o.Cwnd = 10 + (o.Cwnd+s.tick+j)%90
		muts = append(muts, i)
	}
	s.bufs[cur] = out
	s.muts[cur] = muts
	return out, nil
}

// NopRoutes discards route programs; it measures the agent alone.
type NopRoutes struct{}

// SetInitCwnd implements core.RouteProgrammer.
func (NopRoutes) SetInitCwnd(netip.Prefix, int) error { return nil }

// ClearInitCwnd implements core.RouteProgrammer.
func (NopRoutes) ClearInitCwnd(netip.Prefix) error { return nil }

// NopBatchRoutes is NopRoutes plus a no-op batch surface, exercising the
// agent's batched programming path.
type NopBatchRoutes struct{ NopRoutes }

// ProgramRoutes implements core.BatchRouteProgrammer.
func (NopBatchRoutes) ProgramRoutes([]core.RouteOp) []error { return nil }

var (
	_ core.ConnectionSampler    = StaticSampler(nil)
	_ core.RouteProgrammer      = NopRoutes{}
	_ core.BatchRouteProgrammer = NopBatchRoutes{}
)

// NewTickAgent builds an agent over a synthetic conns-connection backend,
// ready for steady-state Tick measurement. The clock is pinned at zero so
// TTL expiry never fires mid-measurement; with static observations every
// post-warmup tick re-learns the same windows and programs nothing, which
// isolates the sample/plan/commit pipeline the benchmarks target. With
// batch true the route sink exposes the batched programming surface.
func NewTickAgent(conns, shards int, batch bool) (*core.Agent, error) {
	return newTickAgent(StaticSampler(SyntheticObservations(conns)), shards, batch)
}

// newTickAgent is the measurement-agent constructor behind the series: any
// sampler, optional batch surface.
func newTickAgent(sampler core.ConnectionSampler, shards int, batch bool) (*core.Agent, error) {
	var routes core.RouteProgrammer = NopRoutes{}
	if batch {
		routes = NopBatchRoutes{}
	}
	return core.New(core.Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   func() time.Duration { return 0 },
		Shards:  shards,
	})
}

// Benchmark is one measured series point.
type Benchmark struct {
	Name         string  `json:"name"`
	Destinations int     `json:"destinations,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Mode         string  `json:"mode,omitempty"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"nsPerOp"`
	AllocsPerOp  float64 `json:"allocsPerOp"`
	BytesPerOp   float64 `json:"bytesPerOp"`
}

// Baseline pins a pre-optimisation reference measurement so a snapshot
// carries its own point of comparison.
type Baseline struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	BytesPerOp  float64 `json:"bytesPerOp,omitempty"`
}

// Snapshot is the BENCH_<n>.json artefact: environment provenance plus the
// measured series.
type Snapshot struct {
	Schema      string      `json:"schema"`
	GeneratedAt string      `json:"generatedAt,omitempty"`
	GoVersion   string      `json:"goVersion"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Baselines   []Baseline  `json:"baselines,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// SnapshotSchema identifies the artefact layout for downstream tooling.
const SnapshotSchema = "riptide/perf-snapshot/v1"

// Measure runs fn in a calibrated loop until the measured batch takes at
// least minTime, then reports per-op wall time and allocation figures
// (mirroring testing.B's ns/op, allocs/op, B/op).
func Measure(name string, minTime time.Duration, fn func() error) (Benchmark, error) {
	if minTime <= 0 {
		minTime = 300 * time.Millisecond
	}
	// Warm up once so pools and maps reach steady state before timing.
	if err := fn(); err != nil {
		return Benchmark{}, fmt.Errorf("perf: %s warmup: %w", name, err)
	}
	var ms runtime.MemStats
	for iters := 1; ; iters *= 2 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startMallocs, startBytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return Benchmark{}, fmt.Errorf("perf: %s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		if elapsed >= minTime || iters >= 1<<24 {
			n := float64(iters)
			return Benchmark{
				Name:        name,
				Iterations:  iters,
				NsPerOp:     float64(elapsed.Nanoseconds()) / n,
				AllocsPerOp: float64(ms.Mallocs-startMallocs) / n,
				BytesPerOp:  float64(ms.TotalAlloc-startBytes) / n,
			}, nil
		}
	}
}

// multiShards returns the multi-shard count worth tracking on this machine:
// GOMAXPROCS clamped to the agent's documented default-shard cap, or 8
// lock stripes on a single core.
func multiShards() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return min(p, core.MaxDefaultShards)
	}
	return 8
}

// measureTick runs one agent-tick series point and stamps its dimensions.
func measureTick(name string, size, shards int, mode string, minTime time.Duration, sampler core.ConnectionSampler) (Benchmark, error) {
	agent, err := newTickAgent(sampler, shards, true)
	if err != nil {
		return Benchmark{}, err
	}
	b, err := Measure(name, minTime, agent.Tick)
	if err != nil {
		_ = agent.Close()
		return Benchmark{}, err
	}
	b.Destinations = size
	b.Shards = shards
	b.Mode = mode
	return b, agent.Close()
}

// Collect measures the agent-tick scaling series at the given observed-table
// sizes plus the batched-vs-individual route programming comparison, and
// returns the snapshot. Each size gets four points: the steady state
// (identical stream, compare skipped) and ~1% window churn, at shards=1 and
// at the multi-shard count — on single-core hosts the multi-shard runs pay
// striping overhead without any parallel payoff. minTime bounds each measured
// batch, not the whole run.
func Collect(sizes []int, minTime time.Duration) (Snapshot, error) {
	snap := Snapshot{
		Schema:     SnapshotSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	multi := multiShards()
	for _, size := range sizes {
		base := SyntheticObservations(size)
		points := []struct {
			name    string
			shards  int
			mode    string
			sampler core.ConnectionSampler
		}{
			{fmt.Sprintf("AgentTick/dest=%d/shards=1/mode=delta/steady", size),
				1, "delta/steady", FixedSampler(base)},
			{fmt.Sprintf("AgentTick/dest=%d/shards=1/mode=delta/churn=1%%", size),
				1, "delta/churn=1%", NewChurnSampler(base, 100)},
			{fmt.Sprintf("AgentTick/dest=%d/shards=%d/mode=delta/steady", size, multi),
				multi, "delta/steady", FixedSampler(base)},
			{fmt.Sprintf("AgentTick/dest=%d/shards=%d/mode=delta/churn=1%%", size, multi),
				multi, "delta/churn=1%", NewChurnSampler(base, 100)},
		}
		for _, pt := range points {
			b, err := measureTick(pt.name, size, pt.shards, pt.mode, minTime, pt.sampler)
			if err != nil {
				return Snapshot{}, err
			}
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	progs, err := collectRoutePrograms(minTime)
	if err != nil {
		return Snapshot{}, err
	}
	snap.Benchmarks = append(snap.Benchmarks, progs...)
	return snap, nil
}

// routeProgramOps is the batch size for the route-programming comparison:
// roughly the per-tick route churn of a large agent.
const routeProgramOps = 1024

// collectRoutePrograms compares per-op route installation against the
// batched ApplyRoutes path on the simulated kernel.
func collectRoutePrograms(minTime time.Duration) ([]Benchmark, error) {
	host, err := kernel.NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		return nil, err
	}
	routes := make([]kernel.Route, routeProgramOps)
	updates := make([]kernel.RouteUpdate, routeProgramOps)
	for i := range routes {
		routes[i] = kernel.Route{
			Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24),
			InitCwnd: 10 + i%90,
			Proto:    "static",
		}
		updates[i] = kernel.RouteUpdate{Route: routes[i]}
	}
	individual, err := Measure(fmt.Sprintf("RouteProgram/ops=%d/mode=individual", routeProgramOps), minTime, func() error {
		for _, r := range routes {
			if err := host.AddRoute(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	batched, err := Measure(fmt.Sprintf("RouteProgram/ops=%d/mode=batch", routeProgramOps), minTime, func() error {
		if errs := host.ApplyRoutes(updates); errs != nil {
			return fmt.Errorf("perf: batch route errors: %v", errs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []Benchmark{individual, batched}, nil
}
