package main

import (
	"math"
	"runtime/metrics"
	"time"

	"riptide/internal/stats"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer metrics
// have none. Exact marks counts that must repeat for a seed and round count.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one, and none is ever zero.
//
// The bounds come from this PR's own A/A runs (README.md, "Bounds"): each is
// at least three times the widest spread seen between ten seeds. Wall-clock
// medians drifted up to 10% between two sets on the 2-vCPU sandbox while CPU
// time per round stayed within 1%, so CPU time is the sharper instrument.
var endToEnd = []metricDef{
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_ms_per_round", Unit: "ms", Better: "lower", Bound: 0.15},
	// Map regrowth under steady insert and delete allocates in rare large
	// steps, so how many fall into one run depends on the seed: 0.15.
	{Name: "alloc_kb_per_round", Unit: "KB", Better: "lower", Bound: 0.15},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output: the workload-specific latencies of
// the untraced pass, then one block per module. A metric that has no meaning
// on a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "local_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "peer_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "wire_bytes_per_round", Unit: "B", Better: "lower", Exact: true},
	{Name: "sim_run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher"},

	{Name: "netlink.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "netlink.sample_ns_per_sock", Unit: "ns", Better: "lower"},
	{Name: "netlink.program_ms", Unit: "ms", Better: "lower"},
	{Name: "netlink.program_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "netlink.program_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "netlink.program_failed", Unit: "count", Better: "lower", Exact: true},
	{Name: "netlink.peer_program_ms", Unit: "ms", Better: "lower"},
	{Name: "netlink.peer_program_ops", Unit: "count", Better: "lower", Exact: true},

	{Name: "core.tick_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.retry_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.observations", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.routes_set", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.routes_cleared", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.entries_expired", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.ops_per_changed_sock", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.useful_op_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "core.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.peer_tick_ms", Unit: "ms", Better: "lower"},
	{Name: "core.table_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merged", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.merge_skipped_local", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sim_ticks", Unit: "count", Better: "lower", Exact: true},

	{Name: "fleet.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.serve_requests", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.serve_body_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "fleet.serve_304_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "fleet.serve_cache_hit_share", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "fleet.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.pull_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.rounds_digest", Unit: "count", Better: "higher", Exact: true},
	{Name: "fleet.rounds_delta", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.rounds_buckets", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.rounds_full", Unit: "count", Better: "lower", Exact: true},
	{Name: "fleet.rounds_not_modified", Unit: "count", Better: "higher", Exact: true},

	{Name: "gossip.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "gossip.decode_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "gossip.entries_moved", Unit: "count", Better: "lower", Exact: true},
	{Name: "gossip.bytes_per_entry", Unit: "B", Better: "lower", Exact: true},

	{Name: "cdn.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.run_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.probes", Unit: "count", Better: "higher", Exact: true},
	{Name: "cdn.routes_end", Unit: "count", Better: "higher", Exact: true},
	{Name: "eventsim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "eventsim.bare_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "eventsim.queue_share", Unit: "ratio", Better: "lower"},

	{Name: "trace.rounds", Unit: "count", Better: "higher", Exact: true},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one measured metric. N is the sample count behind a percentile;
// NA marks a metric that has no meaning on the workload, which the result
// line must still carry (as 0) and the printed table leaves out.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	NA    bool    `json:"na,omitempty"`
}

// values collects a run's metrics and fills the units in from the lists.
type values map[string]value

func (v values) set(name string, x float64) { v.setN(name, x, 0) }

func (v values) setN(name string, x float64, n int) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = 0
	}
	v[name] = value{Value: x, N: n}
}

// complete gives every metric of defs a unit, and marks the ones the
// workload did not measure.
func (v values) complete(defs []metricDef) {
	for _, d := range defs {
		x, measured := v[d.Name]
		x.Unit, x.NA = d.Unit, !measured
		v[d.Name] = x
	}
}

// percentile is the p-th percentile of xs, interpolated between closest
// ranks; 0 when there are no samples.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.FromSamples(xs).Percentile(p)
	if err != nil {
		return 0
	}
	return v
}

// column maps rows to one number each.
func column[T any](rows []T, f func(T) float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f(r)
	}
	return out
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0: the metric has no meaning there.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meter charges CPU time and allocated bytes to rounds only: the mutation
// before a round and the gate after it are the benchmark's own work.
type meter struct {
	cpu    time.Duration
	alloc  uint64
	cpu0   time.Duration
	alloc0 uint64
	sample [1]metrics.Sample
}

func newMeter() *meter {
	m := &meter{}
	m.sample[0].Name = "/gc/heap/allocs:bytes"
	return m
}

func (m *meter) allocated() uint64 {
	metrics.Read(m.sample[:])
	return m.sample[0].Value.Uint64()
}

func (m *meter) begin() { m.cpu0, m.alloc0 = cpuTime(), m.allocated() }

func (m *meter) end() {
	m.cpu += cpuTime() - m.cpu0
	m.alloc += m.allocated() - m.alloc0
}

// take returns what was charged since the last take.
func (m *meter) take() (time.Duration, uint64) {
	cpu, alloc := m.cpu, m.alloc
	m.cpu, m.alloc = 0, 0
	return cpu, alloc
}
