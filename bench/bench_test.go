package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// smokeConfig shrinks a workload to a second or so: 1000 sockets, a few
// rounds, one simulator round of four and a half simulated minutes (the first
// probe round is at four, and the control check needs probes to compare).
func smokeConfig(t *testing.T, name string, seed int64, trace bool) runConfig {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := runConfig{workload: w, seed: seed, rounds: 20, trace: trace, outDir: t.TempDir(), n: 1000, simFor: 270 * time.Second}
	if w.rig == nil {
		cfg.rounds = 1
	}
	return cfg
}

func smokeRun(t *testing.T, cfg runConfig) runResult {
	t.Helper()
	res, err := runOne(cfg, provenance{Commit: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d attempts failed: %v", cfg.workload.Name, res.Failed, res.Attempted, res.Violations)
	}
	return res
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the lists in the code: the
// driver reads the file, the program prints from the lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, code has %q", i, file.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(tier string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", tier, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (entry{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: file has %+v, code has %+v", tier, i, got[i], d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// TestSmoke runs every workload small, in both tiers, and checks what the
// contract and the issue promise of the output: the metric names, that spans
// nest, that the trace accounts for the round, that the workloads separate
// the layers as designed, and that exact counts repeat for a seed.
func TestSmoke(t *testing.T) {
	traced := map[string]values{}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res := smokeRun(t, smokeConfig(t, w.Name, 7, false))
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v): every end-to-end metric is positive everywhere", d.Name, v, ok)
				}
			}

			res = smokeRun(t, smokeConfig(t, w.Name, 7, true))
			traced[w.Name] = res.Metrics
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v)", d.Name, v, ok)
				}
			}
			if u := res.Metrics["trace.unattributed_share"].Value; u > 0.05 {
				t.Errorf("trace.unattributed_share = %v: a layer is unmeasured", u)
			}
			checkTraceFile(t, res.TraceFile)
		})
	}
	if t.Failed() {
		return
	}

	steady, churn, cold := traced["steady-100k"], traced["churn-100k"], traced["cold-25k"]
	for _, name := range []string{"netlink.program_ops", "gossip.entries_moved", "wire_bytes_per_round", "fleet.rounds_full", "fleet.rounds_delta"} {
		if v := steady[name].Value; v != 0 {
			t.Errorf("steady: %s = %v, want 0", name, v)
		}
	}
	if steady["fleet.rounds_not_modified"].Value != steady["trace.rounds"].Value || steady["fleet.serve_304_share"].Value != 1 {
		t.Errorf("steady: not every pull was a 304: %+v of %+v", steady["fleet.rounds_not_modified"], steady["trace.rounds"])
	}
	if churn["fleet.rounds_delta"].Value != churn["trace.rounds"].Value || churn["netlink.program_ops"].Value == 0 {
		t.Errorf("churn: rounds_delta %v of %v, program_ops %v", churn["fleet.rounds_delta"].Value, churn["trace.rounds"].Value, churn["netlink.program_ops"].Value)
	}
	if cold["fleet.rounds_full"].Value != cold["trace.rounds"].Value || cold["core.merged"].Value != 1000 {
		t.Errorf("cold: rounds_full %v of %v, merged %v", cold["fleet.rounds_full"].Value, cold["trace.rounds"].Value, cold["core.merged"].Value)
	}
	if sim := traced["sim-34pop"]; sim["core.sim_ticks"].Value == 0 || sim["eventsim.events"].Value == 0 {
		t.Errorf("sim: %v ticks, %v events", sim["core.sim_ticks"].Value, sim["eventsim.events"].Value)
	}

	again := smokeRun(t, smokeConfig(t, "churn-100k", 7, true)).Metrics
	other := smokeRun(t, smokeConfig(t, "churn-100k", 8, true)).Metrics
	for _, d := range perLayer {
		if d.Exact && churn[d.Name].Value != again[d.Name].Value {
			t.Errorf("%s: %v then %v on one seed", d.Name, churn[d.Name].Value, again[d.Name].Value)
		}
	}
	if w := churn["wire_bytes_per_round"].Value; w == 0 || w == other["wire_bytes_per_round"].Value {
		t.Errorf("wire_bytes_per_round: %v on seed 7, %v on seed 8", w, other["wire_bytes_per_round"].Value)
	}
}

// checkTraceFile asserts that spans nest inside their parents and share
// their round.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Provenance provenance
		Spans      []span
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) == 0 || file.Provenance.Commit != "test" {
		t.Fatalf("%d spans, provenance %+v", len(file.Spans), file.Provenance)
	}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
	}
	for _, s := range file.Spans {
		if s.End < s.Start || s.Round < 1 {
			t.Fatalf("span %+v", s)
		}
		if s.Parent == 0 {
			if s.Name != spanRound {
				t.Errorf("root span %+v is not a round", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Round != s.Round || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
}

// TestGateBites feeds the end-of-life check a kernel table with one route
// dropped and one out of range.
func TestGateBites(t *testing.T) {
	r, err := newRig(rigSpec{n: 200}, 5, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if _, failed := r.runRound(newMeter()); failed {
		t.Fatalf("clean round failed: %v", r.violations)
	}
	delete(r.a.shadow, netip.PrefixFrom(r.dst[0], 32))
	r.a.shadow[netip.PrefixFrom(r.dst[1], 32)] = 500
	r.retire()
	all := strings.Join(r.violations, "\n")
	for _, want := range []string{"agent holds 200 entries, kernel 199 routes", "=500 outside [10,100]"} {
		if !strings.Contains(all, want) {
			t.Errorf("gate did not report %q; it said:\n%s", want, all)
		}
	}
}

// TestGateCatchesLostRoute drops a route message on its way to B's kernel.
func TestGateCatchesLostRoute(t *testing.T) {
	r, err := newRig(rigSpec{n: 200}, 5, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.b.conn.DiscardRoutes = true
	if _, failed := r.runRound(newMeter()); !failed {
		t.Fatal("a round whose peer routes never reached the kernel passed the gate")
	}
}

// TestBenchKernelPatchesParse pins the ABI offsets: a destination and a cwnd
// patched into captured datagrams come back out of netlink.Sampler.
func TestBenchKernelPatchesParse(t *testing.T) {
	socks := make([]core.Observation, 300) // three dump datagrams
	for i := range socks {
		socks[i] = core.Observation{Dst: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), Cwnd: 10 + i, RTT: time.Millisecond}
	}
	k, err := newBenchKernel(socks)
	if err != nil {
		t.Fatal(err)
	}
	moved := netip.MustParseAddr("192.0.2.77")
	k.setDst(0, moved)
	k.setCwnd(0, 42)
	k.setDst(299, netip.MustParseAddr("192.0.2.78"))
	k.setCwnd(150, 7)
	s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: func(int) (netlink.Conn, error) { return k, nil }})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // sequence numbers differ per dump
		got, err := s.SampleConnections(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(socks) {
			t.Fatalf("%d observations, want %d", len(got), len(socks))
		}
		if got[0].Dst != moved || got[0].Cwnd != 42 || got[150].Cwnd != 7 || got[150].Dst != socks[150].Dst ||
			got[299].Dst != netip.MustParseAddr("192.0.2.78") || got[299].Cwnd != socks[299].Cwnd || got[1] != socks[1] {
			t.Fatalf("patched sockets read back as %+v %+v %+v", got[0], got[150], got[299])
		}
	}
}

func TestSpotOracle(t *testing.T) {
	var o spotOracle
	for i, c := range []struct{ cwnd, want int }{{40, 40}, {80, 50}, {80, 58}, {400, 100}, {1, 100}, {1, 81}} {
		if got := o.next([]int{c.cwnd}); got != c.want {
			t.Errorf("step %d: cwnd %d gives %d, want %d", i, c.cwnd, got, c.want)
		}
	}
	if got := (&spotOracle{}).next([]int{2, 3}); got != 10 {
		t.Errorf("mean 2.5 clamps to %d, want 10", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := spread(xs), (31.0-3.5)/13.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d        metricDef
		old, cur []float64
		want     string
	}{
		{lower, []float64{10}, []float64{10.9}, "ok"},
		{lower, []float64{10}, []float64{11.1}, "worse"},
		{higher, []float64{10}, []float64{9.1}, "ok"},
		{higher, []float64{10}, []float64{8.9}, "worse"},
		{lower, []float64{8, 10, 12, 14}, []float64{9, 10, 11, 12}, "unresolved"},
		{lower, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, "ok"},
	} {
		if got := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestComparisonTable checks -compare's rows: both values, the ratio with its
// base, the bound, the verdict, and exact counts only where seeds and rounds
// match.
func TestComparisonTable(t *testing.T) {
	mk := func(ms, ops float64) report {
		return report{Schema: reportSchema, Runs: []runResult{
			{Workload: "churn-100k", Seed: 1, Rounds: 40, Metrics: values{"round_ms_p50": {Value: ms, Unit: "ms"}}},
			{Workload: "churn-100k", Seed: 1, Rounds: 40, Trace: true, Metrics: values{"netlink.program_ops": {Value: ops, Unit: "count"}}},
		}}
	}
	var out bytes.Buffer
	if err := printComparison(&out, mk(50, 7000), mk(65, 7001)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1.300 of 50", "lower 20%", "worse", "netlink.program_ops", "differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// TestResultLine checks the last line of a run's output against the
// contract: exactly four keys, every metric with a value and a unit.
func TestResultLine(t *testing.T) {
	res := runResult{Workload: "steady-100k", Attempted: 5, Metrics: values{"round_ms_p50": {Value: 1.5}}}
	res.Metrics.complete(endToEnd)
	var out bytes.Buffer
	printRun(&out, provenance{}, res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["attempted"]) != "5" || string(line["failed"]) != "0" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Fatalf("metrics %s: %v", line["metrics"], err)
	}
	if m := metrics["round_ms_p50"]; len(m) != 2 || m["value"] != 1.5 || m["unit"] != "ms" {
		t.Errorf("round_ms_p50 = %v", m)
	}
}

func TestRefusesTooManyProcs(t *testing.T) {
	t.Setenv("GOMAXPROCS", "4096")
	if _, err := stamp(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("stamp() with GOMAXPROCS=4096: %v", err)
	}
}
