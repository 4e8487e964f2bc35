// Command riptide-bench runs every experiment in the reproduction — the
// analytic figures, the cluster evaluation, the design-choice ablations, the
// Section V extensions, and the operational scenarios — and writes a single
// markdown report with the paper-vs-measured comparison. EXPERIMENTS.md and
// docs/REPORT.md are generated from this tool's output.
//
// Independent experiments run concurrently across CPU cores; output order
// stays deterministic.
//
//	riptide-bench -scale quick -o report.md
//	riptide-bench -scale full -series-dir series/   # also dump plottable CSVs
//
// With -perf-json the tool also (or, with -perf-only, exclusively) runs the
// agent hot-path perf harness and writes a machine-readable snapshot:
//
//	riptide-bench -perf-only -perf-json BENCH_5.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"riptide/internal/experiments"
	"riptide/internal/perf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("riptide-bench", flag.ContinueOnError)
	var (
		scale      = fs.String("scale", "quick", "scale preset: quick|full")
		out        = fs.String("o", "", "output file (default stdout)")
		seed       = fs.Int64("seed", 1, "random seed")
		n          = fs.Int("n", 200000, "model sample count")
		seriesDir  = fs.String("series-dir", "", "also write each figure's curve data as CSV into this directory")
		workers    = fs.Int("workers", 0, "concurrent experiments (default: CPU count)")
		perfJSON   = fs.String("perf-json", "", "write the agent hot-path perf snapshot (BENCH_<n>.json) to this file")
		perfOnly   = fs.Bool("perf-only", false, "run only the perf harness (requires -perf-json)")
		perfSizes  = fs.String("perf-sizes", "1000,10000,100000", "comma-separated observed-table sizes for the perf series")
		perfTime   = fs.Duration("perf-time", 300*time.Millisecond, "minimum measured time per perf series point")
		gomaxprocs = fs.Int("gomaxprocs", 0, "pin runtime.GOMAXPROCS for the run (0 = host core count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Perf snapshots are only comparable when their parallelism is an
	// explicit, recorded choice. BENCH_5 silently inherited GOMAXPROCS=1
	// from its environment and mismeasured the shard fan-out; pin to the
	// host's core count unless the caller overrides.
	if *gomaxprocs <= 0 {
		*gomaxprocs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(*gomaxprocs)

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "full":
		s = experiments.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	s.Seed = *seed

	if *perfOnly && *perfJSON == "" {
		return fmt.Errorf("-perf-only requires -perf-json")
	}
	if *perfJSON != "" {
		if err := writePerfSnapshot(*perfJSON, *perfSizes, *perfTime); err != nil {
			return err
		}
		if *perfOnly {
			return nil
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report(w, s, *seed, *n, *seriesDir, *workers)
}

// prePRBaselines are the BenchmarkAgentTick figures measured at commit
// 72995e6, before the sharded single-map hot path landed, on the same
// single-CPU machine class that produced BENCH_5.json. Embedding them makes
// each snapshot carry its own point of comparison for the trajectory.
var prePRBaselines = []perf.Baseline{
	{Name: "AgentTick/dest=1000/pre-shard", NsPerOp: 515779, AllocsPerOp: 1027},
	{Name: "AgentTick/dest=10000/pre-shard", NsPerOp: 6980329, AllocsPerOp: 10142, BytesPerOp: 4309375},
}

// bench5Baselines carry BENCH_5.json's route-programming comparison forward.
var bench5Baselines = []perf.Baseline{
	{Name: "BENCH_5/RouteProgram/ops=1024/mode=individual", NsPerOp: 99431.85},
	{Name: "BENCH_5/RouteProgram/ops=1024/mode=batch", NsPerOp: 66711.08},
}

// writePerfSnapshot runs the perf harness over the requested observed-table
// sizes and writes the JSON snapshot to path.
func writePerfSnapshot(path, sizesCSV string, minTime time.Duration) error {
	var sizes []int
	for _, field := range strings.Split(sizesCSV, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -perf-sizes entry %q", field)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-perf-sizes is empty")
	}
	snap, err := perf.Collect(sizes, minTime)
	if err != nil {
		return err
	}
	// The backend head-to-head runs at the two sizes that bound a production
	// host; the exec points double as embedded baselines so the snapshot
	// records what the netlink backend displaced.
	backends, err := perf.CollectBackends([]int{1000, 10000}, minTime)
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, backends...)
	// The fleet-serving fan-in series at the sizes that bound a converged
	// region (1k) and a worst-case warm fleet (100k); the uncached
	// per-request encodes ride along as live-measured baselines.
	serving, servingBaselines, err := perf.CollectServing([]int{1000, 100000}, minTime)
	if err != nil {
		return err
	}
	snap.Benchmarks = append(snap.Benchmarks, serving...)
	snap.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	snap.Baselines = append(append([]perf.Baseline(nil), prePRBaselines...), bench5Baselines...)
	snap.Baselines = append(snap.Baselines, servingBaselines...)
	for _, b := range backends {
		if strings.Contains(b.Name, "backend=exec") {
			snap.Baselines = append(snap.Baselines, perf.Baseline{
				Name:        "exec-baseline/" + b.Name,
				NsPerOp:     b.NsPerOp,
				AllocsPerOp: b.AllocsPerOp,
				BytesPerOp:  b.BytesPerOp,
			})
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// job is one experiment with its position in the report.
type job struct {
	section string
	run     func() (experiments.Result, error)
	// expand marks runners that return multiple results (ProbeSuite).
	expand func() ([]experiments.Result, error)
}

// outcome carries a finished job's results in report order.
type outcome struct {
	section string
	results []experiments.Result
	err     error
}

func report(w io.Writer, s experiments.Scale, seed int64, n int, seriesDir string, workers int) error {
	popCount := len(s.PoPs)
	if popCount == 0 {
		popCount = 34 // full topology resolved inside the experiments
	}
	fmt.Fprintf(w, "# Riptide reproduction report\n\ngenerated %s, scale: %d PoPs, %v measurement, seed %d\n\n",
		time.Now().UTC().Format(time.RFC3339), popCount, s.Duration, seed)

	jobs := []job{
		{section: "Model figures", run: func() (experiments.Result, error) { return experiments.Fig2FileSizes(seed, n) }},
		{run: func() (experiments.Result, error) { return experiments.Fig3RTTsCDF(seed, n) }},
		{run: experiments.Fig4TheoreticalGain},
		{run: func() (experiments.Result, error) { return experiments.Fig5RTTDistribution(nil) }},
		{run: func() (experiments.Result, error) { return experiments.Fig6TransferTime(nil) }},
		{section: "Cluster evaluation", run: func() (experiments.Result, error) { return experiments.Table2Census(nil), nil }},
		{run: func() (experiments.Result, error) { return experiments.Fig10CwndByCmax(s) }},
		{run: func() (experiments.Result, error) { return experiments.Fig11TrafficProfiles(s) }},
		// Figures 12-16 and the edge cases share one cluster pair.
		{expand: func() ([]experiments.Result, error) { return experiments.ProbeSuite(s) }},
		{run: func() (experiments.Result, error) { return experiments.Headline(s) }},
		{section: "Extensions (Section V)", run: func() (experiments.Result, error) { return experiments.ExtensionTrendReaction(seed) }},
		{run: func() (experiments.Result, error) { return experiments.ExtensionAdvisorShift(seed) }},
	}
	// The operational experiments are the embedded scenario library: the
	// report renders the same runs `go test ./scenarios` asserts.
	for _, sec := range []struct {
		section string
		names   []string
	}{
		{"Fleet sharing", []string{"fleet-warm-start", "gossip-cold-region"}},
		{"Safety governor", []string{"guard-capacity-cut"}},
		{"Operational scenarios", []string{"flash-crowd", "regional-degradation", "rolling-reboots", "peer-partition"}},
	} {
		for i, name := range sec.names {
			name := name
			j := job{run: func() (experiments.Result, error) { return experiments.Scenario(name) }}
			if i == 0 {
				j.section = sec.section
			}
			jobs = append(jobs, j)
		}
	}
	ablations := []func(experiments.Scale) (experiments.Result, error){
		experiments.AblationCombiners,
		experiments.AblationHistory,
		experiments.AblationGranularity,
		experiments.AblationTTL,
		experiments.AblationUpdateInterval,
	}
	for i, runFn := range ablations {
		runFn := runFn
		j := job{run: func() (experiments.Result, error) { return runFn(s) }}
		if i == 0 {
			j.section = "Ablations"
		}
		jobs = append(jobs, j)
	}

	outcomes := executeJobs(jobs, workers)
	for _, o := range outcomes {
		if o.err != nil {
			return o.err
		}
		if o.section != "" {
			fmt.Fprintf(w, "## %s\n\n", o.section)
		}
		for _, res := range o.results {
			emit(w, res)
			if seriesDir != "" {
				if err := writeSeries(seriesDir, res); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// executeJobs runs all jobs through a bounded worker pool, preserving order.
func executeJobs(jobs []job, workers int) []outcome {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	outcomes := make([]outcome, len(jobs))
	indexes := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				j := jobs[i]
				o := outcome{section: j.section}
				if j.expand != nil {
					o.results, o.err = j.expand()
				} else {
					var res experiments.Result
					res, o.err = j.run()
					o.results = []experiments.Result{res}
				}
				outcomes[i] = o
			}
		}()
	}
	for i := range jobs {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
	return outcomes
}

// emit renders one result as markdown.
func emit(w io.Writer, res experiments.Result) {
	fmt.Fprintf(w, "### %s — %s\n\n", strings.ToUpper(res.ID), res.Title)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "- %s\n", note)
	}
	for _, tbl := range res.Tables {
		fmt.Fprintf(w, "\n%s:\n\n", tbl.Title)
		fmt.Fprintf(w, "| %s |\n", strings.Join(tbl.Header, " | "))
		seps := make([]string, len(tbl.Header))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
		for _, row := range tbl.Rows {
			fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
		}
	}
	fmt.Fprintln(w)
}

// writeSeries dumps each series of a result as <dir>/<id>.csv with columns
// series,x,y — directly plottable with any tool.
func writeSeries(dir string, res experiments.Result) error {
	if len(res.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "series,x,y"); err != nil {
		return err
	}
	for _, series := range res.Series {
		label := strings.ReplaceAll(series.Label, ",", ";")
		for _, p := range series.Points {
			if _, err := fmt.Fprintf(f, "%s,%s,%s\n", label,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return f.Close()
}
