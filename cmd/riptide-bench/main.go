// Command riptide-bench runs every experiment in the reproduction — the
// analytic figures, the cluster evaluation, the design-choice ablations, the
// Section V extensions, and the operational scenarios — and writes a single
// markdown report with the paper-vs-measured comparison. EXPERIMENTS.md and
// docs/REPORT.md are generated from this tool's output.
//
// Independent experiments run concurrently, GOMAXPROCS at a time; output
// order stays deterministic, and so do the bytes: the report carries no
// timestamp, so `make report-check` can compare it with docs/REPORT.md.
//
//	riptide-bench -o report.md
//	riptide-bench -series-dir series/   # also dump plottable CSVs
//	riptide-bench -fig 3 -seed 7        # one model figure (1–6) alone, as text
//
// Performance lives elsewhere: `go run ./bench` is the end-to-end ledger and
// `go test -bench` the per-package micro-benchmarks.
package main

import (
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

	"riptide/internal/experiments"
	"riptide/internal/scenario"
	"riptide/scenarios"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("riptide-bench", flag.ContinueOnError)
	var (
		out       = fs.String("o", "", "output file (default stdout)")
		seed      = fs.Int64("seed", 1, "random seed (the model figures and the paper's scenario files)")
		seriesDir = fs.String("series-dir", "", "also write each figure's curve data as CSV into this directory")
		fig       = fs.String("fig", "", "write model figure 1–6 alone, as text, instead of the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig != "" && *seriesDir != "" {
		return fmt.Errorf("-fig writes one figure as text; -series-dir belongs to the report")
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
	if *fig != "" {
		res, err := modelFigure(*fig, *seed, modelSamples)
		if err != nil {
			return err
		}
		return experiments.Render(w, res)
	}
	return report(w, scenarios.Load, *seed, modelSamples, *seriesDir)
}

// modelSamples is the sample count of the model figures (Figures 2 and 3).
// Like the cluster figures' scale, it is fixed, so the report regenerates
// byte for byte.
const modelSamples = 200000

// modelFigure computes model figure fig ("1" to "6"); seed and n, the sample
// count, feed Figures 2 and 3.
func modelFigure(fig string, seed int64, n int) (experiments.Result, error) {
	switch fig {
	case "1":
		return experiments.Fig1Timeline()
	case "2":
		return experiments.Fig2FileSizes(seed, n)
	case "3":
		return experiments.Fig3RTTsCDF(seed, n)
	case "4":
		return experiments.Fig4TheoreticalGain()
	case "5":
		return experiments.Fig5RTTDistribution(nil)
	case "6":
		return experiments.Fig6TransferTime(nil)
	}
	return experiments.Result{}, fmt.Errorf("unknown figure %q (want 1..6)", fig)
}

// sections lays the report out: each section's results, by ID, in order.
var sections = []struct {
	title string
	ids   []string
}{
	{"Model figures", []string{"fig2", "fig3", "fig4", "fig5", "fig6"}},
	{"Cluster evaluation", []string{"table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "edge", "headline"}},
	// The Section V extensions and the operational experiments are the
	// embedded scenario library: the report renders the same runs `go test
	// ./scenarios` asserts.
	{"Extensions (Section V)", []string{"scenario-ext-trend", "scenario-ext-advisor"}},
	{"Fleet sharing", []string{"scenario-fleet-warm-start", "scenario-gossip-cold-region"}},
	{"Safety governor", []string{"scenario-guard-capacity-cut"}},
	{"Operational scenarios", []string{"scenario-flash-crowd", "scenario-regional-degradation",
		"scenario-rolling-reboots", "scenario-peer-partition"}},
	{"Ablations", []string{"ablation-combiners", "ablation-history", "ablation-granularity", "ablation-ttl", "ablation-interval"}},
}

// job computes one or more of the report's results.
type job func() ([]experiments.Result, error)

func one(f func() (experiments.Result, error)) job {
	return func() ([]experiments.Result, error) {
		r, err := f()
		return []experiments.Result{r}, err
	}
}

// report runs every experiment and writes the markdown report. load reads a
// paper scenario file by name (the embedded library, or small stand-ins in
// tests); seed replaces the seed each of those files carries; n is the model
// figures' sample count.
func report(w io.Writer, load func(string) (*scenario.Spec, error), seed int64, n int, seriesDir string) error {
	var jobs []job
	var header string
	// The paper's files go first, last file first: the ablations' fourteen
	// runs are the longest job, so a worker starts on them at once.
	for i := len(experiments.PaperFiles) - 1; i >= 0; i-- {
		sp, err := load(experiments.PaperFiles[i].Name)
		if err != nil {
			return err
		}
		sp.Fleet.Seed = seed
		// The header names the scale of the file that measures a plain
		// hour; the cwnd-sampling files run 17 s past it.
		if sp.Name == "paper-ablations" {
			measured := sp.Duration
			if sp.Window != nil {
				measured -= sp.Window.Start
			}
			header = fmt.Sprintf("scale: %d PoPs, %v measurement, seed %d", len(sp.Fleet.PoPs), measured, seed)
		}
		jobs = append(jobs, func() ([]experiments.Result, error) { return experiments.Paper(sp) })
	}
	for _, fig := range []string{"2", "3", "4", "5", "6"} {
		jobs = append(jobs, one(func() (experiments.Result, error) { return modelFigure(fig, seed, n) }))
	}
	jobs = append(jobs, one(func() (experiments.Result, error) { return experiments.Table2Census(nil), nil }))
	for _, sec := range sections {
		for _, id := range sec.ids {
			if name, ok := strings.CutPrefix(id, "scenario-"); ok {
				jobs = append(jobs, one(func() (experiments.Result, error) { return experiments.Scenario(name) }))
			}
		}
	}

	results := make(map[string]experiments.Result)
	for _, o := range executeJobs(jobs) {
		if o.err != nil {
			return o.err
		}
		for _, res := range o.results {
			results[res.ID] = res
		}
	}
	fmt.Fprintf(w, "# Riptide reproduction report\n\n%s\n\n", header)
	for _, sec := range sections {
		fmt.Fprintf(w, "## %s\n\n", sec.title)
		for _, id := range sec.ids {
			res, ok := results[id]
			if !ok {
				return fmt.Errorf("riptide-bench: no experiment produced %q", id)
			}
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

// outcome carries a finished job's results.
type outcome struct {
	results []experiments.Result
	err     error
}

// executeJobs runs all jobs through a GOMAXPROCS-wide worker pool,
// preserving order.
func executeJobs(jobs []job) []outcome {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	outcomes := make([]outcome, len(jobs))
	indexes := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				var o outcome
				o.results, o.err = jobs[i]()
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
