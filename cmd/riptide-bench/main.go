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
	"time"

	"riptide/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("riptide-bench", flag.ContinueOnError)
	var (
		scale     = fs.String("scale", "quick", "scale preset: quick|full")
		out       = fs.String("o", "", "output file (default stdout)")
		seed      = fs.Int64("seed", 1, "random seed")
		n         = fs.Int("n", 200000, "model sample count")
		seriesDir = fs.String("series-dir", "", "also write each figure's curve data as CSV into this directory")
		workers   = fs.Int("workers", 0, "concurrent experiments (default: CPU count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

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
