// Command bench is the repository's one performance ledger: it measures how
// long a congestion window seen in one box's socket table takes to become a
// programmed route on that box and on a fleet peer, what that costs, and how
// fast the simulator that gates CI runs. See README.md for the workloads, the
// metric glossary and how to read a trace.
//
//	go run ./bench -workload churn-100k -seed 1 -seconds 20 -trace 0
//	go run ./bench                       # every workload, both tiers
//	go run ./bench -aa -rounds 40        # the whole set twice, compared
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// maxProcs is the most processors a run uses: the rig is one client and one
// tick at a time, and a production host does not give the agent more.
const maxProcs = 4

// provenance is stamped on every report and trace file.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Loop       string `json:"loop"`
	Transport  string `json:"transport"`
}

// report is what -json writes and -compare reads.
type report struct {
	Schema     string      `json:"schema"`
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

const reportSchema = "riptide/bench-report/v1"

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a run whose correctness gate failed; its
// result has been printed.
var errIncorrect = errors.New("correctness gate failed")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
		seed    = fs.Int64("seed", 1, "seed the inputs are made from")
		seconds = fs.Float64("seconds", 20, "length of the measured phase")
		rounds  = fs.Int("rounds", 0, "measure exactly this many rounds instead of -seconds, so exact counts repeat")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and bench/out/<workload>.trace.json")
		repeat  = fs.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
		jsonOut = fs.String("json", "", "write the full report (provenance, every run) to this file")
		compare = fs.Bool("compare", false, "compare two report files: -compare old.json new.json")
		aa      = fs.Bool("aa", false, "run the whole set twice and compare the two")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		old, err := readReport(fs.Arg(0))
		if err != nil {
			return err
		}
		cur, err := readReport(fs.Arg(1))
		if err != nil {
			return err
		}
		return printComparison(stdout, old, cur)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 || *repeat < 1 || *rounds < 0 {
		return errors.New("-seconds and -repeat must be positive, -rounds not negative")
	}
	prov, err := stamp()
	if err != nil {
		return err
	}

	base := runConfig{seconds: *seconds, rounds: *rounds, outDir: filepath.Join("bench", "out")}
	var plan []runConfig
	for _, w := range workloads {
		if *name != "" && w.Name != *name {
			continue
		}
		for i := 0; i < *repeat; i++ {
			cfg := base
			cfg.workload, cfg.seed = w, *seed+int64(i)
			if *name == "" {
				// The whole set prints every metric: both tiers.
				cfg.trace = false
				plan = append(plan, cfg)
				cfg.trace = true
				plan = append(plan, cfg)
			} else {
				cfg.trace = *trace == 1
				plan = append(plan, cfg)
			}
		}
	}
	if len(plan) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}

	sets := 1
	if *aa {
		sets = 2
	}
	reports := make([]report, sets)
	incorrect := false
	for s := range reports {
		reports[s] = report{Schema: reportSchema, Provenance: prov}
		for _, cfg := range plan {
			res, err := runOne(cfg, prov)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.workload.Name, err)
			}
			reports[s].Runs = append(reports[s].Runs, res)
			printRun(stdout, prov, res)
			incorrect = incorrect || res.Failed > 0
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(reports[sets-1], "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *aa {
		if err := printComparison(stdout, reports[0], reports[1]); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func runOne(cfg runConfig, prov provenance) (runResult, error) {
	if cfg.workload.rig == nil {
		return runSim(cfg, prov)
	}
	return runRig(cfg, prov)
}

// stamp fixes GOMAXPROCS at min(nproc, maxProcs) — or at $GOMAXPROCS, which
// must not exceed nproc — and records where the numbers come from.
func stamp() (provenance, error) {
	nproc := runtime.NumCPU()
	procs := min(nproc, maxProcs)
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			return provenance{}, fmt.Errorf("GOMAXPROCS=%q is not a positive number", env)
		}
		if n > nproc {
			return provenance{}, fmt.Errorf("GOMAXPROCS=%d exceeds the %d processors of this machine: the numbers would measure the scheduler", n, nproc)
		}
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		NProc:      nproc,
		GOMAXPROCS: procs,
		Loop:       "closed, 1 client",
		Transport:  "loopback TCP, one keep-alive connection",
	}, nil
}

// resultLine is the last line of a run's output, for the driver.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints one run: the provenance stamp, every metric by name with
// its unit (and the sample count beside a percentile), any gate violations,
// and the result line last.
func printRun(w io.Writer, prov provenance, res runResult) {
	tier, defs := "end-to-end (tracing off)", endToEnd
	if res.Trace {
		tier, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d %s: n=%d rounds=%d wall=%.1fs\n", res.Workload, res.Seed, tier, res.N, res.Rounds, res.WallS)
	fmt.Fprintf(w, "# commit=%s %s %s nproc=%d GOMAXPROCS=%d loop=%q transport=%q\n",
		prov.Commit, prov.GoVersion, prov.Platform, prov.NProc, prov.GOMAXPROCS, prov.Loop, prov.Transport)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	var skipped []string
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line.Metrics[d.Name] = lineMetric{v.Value, v.Unit}
		if v.NA {
			skipped = append(skipped, d.Name)
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("(n=%d)", v.N)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.Name, v.Value, v.Unit, n)
	}
	tw.Flush()
	if len(skipped) > 0 {
		fmt.Fprintf(w, "# no meaning on this workload (0 in the result line): %s\n", strings.Join(skipped, " "))
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "# trace: %s\n", res.TraceFile)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "# VIOLATION %s\n", v)
	}
	data, _ := json.Marshal(line) // a map of numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", data)
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return r, nil
}
