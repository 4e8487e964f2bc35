// Command riptide-sim regenerates the paper's cluster-evaluation artefacts
// (Table II, Figures 10–16, the Section IV-D edge cases, the headline
// abstract numbers and the Section III-B ablations) by running the paper's
// scenario files (scenarios/paper-*.yaml) on the simulated 34-PoP CDN.
//
//	riptide-sim -exp all
//	riptide-sim -exp fig10 -seed 3
//
// It also executes declarative YAML scenarios (see docs/scenarios.md), the
// Section V extensions (scenarios/ext-*.yaml) among them:
//
//	riptide-sim run scenarios/guard-capacity-cut.yaml
//	riptide-sim validate scenarios/*.yaml
//	riptide-sim -exp scenario-ext-trend -seed 3   # the embedded copy, as a table, on seed 3
//
// and exports the raw measurements of one scenario file's main run as CSV
// for offline analysis:
//
//	riptide-sim -probes-csv probes.csv -cwnd-csv cwnd.csv scenarios/paper-busy-pop.yaml
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"riptide/internal/experiments"
	"riptide/internal/scenario"
	"riptide/internal/trace"
	"riptide/internal/workload"
	"riptide/scenarios"
)

func main() {
	if err := run(os.Args[1:], scenarios.Load); err != nil {
		log.Fatal(err)
	}
}

// run dispatches the subcommands. load reads a paper scenario file by name:
// the embedded library, or small stand-ins in tests.
func run(args []string, load func(string) (*scenario.Spec, error)) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarios(args[1:], true)
		case "validate":
			return runScenarios(args[1:], false)
		}
	}
	return runExperiments(args, load)
}

// runScenarios parses (and with execute set, runs) each scenario file. The
// report JSON goes to stdout; any parse error or failed assertion makes the
// command exit non-zero.
func runScenarios(paths []string, execute bool) error {
	if len(paths) == 0 {
		verb := "validate"
		if execute {
			verb = "run"
		}
		return fmt.Errorf("usage: riptide-sim %s <scenario.yaml> [more.yaml ...]", verb)
	}
	failed := false
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sp, err := scenario.Parse(src)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !execute {
			fmt.Fprintf(os.Stderr, "%s: ok (%s: %d events, %d assertions)\n",
				path, sp.Name, len(sp.Events), len(sp.Assertions))
			continue
		}
		start := time.Now()
		rep, err := sp.Run(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		b, err := rep.Encode()
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s finished in %v\n", sp.Name, time.Since(start).Round(time.Millisecond))
		if !rep.Pass {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: assertions FAILED\n", path)
		}
	}
	if failed {
		return fmt.Errorf("one or more scenarios failed their assertions")
	}
	return nil
}

func runExperiments(args []string, load func(string) (*scenario.Spec, error)) error {
	fs := flag.NewFlagSet("riptide-sim", flag.ContinueOnError)
	var (
		exp  = fs.String("exp", "all", "experiment: table2|fig10|...|fig16|edge|headline|ablation-*|scenario-<name>|all")
		seed = fs.Int64("seed", 1, "when given, replaces the seed of every scenario file run and of an exported file")

		probesCSV = fs.String("probes-csv", "", "export mode: write the scenario file's probe records to this CSV and exit")
		cwndCSV   = fs.String("cwnd-csv", "", "export mode: write the scenario file's cwnd samples to this CSV and exit")
		sizesCSV  = fs.String("sizes-csv", "", "export mode: replace the organic size mix with sizes from this CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	seeded := func(sp *scenario.Spec) {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				sp.Fleet.Seed = *seed
			}
		})
	}

	if *probesCSV != "" || *cwndCSV != "" {
		var sizes workload.Sampler
		if *sizesCSV != "" {
			f, err := os.Open(*sizesCSV)
			if err != nil {
				return err
			}
			sizes, err = workload.LoadSizesCSV(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("export mode runs one scenario file, e.g. scenarios/paper-busy-pop.yaml; got %d", fs.NArg())
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		sp, err := scenario.Parse(src)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		seeded(sp)
		if sizes != nil {
			sp.Fleet.Traffic.OrganicSizes = sizes
		}
		return exportRun(sp, *probesCSV, *cwndCSV)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (scenario files go to run, validate or export mode)", fs.Arg(0))
	}

	// Each group computes its results in one go: a paper file's runs feed
	// every figure it backs, so -exp all runs each file once.
	type group struct {
		ids []string
		run func() ([]experiments.Result, error)
	}
	one := func(id string, f func() (experiments.Result, error)) group {
		return group{[]string{id}, func() ([]experiments.Result, error) {
			r, err := f()
			return []experiments.Result{r}, err
		}}
	}
	groups := []group{one("table2", func() (experiments.Result, error) { return experiments.Table2Census(nil), nil })}
	for _, pf := range experiments.PaperFiles {
		groups = append(groups, group{pf.IDs, func() ([]experiments.Result, error) {
			sp, err := load(pf.Name)
			if err != nil {
				return nil, err
			}
			seeded(sp)
			return experiments.Paper(sp)
		}})
	}
	// The Section V extensions and the operational scenarios are the
	// embedded YAML library; each carries its own fleet, seed (which -seed
	// replaces) and duration.
	// `riptide-sim run` gives the full JSON report. The paper's files are
	// rendered as the figures above.
	for _, name := range scenarios.Names() {
		if !slices.ContainsFunc(experiments.PaperFiles, func(pf experiments.PaperFile) bool { return pf.Name == name }) {
			groups = append(groups, one("scenario-"+name, func() (experiments.Result, error) {
				sp, err := scenarios.Load(name)
				if err != nil {
					return experiments.Result{}, err
				}
				seeded(sp)
				return experiments.RunScenario(sp)
			}))
		}
	}

	var valid []string
	for _, g := range groups {
		valid = append(valid, g.ids...)
	}
	if *exp != "all" && !slices.Contains(valid, *exp) {
		valid = append(valid, "all")
		sort.Strings(valid)
		return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(valid, " "))
	}
	for _, g := range groups {
		if *exp != "all" && !slices.Contains(g.ids, *exp) {
			continue
		}
		start := time.Now()
		results, err := g.run()
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(g.ids, ","), err)
		}
		for _, res := range results {
			if *exp != "all" && res.ID != *exp {
				continue
			}
			if err := experiments.Render(os.Stdout, res); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%s finished in %v\n", strings.Join(g.ids, ","), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// exportRun executes a scenario file's main run alone — no compare arms, no
// assertions — and writes its raw measurement records as CSV for external
// analysis and plotting.
func exportRun(sp *scenario.Spec, probesPath, cwndPath string) error {
	sampled := slices.ContainsFunc(sp.Events, func(ev scenario.Event) bool {
		_, ok := ev.Payload.(*scenario.CwndSamplingEvent)
		return ok
	})
	if cwndPath != "" && !sampled {
		return fmt.Errorf("%s has no start_cwnd_sampling event to export cwnd samples from", sp.Name)
	}
	sp.Arms, sp.Assertions = nil, nil
	var rec scenario.Records
	if _, err := sp.Run(func(_ string, r scenario.Records) { rec = r }); err != nil {
		return err
	}
	for _, out := range []struct {
		path, what string
		n          int
		write      func(*os.File) error
	}{
		{probesPath, "probe records", len(rec.Probes), func(f *os.File) error { return trace.WriteProbes(f, rec.Probes) }},
		{cwndPath, "cwnd samples", len(rec.Cwnd), func(f *os.File) error { return trace.WriteCwndSamples(f, rec.Cwnd) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d %s to %s\n", out.n, out.what, out.path)
	}
	return nil
}
