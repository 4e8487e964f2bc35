// Command riptide-sim regenerates the paper's cluster-evaluation artefacts
// (Table II and Figures 10–16, plus the Section IV-D edge cases and the
// headline abstract numbers) by simulating the 34-PoP CDN with and without
// Riptide.
//
//	riptide-sim -exp all -scale quick
//	riptide-sim -exp fig10 -duration 30m -seed 3
//
// It also executes declarative YAML scenarios (see docs/scenarios.md):
//
//	riptide-sim run scenarios/guard-capacity-cut.yaml
//	riptide-sim validate scenarios/*.yaml
//	riptide-sim -exp scenario-guard-capacity-cut   # the embedded copy, as a table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/experiments"
	"riptide/internal/scenario"
	"riptide/internal/trace"
	"riptide/internal/workload"
	"riptide/scenarios"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarios(args[1:], true)
		case "validate":
			return runScenarios(args[1:], false)
		}
	}
	return runExperiments(args)
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
		rep, err := sp.Run()
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

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("riptide-sim", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table2|fig10|fig11|fig12|fig13|fig14|fig15|fig16|edge|headline|ext-*|scenario-<name>|all")
		scale    = fs.String("scale", "quick", "scale preset: quick|full")
		duration = fs.Duration("duration", 0, "override simulated measurement duration")
		seed     = fs.Int64("seed", 1, "random seed")
		loss     = fs.Float64("loss", 0, "override WAN random loss rate")

		probesCSV  = fs.String("probes-csv", "", "export mode: write probe records to this CSV and exit")
		cwndCSV    = fs.String("cwnd-csv", "", "export mode: write cwnd samples to this CSV and exit")
		exportRipt = fs.Bool("export-riptide", true, "export mode: run with Riptide enabled")
		hosts      = fs.Int("hosts", 1, "export mode: machines per PoP")
		sizesCSV   = fs.String("sizes-csv", "", "export mode: replace the synthetic organic size mix with sizes from this CSV")
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
		return fmt.Errorf("unknown scale %q (want quick|full)", *scale)
	}
	if *duration != 0 {
		s.Duration = *duration
	}
	if *loss != 0 {
		s.LossRate = *loss
	}
	s.Seed = *seed

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
		return exportRun(s, *exportRipt, *hosts, *probesCSV, *cwndCSV, sizes)
	}

	runners := map[string]func() (experiments.Result, error){
		"table2": func() (experiments.Result, error) { return experiments.Table2Census(nil), nil },
		"fig10":  func() (experiments.Result, error) { return experiments.Fig10CwndByCmax(s) },
		"fig11":  func() (experiments.Result, error) { return experiments.Fig11TrafficProfiles(s) },
		"fig12":  func() (experiments.Result, error) { return experiments.ProbeCompletionFigure(12, s) },
		"fig13":  func() (experiments.Result, error) { return experiments.ProbeCompletionFigure(13, s) },
		"fig14":  func() (experiments.Result, error) { return experiments.ProbeCompletionFigure(14, s) },
		"fig15":  func() (experiments.Result, error) { return experiments.GainByPercentileFigure(15, s) },
		"fig16":  func() (experiments.Result, error) { return experiments.GainByPercentileFigure(16, s) },
		"edge":   func() (experiments.Result, error) { return experiments.EdgeCases(s) },
		"headline": func() (experiments.Result, error) {
			return experiments.Headline(s)
		},
		"ext-trend": func() (experiments.Result, error) {
			return experiments.ExtensionTrendReaction(*seed)
		},
		"ext-advisor": func() (experiments.Result, error) {
			return experiments.ExtensionAdvisorShift(*seed)
		},
	}
	order := []string{"table2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "edge", "headline",
		"ext-trend", "ext-advisor"}
	// The operational scenarios are the embedded YAML library; each carries
	// its own fleet, seed and duration, so -scale/-seed/-duration do not
	// apply. `riptide-sim run` gives the full JSON report.
	for _, name := range scenarios.Names() {
		name := name
		runners["scenario-"+name] = func() (experiments.Result, error) { return experiments.Scenario(name) }
		order = append(order, "scenario-"+name)
	}

	selected := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			valid := make([]string, 0, len(runners)+1)
			for name := range runners {
				valid = append(valid, name)
			}
			valid = append(valid, "all")
			sort.Strings(valid)
			return fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(valid, " "))
		}
		selected = []string{*exp}
	}
	for _, name := range selected {
		start := time.Now()
		res, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := experiments.Render(os.Stdout, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s finished in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// exportRun executes one cluster at the given scale and writes its raw
// measurement records as CSV for external analysis/plotting.
func exportRun(s experiments.Scale, riptideEnabled bool, hosts int, probesPath, cwndPath string, sizes workload.Sampler) error {
	cluster, err := cdn.NewCluster(cdn.Config{
		PoPs:        s.PoPs,
		HostsPerPoP: hosts,
		Seed:        s.Seed,
		LossRate:    s.LossRate,
		Riptide:     cdn.RiptideOptions{Enabled: riptideEnabled},
		Traffic: cdn.TrafficOptions{
			ProbeInterval: 4 * time.Minute,
			IdleTimeout:   90 * time.Second,
			OrganicSizes:  sizes,
		},
	})
	if err != nil {
		return err
	}
	cluster.Run(s.WarmUp)
	if cwndPath != "" {
		if err := cluster.StartCwndSampling(time.Minute); err != nil {
			return err
		}
	}
	cluster.Run(s.Duration)
	cluster.Stop()

	if probesPath != "" {
		f, err := os.Create(probesPath)
		if err != nil {
			return err
		}
		if err := trace.WriteProbes(f, cluster.ProbeRecords()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d probe records to %s\n", len(cluster.ProbeRecords()), probesPath)
	}
	if cwndPath != "" {
		f, err := os.Create(cwndPath)
		if err != nil {
			return err
		}
		if err := trace.WriteCwndSamples(f, cluster.CwndSamples()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cwnd samples to %s\n", len(cluster.CwndSamples()), cwndPath)
	}
	return nil
}
