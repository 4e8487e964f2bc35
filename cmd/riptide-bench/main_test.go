package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riptide/internal/experiments"
	"riptide/internal/scenario"
)

// quickFleet is the fleet of the test-size stand-ins for the paper's
// scenario files: three PoPs, the two vantage points among them, and
// minutes of simulated time instead of 34 PoPs and an hour.
const quickFleet = `fleet:
  pops: [lhr, jfk, akl]
  seed: 1
  riptide:
    enabled: true
  traffic:
    probe_interval: 1m
    idle_timeout: 30s
    organic:
      lhr: 4
duration: 5m
window:
  start: 1m
  end: 5m
`

// quickPaper holds each stand-in's compare and events blocks, by file name.
var quickPaper = map[string]string{
	"paper-cmax": `compare:
  control: {enabled: false}
  cmax_50: {cmax: 50}
  cmax_150: {cmax: 150}
  cmax_200: {cmax: 200}
  cmax_250: {cmax: 250}
events:
  - at: 1m17s
    start_cwnd_sampling: {}
`,
	"paper-busy-pop": `events:
  - at: 1m17s
    start_cwnd_sampling: {pops: [lhr, akl]}
`,
	"paper-ablations": `compare:
  control: {enabled: false}
  max: {combiner: max}
  traffic_weighted: {combiner: traffic-weighted}
  no_history: {history: none}
  alpha_25: {alpha: 0.25}
  alpha_50: {alpha: 0.5}
  alpha_90: {alpha: 0.9}
  prefix_24: {prefix_bits: 24}
  prefix_16: {prefix_bits: 16}
  ttl_30s: {ttl: 30s}
  ttl_5m: {ttl: 5m}
  iu_5s: {update_interval: 5s}
  iu_15s: {update_interval: 15s}
`,
}

// quickLoad is report's paper-file loader in tests.
func quickLoad(name string) (*scenario.Spec, error) {
	rest, ok := quickPaper[name]
	if !ok {
		return nil, fmt.Errorf("no test stand-in for %s", name)
	}
	return scenario.Parse([]byte("name: " + name + "\n" + quickFleet + rest))
}

// TestRunUnknownScale: there is one scale, the scenario files', so -scale
// is no longer a flag.
func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "full"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -scale") {
		t.Errorf("-scale: err = %v, want an undefined-flag error", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunBadFlags: the figure mode takes no flags of its own beyond -fig,
// so the sample count the old standalone figure tool took (-n) is refused.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-fig", "3", "-n", "5000"}} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestRunAllFigures writes each model figure alone, as text.
func TestRunAllFigures(t *testing.T) {
	for _, fig := range []string{"1", "2", "3", "4", "5", "6"} {
		out := filepath.Join(t.TempDir(), "fig.txt")
		if err := run([]string{"-fig", fig, "-o", out}); err != nil {
			t.Errorf("fig %s: %v", fig, err)
			continue
		}
		text, err := os.ReadFile(out)
		if err != nil || !strings.HasPrefix(string(text), "== fig"+fig+": ") {
			t.Errorf("fig %s wrote %q (err %v)", fig, text, err)
		}
	}
}

// TestRunSingleFigure: -fig writes exactly experiments.Render of the figure
// at the report's sample count and the given seed.
func TestRunSingleFigure(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig3.txt")
	if err := run([]string{"-fig", "3", "-seed", "3", "-o", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Fig3RTTsCDF(3, modelSamples)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := experiments.Render(&want, res); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("-fig 3 -seed 3 wrote:\n%s\nwant:\n%s", got, want.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, args := range [][]string{{"-fig", "99"}, {"-fig", "all"}, {"-fig", "2", "-series-dir", t.TempDir()}} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestReportQuick renders the whole report over the test-size stand-ins:
// every section in order, series CSVs for the figures, and a header with no
// timestamp (`make report-check` compares the full-size report's bytes).
func TestReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick report in -short mode")
	}
	var sb strings.Builder
	seriesDir := filepath.Join(t.TempDir(), "series")
	if err := report(&sb, quickLoad, 1, 5000, seriesDir); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	entries, err := os.ReadDir(seriesDir)
	if err != nil || len(entries) != 12 {
		t.Errorf("series dir: %d entries, want the 12 figures with curves; err=%v", len(entries), err)
	}
	if fig11, err := os.ReadFile(filepath.Join(seriesDir, "fig11.csv")); err != nil || !strings.Contains(string(fig11), "probe traffic only (akl),") {
		t.Errorf("fig11.csv does not plot the probe-only PoP the file names: %v", err)
	}
	if !strings.HasPrefix(text, "# Riptide reproduction report\n\nscale: 3 PoPs, 4m0s measurement, seed 1\n\n## Model figures\n") {
		t.Errorf("report header:\n%s", text[:min(len(text), 200)])
	}
	last := -1
	for _, want := range []string{"FIG2", "| Europe | 10 |", "FIG10", "FIG11", "FIG16", "EDGE", "HEADLINE",
		"## Extensions (Section V)", "## Fleet sharing", "SCENARIO-FLEET-WARM-START", "| recovery_ticks |", "## Safety governor",
		"SCENARIO-GUARD-CAPACITY-CUT", "## Operational scenarios", "SCENARIO-ROLLING-REBOOTS", "## Ablations", "ABLATION-COMBINERS",
		"| no riptide (control) |", "ABLATION-INTERVAL", "| i_u=15s |"} {
		i := strings.Index(text, want)
		if i < 0 {
			t.Errorf("report missing %q", want)
			continue
		}
		if i < last {
			t.Errorf("report has %q out of order", want)
		}
		last = i
	}
}
