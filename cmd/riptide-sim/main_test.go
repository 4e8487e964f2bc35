package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riptide/internal/scenario"
	"riptide/scenarios"
)

// quickBusyPoP stands in for scenarios/paper-busy-pop.yaml at test size:
// three PoPs and minutes of simulated time instead of 34 and an hour.
const quickBusyPoP = `name: paper-busy-pop
fleet:
  pops: [lhr, fra, akl]
  seed: 1
  riptide:
    enabled: true
  traffic:
    probe_interval: 1m
    idle_timeout: 30s
    organic:
      lhr: 6
duration: 6m
window:
  start: 1m
  end: 6m
events:
  - at: 1m17s
    start_cwnd_sampling:
      pops: [lhr, akl]
`

// quickLoad is run's paper-file loader in tests: the busy-PoP stand-in, and
// an error for any file a test should not reach.
func quickLoad(name string) (*scenario.Spec, error) {
	if name != "paper-busy-pop" {
		return nil, fmt.Errorf("no test stand-in for %s", name)
	}
	return scenario.Parse([]byte(quickBusyPoP))
}

// writeQuick writes the busy-PoP stand-in where export mode can read it.
func writeQuick(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "quick.yaml")
	if err := os.WriteFile(path, []byte(quickBusyPoP), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTable2(t *testing.T) {
	if err := run([]string{"-exp", "table2"}, quickLoad); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}, quickLoad); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunUnknownScale: there is one scale, the scenario files', so -scale
// (like -duration, -loss and -hosts) is no longer a flag.
func TestRunUnknownScale(t *testing.T) {
	for _, flag := range []string{"-scale", "-duration", "-loss", "-hosts", "-export-riptide"} {
		err := run([]string{flag, "1"}, quickLoad)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

// TestRunSingleFigureQuick runs one paper figure through the loader, with
// -seed replacing the file's seed.
func TestRunSingleFigureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	if err := run([]string{"-exp", "fig11", "-seed", "2"}, quickLoad); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig10"}, quickLoad); err == nil || !strings.Contains(err.Error(), "paper-cmax") {
		t.Errorf("fig10 did not load paper-cmax: %v", err)
	}
}

func TestExportMode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	dir := t.TempDir()
	probes := filepath.Join(dir, "probes.csv")
	cwnd := filepath.Join(dir, "cwnd.csv")
	err := run([]string{"-probes-csv", probes, "-cwnd-csv", cwnd, writeQuick(t)}, quickLoad)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{probes, cwnd} {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestExportWithSizesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	dir := t.TempDir()
	sizes := filepath.Join(dir, "sizes.csv")
	if err := os.WriteFile(sizes, []byte("size\n20480\n51200\n102400\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	probes := filepath.Join(dir, "probes.csv")
	err := run([]string{"-probes-csv", probes, "-sizes-csv", sizes, writeQuick(t)}, quickLoad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(probes); err != nil {
		t.Fatal(err)
	}
	// Export mode needs exactly one scenario file, and cwnd samples need
	// the file's sampler.
	if err := run([]string{"-probes-csv", probes}, quickLoad); err == nil {
		t.Error("export without a scenario file accepted")
	}
	noSampler := filepath.Join(dir, "nosampler.yaml")
	if err := os.WriteFile(noSampler, []byte("name: x\nfleet:\n  pops: [lhr, fra]\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-cwnd-csv", filepath.Join(dir, "c.csv"), noSampler}, quickLoad); err == nil ||
		!strings.Contains(err.Error(), "start_cwnd_sampling") {
		t.Errorf("cwnd export from a file without a sampler: %v", err)
	}
}

func TestExportWithBadSizesCSV(t *testing.T) {
	dir := t.TempDir()
	sizes := filepath.Join(dir, "sizes.csv")
	if err := os.WriteFile(sizes, []byte("garbage\nmore garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-probes-csv", filepath.Join(dir, "p.csv"), "-sizes-csv", sizes, writeQuick(t)}, quickLoad)
	if err == nil {
		t.Error("bad sizes csv accepted")
	}
}

func TestUnknownExperimentListsValidNames(t *testing.T) {
	err := run([]string{"-exp", "fig99"}, quickLoad)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{"valid:", "fig10", "headline", "ablation-ttl", "scenario-flash-crowd", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
	// The paper's files are listed as the figures they back, not as
	// scenario tables.
	if strings.Contains(err.Error(), "scenario-paper-") {
		t.Errorf("error %q lists a paper file as a scenario", err)
	}
}

// TestRunEmbeddedScenario drives -exp scenario-<name>: the library is
// embedded, so this works from the package directory (or any other).
func TestRunEmbeddedScenario(t *testing.T) {
	if err := run([]string{"-exp", "scenario-peer-partition"}, scenarios.Load); err != nil {
		t.Fatal(err)
	}
}

// TestRunEmbeddedScenarioSeed: -seed replaces a library scenario's own seed
// (peer-partition carries 11), so the Section V extensions rerun on any seed.
func TestRunEmbeddedScenarioSeed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "seed 11,"},
		{[]string{"-seed", "12"}, "seed 12,"},
	} {
		out := stdoutOf(t, func() error {
			return run(append([]string{"-exp", "scenario-peer-partition"}, tc.args...), scenarios.Load)
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// stdoutOf returns what f writes to os.Stdout.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestValidateSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.yaml")
	if err := os.WriteFile(good, []byte("name: ok\nfleet:\n  pops: [lhr, fra]\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", good}, quickLoad); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: broken\nfleet:\n  pops: [lhr, atlantis]\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", bad}, quickLoad)
	if err == nil {
		t.Fatal("malformed scenario accepted")
	}
	if !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("error %q does not name the bad PoP", err)
	}

	misindented := filepath.Join(dir, "indent.yaml")
	if err := os.WriteFile(misindented, []byte("name: x\nfleet:\n  pops: [lhr, fra]\n bad: 1\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"validate", misindented}, quickLoad)
	if err == nil {
		t.Fatal("misindented scenario accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not carry the line number", err)
	}

	if err := run([]string{"validate"}, quickLoad); err == nil {
		t.Error("validate without a file accepted")
	}
}

func TestRunSubcommandExecutesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "quick.yaml")
	src := `name: cli-quick
fleet:
  pops: [lhr, fra]
  seed: 2
  riptide:
    enabled: true
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [50]
duration: 2m
assertions:
  - riptide.probes.total >= 1
  - riptide.routes.end > 0
`
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", file}, quickLoad); err != nil {
		t.Fatal(err)
	}

	failing := filepath.Join(dir, "failing.yaml")
	if err := os.WriteFile(failing, []byte(strings.Replace(src,
		"riptide.routes.end > 0", "riptide.routes.end < 0", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", failing}, quickLoad); err == nil {
		t.Error("failed assertions did not fail the command")
	}
}
