package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable2(t *testing.T) {
	if err := run([]string{"-exp", "table2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunSingleFigureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	if err := run([]string{"-exp", "fig11", "-scale", "quick", "-duration", "10m"}); err != nil {
		t.Fatal(err)
	}
}

func TestExportMode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	dir := t.TempDir()
	probes := filepath.Join(dir, "probes.csv")
	cwnd := filepath.Join(dir, "cwnd.csv")
	err := run([]string{"-scale", "quick", "-duration", "6m",
		"-probes-csv", probes, "-cwnd-csv", cwnd})
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
	err := run([]string{"-scale", "quick", "-duration", "6m",
		"-probes-csv", probes, "-sizes-csv", sizes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(probes); err != nil {
		t.Fatal(err)
	}
}

func TestExportWithBadSizesCSV(t *testing.T) {
	dir := t.TempDir()
	sizes := filepath.Join(dir, "sizes.csv")
	if err := os.WriteFile(sizes, []byte("garbage\nmore garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-probes-csv", filepath.Join(dir, "p.csv"), "-sizes-csv", sizes})
	if err == nil {
		t.Error("bad sizes csv accepted")
	}
}

func TestUnknownExperimentListsValidNames(t *testing.T) {
	err := run([]string{"-exp", "fig99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{"valid:", "fig10", "headline", "scenario-flash-crowd", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

// TestRunEmbeddedScenario drives -exp scenario-<name>: the library is
// embedded, so this works from the package directory (or any other).
func TestRunEmbeddedScenario(t *testing.T) {
	if err := run([]string{"-exp", "scenario-peer-partition"}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.yaml")
	if err := os.WriteFile(good, []byte("name: ok\nfleet:\n  pops: [lhr, fra]\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate", good}); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: broken\nfleet:\n  pops: [lhr, atlantis]\nduration: 1m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate", bad})
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
	err = run([]string{"validate", misindented})
	if err == nil {
		t.Fatal("misindented scenario accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not carry the line number", err)
	}

	if err := run([]string{"validate"}); err == nil {
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
	if err := run([]string{"run", file}); err != nil {
		t.Fatal(err)
	}

	failing := filepath.Join(dir, "failing.yaml")
	if err := os.WriteFile(failing, []byte(strings.Replace(src,
		"riptide.routes.end > 0", "riptide.routes.end < 0", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", failing}); err == nil {
		t.Error("failed assertions did not fail the command")
	}
}
