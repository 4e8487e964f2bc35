package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riptide/internal/experiments"
)

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "nope"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick report in -short mode")
	}
	out := filepath.Join(t.TempDir(), "report.md")
	var sb strings.Builder
	s := experiments.QuickScale()
	s.Duration = s.Duration / 2
	seriesDir := filepath.Join(t.TempDir(), "series")
	if err := report(&sb, s, 1, 5000, seriesDir, 4); err != nil {
		t.Fatal(err)
	}
	// Series CSVs land for figure-bearing results.
	entries, err := os.ReadDir(seriesDir)
	if err != nil || len(entries) == 0 {
		t.Errorf("series dir: %v entries, err=%v", len(entries), err)
	}
	text := sb.String()
	for _, want := range []string{"FIG2", "FIG10", "FIG16", "ABLATION-TTL", "HEADLINE", "| Europe | 10 |",
		"## Fleet sharing", "SCENARIO-FLEET-WARM-START", "## Safety governor", "SCENARIO-GUARD-CAPACITY-CUT",
		"## Operational scenarios", "SCENARIO-ROLLING-REBOOTS", "| recovery_ticks |"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}
