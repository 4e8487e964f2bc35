package experiments

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/stats"
)

func TestFig2FileSizes(t *testing.T) {
	if _, err := Fig2FileSizes(1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	r, err := Fig2FileSizes(1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig2" || len(r.Series) != 1 || len(r.Series[0].Points) == 0 {
		t.Fatalf("result = %+v", r)
	}
	// CDF must be monotone and end at 1.
	pts := r.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("fig2 CDF not monotone at %d", i)
		}
	}
	if pts[len(pts)-1].Y < 0.999 {
		t.Errorf("fig2 CDF tail = %v", pts[len(pts)-1].Y)
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "%") {
		t.Errorf("notes = %v", r.Notes)
	}
}

func TestFig3RTTsCDF(t *testing.T) {
	r, err := Fig3RTTsCDF(2, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(InitCwnds) {
		t.Fatalf("series = %d, want %d", len(r.Series), len(InitCwnds))
	}
	// Larger initcwnd curves must dominate (higher CDF at each x): compare
	// fraction completing in <= 1 RTT.
	frac1 := func(s Series) float64 {
		for _, p := range s.Points {
			if p.X >= 1 {
				return p.Y
			}
		}
		return 0
	}
	for i := 1; i < len(r.Series); i++ {
		if frac1(r.Series[i]) < frac1(r.Series[i-1])-0.01 {
			t.Errorf("series %q first-RTT fraction below %q", r.Series[i].Label, r.Series[i-1].Label)
		}
	}
	if len(r.Notes) < 3 {
		t.Errorf("notes = %v", r.Notes)
	}
}

func TestFig4TheoreticalGain(t *testing.T) {
	r, err := Fig4TheoreticalGain()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		sawPositive := false
		for _, p := range s.Points {
			if p.Y < 0 || p.Y >= 1 {
				t.Fatalf("%s gain %v out of [0,1)", s.Label, p.Y)
			}
			if p.Y > 0.3 {
				sawPositive = true
			}
			// Below the default window there is no gain.
			if p.X <= 14480 && p.Y != 0 {
				t.Fatalf("%s gain %v below default window at %v bytes", s.Label, p.Y, p.X)
			}
		}
		if !sawPositive {
			t.Errorf("%s never exceeds 30%% gain", s.Label)
		}
		// Gains must fade for very large files (paper: diminishing beyond ~1MB).
		last := s.Points[len(s.Points)-1]
		if last.Y > 0.5 {
			t.Errorf("%s gain at %v bytes = %v, want fading", s.Label, last.X, last.Y)
		}
	}
}

func TestFig5RTTDistribution(t *testing.T) {
	r, err := Fig5RTTDistribution(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 || len(r.Notes) != 1 {
		t.Fatalf("result = %+v", r)
	}
	if _, err := Fig5RTTDistribution(cdn.DefaultTopology()[:1]); err == nil {
		t.Error("single PoP accepted")
	}
}

func TestFig6TransferTime(t *testing.T) {
	r, err := Fig6TransferTime(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(InitCwnds) {
		t.Fatalf("series = %d", len(r.Series))
	}
	if len(r.Notes) != 2 {
		t.Fatalf("notes = %v", r.Notes)
	}
	// The median-gap note must report a positive saving.
	if !strings.Contains(r.Notes[0], "+") {
		t.Errorf("note = %q", r.Notes[0])
	}
}

func TestTable2Census(t *testing.T) {
	r := Table2Census(nil)
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 5 {
		t.Fatalf("tables = %+v", r.Tables)
	}
	want := map[string]string{
		"Europe":        "10",
		"North America": "11",
		"South America": "1",
		"Asia":          "9",
		"Oceania":       "3",
	}
	for _, row := range r.Tables[0].Rows {
		if want[row[0]] != row[1] {
			t.Errorf("census row %v, want %s", row, want[row[0]])
		}
	}
}

// TestEdgeCasesRowOrder: the §IV-D table has one row per (src, dst) pair
// with probes in both runs. Its rows must come out sorted by (src, dst) and
// identical from call to call; ranging over the per-pair map gave a
// different order on every run.
func TestEdgeCasesRowOrder(t *testing.T) {
	const size = 100 * 1024
	var runs probeRuns
	rng := rand.New(rand.NewSource(1))
	dsts := []string{"ams", "atl", "bom", "cdg", "dfw", "fra", "gru", "hkg", "iad", "lax", "mad", "nrt", "ord", "sea"}
	for _, src := range senderPoPs {
		for _, dst := range dsts {
			for i := 0; i < 3; i++ {
				rec := func() cdn.ProbeRecord {
					return cdn.ProbeRecord{Src: src, Dst: dst, SizeBytes: size, Elapsed: time.Duration(50+rng.Intn(400)) * time.Millisecond}
				}
				runs.control = append(runs.control, rec())
				runs.riptide = append(runs.riptide, rec())
			}
		}
	}
	rng.Shuffle(len(runs.control), func(i, j int) { runs.control[i], runs.control[j] = runs.control[j], runs.control[i] })
	first, err := edgeCasesFromRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	rows := first.Tables[0].Rows
	if want := len(senderPoPs) * len(dsts); len(rows) != want {
		t.Fatalf("%d rows, want one per pair: %d", len(rows), want)
	}
	for i := 1; i < len(rows); i++ {
		if a, b := rows[i-1], rows[i]; a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Errorf("row %d (%s→%s) is not after row %d (%s→%s)", i, b[0], b[1], i-1, a[0], a[1])
		}
	}
	for call := 0; call < 5; call++ {
		again, err := edgeCasesFromRuns(runs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d gave a different result:\n%v\nwant\n%v", call+2, again.Tables[0].Rows, rows)
		}
	}
}

func TestRender(t *testing.T) {
	r := Result{
		ID:    "test",
		Title: "Test result",
		Notes: []string{"a note"},
		Tables: []Table{{
			Title:  "t",
			Header: []string{"col1", "column2"},
			Rows:   [][]string{{"a", "b"}, {"longer", "x"}},
		}},
		Series: []Series{
			{Label: "empty"},
			{Label: "curve", Points: []stats.Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}}},
		},
	}
	var sb strings.Builder
	if err := Render(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== test:", "a note", "col1", "longer", "empty"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
