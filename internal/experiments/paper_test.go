package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/scenario"
	"riptide/internal/stats"
	"riptide/scenarios"
)

// The figure analyses run here over small synthetic record sets whose every
// figure is known in advance: a wrong RTT bucket, percentile, sign or run
// changes a note or a row. Paper's running of the files is covered by
// TestProbeSuiteQuick and, for all three files, by riptide-bench's
// TestReportQuick.

const (
	warm = 5 * time.Minute
	kb10 = 10 * 1024
	kb50 = 50 * 1024
	kbHi = 100 * 1024
)

// probes returns one probe src→dst per entry of ms, taking that many
// milliseconds, completed at at.
func probes(src, dst string, bucket cdn.RTTBucket, size int, at time.Duration, ms ...int) []cdn.ProbeRecord {
	out := make([]cdn.ProbeRecord, len(ms))
	for i, m := range ms {
		out[i] = cdn.ProbeRecord{Src: src, Dst: dst, Bucket: bucket, SizeBytes: size, At: at,
			Elapsed: time.Duration(m) * time.Millisecond}
	}
	return out
}

// scaled returns 1..n multiplied by k.
func scaled(n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + 1) * k
	}
	return out
}

// around returns the 21 integers from c-10 to c+10: distinct values, median c.
func around(c int) []int {
	out := make([]int, 21)
	for i := range out {
		out[i] = c - 10 + i
	}
	return out
}

// repeat returns v n times.
func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// cwnd returns one sample from src per window in ws; after marks connections
// opened after sampling began.
func cwnd(src string, after bool, ws ...int) []cdn.CwndSample {
	out := make([]cdn.CwndSample, len(ws))
	for i, w := range ws {
		out[i] = cdn.CwndSample{Src: src, Cwnd: w, OpenedAfterStart: after}
	}
	return out
}

// noise is records every analysis must ignore: probes before the warm-up
// ends and connections opened before sampling began.
func noise(rec *scenario.Records) {
	for _, size := range []int{kb10, kb50, kbHi} {
		rec.Probes = append(rec.Probes, probes("lhr", "ams", cdn.BucketClose, size, warm-time.Second, repeat(9000, 30)...)...)
		rec.Probes = append(rec.Probes, probes("jfk", "ams", cdn.BucketClose, size, warm-time.Second, repeat(9000, 30)...)...)
	}
	rec.Cwnd = append(rec.Cwnd, cwnd("lhr", false, repeat(999, 50)...)...)
}

func checkNotes(t *testing.T, r Result, want ...string) {
	t.Helper()
	if strings.Join(r.Notes, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s notes:\n%s\nwant:\n%s", r.ID, strings.Join(r.Notes, "\n"), strings.Join(want, "\n"))
	}
}

// cmaxRuns gives every run of paper-cmax its own window and control and
// riptide distinct 50 KB tails: control 8..800 ms, riptide 4..400 ms.
func cmaxRuns() map[string]scenario.Records {
	runs := map[string]scenario.Records{}
	for run, w := range map[string]int{"control": 20, "cmax_50": 50, "riptide": 100, "cmax_150": 140, "cmax_200": 170, "cmax_250": 180} {
		rec := scenario.Records{Cwnd: cwnd("lhr", true, w-1, w, w, w+1)}
		noise(&rec)
		runs[run] = rec
	}
	for run, k := range map[string]int{"control": 8, "riptide": 4} {
		rec := runs[run]
		rec.Probes = append(rec.Probes, probes("fra", "jfk", cdn.BucketFar, kb50, warm, scaled(100, k)...)...)
		rec.Probes = append(rec.Probes, probes("fra", "jfk", cdn.BucketFar, kb10, warm, repeat(5000, 100)...)...)
		runs[run] = rec
	}
	return runs
}

func TestFig10CwndByCmaxQuick(t *testing.T) {
	rs, err := cmaxFigures(cmaxRuns(), nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].ID != "fig10" {
		t.Fatalf("results = %+v", rs)
	}
	// Each curve spans its own run's windows, w-1..w+1.
	var curves []string
	for _, s := range rs[0].Series {
		curves = append(curves, fmt.Sprintf("%s %v..%v", s.Label, s.Points[0].X, s.Points[len(s.Points)-1].X))
	}
	if got := strings.Join(curves, ", "); got != "default (control) 19..21, riptide c_max=50 49..51, riptide c_max=100 99..101, "+
		"riptide c_max=150 139..141, riptide c_max=200 169..171, riptide c_max=250 179..181" {
		t.Errorf("series = %s", got)
	}
	checkNotes(t, rs[0],
		"median cwnd: control 20 vs c_max=50 50 (+150%; paper: +100%)",
		"median cwnd: control 20 vs c_max=100 100 (+400%; paper headline: +200%)",
		"knee: c_max=100 yields 100, c_max=250 only 180 — diminishing returns beyond 100")

	runs := cmaxRuns()
	delete(runs, "cmax_200")
	if _, err := cmaxFigures(runs, nil, warm); err == nil || !strings.Contains(err.Error(), "cmax_200") {
		t.Errorf("a missing c_max run: err = %v", err)
	}
}

func TestHeadlineQuick(t *testing.T) {
	rs, err := cmaxFigures(cmaxRuns(), nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	// p75 of 8..800 ms in steps of 8 interpolates to 602; of 4..400, 301.
	checkNotes(t, rs[1],
		"median live cwnd: control 20 vs riptide 100 (+400%; paper: +200%)",
		"50KB probe p75: control 602 ms vs riptide 301 ms (-50%; paper: up to ~30% at upper percentiles)",
		"kernel default initial window: 10 segments")
}

// quickBusyPoP names its PoPs so that file order and the organic table
// disagree: the busy PoP is the one with a rate, not the first one named.
const quickBusyPoP = `name: paper-busy-pop
fleet:
  pops: [lhr, fra, akl]
  riptide:
    enabled: true
  traffic:
    organic:
      lhr: 6
duration: 10m
events:
  - at: 1m
    start_cwnd_sampling:
      pops: [akl, lhr]
`

func TestFig11TrafficProfilesQuick(t *testing.T) {
	sp, err := scenario.Parse([]byte(quickBusyPoP))
	if err != nil {
		t.Fatal(err)
	}
	rec := scenario.Records{Cwnd: slices.Concat(cwnd("lhr", true, 90, 100, 100, 101, 150), cwnd("akl", true, 39, 40, 40, 41, 42),
		cwnd("fra", true, 7, 7, 7, 7))}
	noise(&rec)
	rs, err := busyPoPFigure(map[string]scenario.Records{"riptide": rec}, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if len(r.Series) != 2 || r.Series[0].Label != "probe traffic only (akl)" || r.Series[1].Label != "full traffic (lhr)" {
		t.Errorf("series = %+v", r.Series)
	}
	checkNotes(t, r,
		"median window: busy 100 vs probe-only 40 (paper: organic traffic reaches c_max far more often)",
		"fraction at c_max=100: busy 80%, probe-only 0%")

	both, err := scenario.Parse([]byte(strings.Replace(quickBusyPoP, "      lhr: 6", "      lhr: 6\n      akl: 1", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := busyPoPFigure(map[string]scenario.Records{"riptide": rec}, both, 0); err == nil {
		t.Error("a sampler naming two busy PoPs accepted")
	}
}

// bucketDsts names one destination per RTT bucket.
var bucketDsts = []string{"ams", "ord", "sea", "syd"}

// bucketRuns gives lhr's probes to bucket j the medians 100(j+1) ms (10 KB,
// both runs), 200(j+1) against 100(j+1) (50 KB) and 300(j+1) against
// 100(j+1) (100 KB). jfk's probes are slower and must not reach Figures
// 12–14, which read lhr alone.
func bucketRuns() probeRuns {
	var pr probeRuns
	pr.warm = warm
	for j, b := range cdn.AllBuckets() {
		u := (j + 1) * 100
		for _, c := range []struct {
			size             int
			control, riptide int
		}{{kb10, u, u}, {kb50, 2 * u, u}, {kbHi, 3 * u, u}} {
			pr.control = append(pr.control, probes("lhr", bucketDsts[j], b, c.size, warm, around(c.control)...)...)
			pr.riptide = append(pr.riptide, probes("lhr", bucketDsts[j], b, c.size, warm, around(c.riptide)...)...)
			pr.control = append(pr.control, probes("jfk", bucketDsts[j], b, c.size, warm, repeat(7000, 20)...)...)
			pr.riptide = append(pr.riptide, probes("jfk", bucketDsts[j], b, c.size, warm, repeat(7000, 20)...)...)
		}
	}
	for _, rec := range []*[]cdn.ProbeRecord{&pr.control, &pr.riptide} {
		r := scenario.Records{Probes: *rec}
		noise(&r)
		*rec = r.Probes
	}
	return pr
}

func TestProbeCompletionFiguresQuick(t *testing.T) {
	pr := bucketRuns()
	for _, tc := range []struct {
		fig, size    int
		factor       int
		gain         string
		improved, ks string
	}{
		{12, kb10, 1, "0.0", "0/4", "no significant difference"},
		{13, kb50, 2, "50.0", "4/4", "distributions differ decisively"},
		{14, kbHi, 3, "66.7", "4/4", "distributions differ decisively"},
	} {
		r, err := probeCompletionFromRuns(tc.fig, tc.size, pr)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Series) != 8 || r.Series[0].Label != "<50ms default" || r.Series[7].Label != ">150ms riptide" {
			t.Errorf("fig%d series = %d, first %q", tc.fig, len(r.Series), r.Series[0].Label)
		}
		var want []string
		for j, b := range cdn.AllBuckets() {
			u := (j + 1) * 100
			want = append(want, fmt.Sprintf("bucket %s: median default %d ms vs riptide %d ms (%s%% gain)", b, tc.factor*u, u, tc.gain))
		}
		want = append(want, tc.improved+" RTT buckets improved at the median")
		if len(r.Notes) != len(want)+1 || !strings.Contains(r.Notes[len(want)], tc.ks) {
			t.Errorf("fig%d KS note = %q, want %q", tc.fig, r.Notes[len(r.Notes)-1], tc.ks)
		}
		r.Notes = r.Notes[:min(len(r.Notes), len(want))]
		checkNotes(t, r, want...)
	}
}

func TestGainByPercentileQuick(t *testing.T) {
	// lhr: control takes k times riptide's time at every percentile, a
	// gain of 1-1/k; jfk: riptide is twice as slow, a negative gain.
	var pr probeRuns
	pr.warm = warm
	for _, c := range []struct{ size, k int }{{kb50, 2}, {kbHi, 4}} {
		pr.control = append(pr.control, probes("lhr", "ams", cdn.BucketClose, c.size, warm, scaled(100, c.k)...)...)
		pr.riptide = append(pr.riptide, probes("lhr", "ams", cdn.BucketClose, c.size, warm, scaled(100, 1)...)...)
		pr.control = append(pr.control, probes("jfk", "ams", cdn.BucketClose, c.size, warm, scaled(100, 1)...)...)
		pr.riptide = append(pr.riptide, probes("jfk", "ams", cdn.BucketClose, c.size, warm, scaled(100, 2)...)...)
	}
	for _, tc := range []struct {
		fig, size int
		gain      float64
	}{{15, kb50, 0.5}, {16, kbHi, 0.75}} {
		r, err := gainByPercentileFromRuns(tc.fig, tc.size, pr)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Series) != 2 || r.Series[0].Label != "sender lhr" || r.Series[1].Label != "sender jfk" {
			t.Fatalf("fig%d series = %+v", tc.fig, r.Series)
		}
		for i, want := range []float64{tc.gain, -1} {
			pts := r.Series[i].Points
			if len(pts) != 19 || pts[0].X != 5 || pts[18].X != 95 {
				t.Fatalf("fig%d %s points = %+v, want p5..p95 in 5%% steps", tc.fig, r.Series[i].Label, pts)
			}
			for _, p := range pts {
				if d := p.Y - want; d < -1e-9 || d > 1e-9 {
					t.Fatalf("fig%d %s gain at p%v = %v, want %v", tc.fig, r.Series[i].Label, p.X, p.Y, want)
				}
			}
		}
		notes := strings.Join(r.Notes, "\n")
		for _, want := range []string{fmt.Sprintf("sender lhr: peak percentile gain %.1f%%", 100*tc.gain),
			fmt.Sprintf("sender lhr: p75 gain %.1f%%", 100*tc.gain), "sender jfk: peak percentile gain 0.0%",
			"sender jfk: p75 gain -100.0%"} {
			if !strings.Contains(notes, want) {
				t.Errorf("fig%d notes lack %q:\n%s", tc.fig, want, notes)
			}
		}
	}
}

func TestEdgeCasesQuick(t *testing.T) {
	pr := probeRuns{warm: warm}
	pr.control = slices.Concat(probes("lhr", "ams", cdn.BucketClose, kbHi, warm, 100, 300),
		probes("jfk", "fra", cdn.BucketFar, kbHi, warm, 400, 200),
		probes("fra", "ams", cdn.BucketClose, kbHi, warm, 100), // not a vantage point
		probes("lhr", "ams", cdn.BucketClose, kb50, warm, 1))
	pr.riptide = slices.Concat(probes("lhr", "ams", cdn.BucketClose, kbHi, warm, 400, 50),
		probes("jfk", "fra", cdn.BucketFar, kbHi, warm, 204, 200),
		probes("fra", "ams", cdn.BucketClose, kbHi, warm, 1),
		probes("lhr", "ams", cdn.BucketClose, kb50, warm, 900))
	for _, rec := range []*[]cdn.ProbeRecord{&pr.control, &pr.riptide} {
		r := scenario.Records{Probes: *rec}
		noise(&r)
		*rec = r.Probes
	}
	r, err := edgeCasesFromRuns(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("tables = %+v", r.Tables)
	}
	if got := fmt.Sprint(r.Tables[0].Rows); got != "[[jfk fra +0.0 -49.0] [lhr ams -50.0 +33.3]]" {
		t.Errorf("rows = %s", got)
	}
	checkNotes(t, r, "1/2 destinations show best-case change within ±5% (paper: most unchanged)")
}

// ablationRuns are the fourteen runs of paper-ablations: run i's 50 KB
// probes take 100i..100i+10 ms (median 100i+5, p90 100i+9) and it programs
// 2000-i routes, so /16 (prefix_16) programs fewer than /32 (riptide).
func ablationRuns() map[string]scenario.Records {
	runs := map[string]scenario.Records{}
	for i, run := range []string{"control", "riptide", "max", "traffic_weighted", "no_history", "alpha_25", "alpha_50",
		"alpha_90", "prefix_24", "prefix_16", "ttl_30s", "ttl_5m", "iu_5s", "iu_15s"} {
		ms := make([]int, 11)
		for k := range ms {
			ms[k] = 100*(i+1) + k
		}
		rec := scenario.Records{Probes: probes("lhr", "ams", cdn.BucketClose, kb50, warm, ms...), RoutesSet: uint64(2000 - i)}
		rec.Probes = append(rec.Probes, probes("lhr", "ams", cdn.BucketClose, kb10, warm, repeat(1, 50)...)...)
		noise(&rec)
		runs[run] = rec
	}
	return runs
}

// checkAblation checks one ablation table against the runs each row must
// read, in order.
func checkAblation(t *testing.T, id string, rows [][2]string) {
	t.Helper()
	runs := ablationRuns()
	rs, err := ablationTables(runs, nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rs, func(r Result) bool { return r.ID == id })
	if i < 0 {
		t.Fatalf("no %s in %d results", id, len(rs))
	}
	var want [][]string
	for _, row := range rows {
		c := stats.NewCDF(0)
		for _, p := range runs[row[1]].Probes {
			if p.SizeBytes == kb50 && p.At >= warm {
				c.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
		want = append(want, []string{row[0], fmt.Sprintf("%.0f", c.MustPercentile(50)), fmt.Sprintf("%.0f", c.MustPercentile(90)),
			fmt.Sprint(runs[row[1]].RoutesSet)})
	}
	if got := fmt.Sprint(rs[i].Tables[0].Rows); got != fmt.Sprint(want) {
		t.Errorf("%s rows:\n%s\nwant:\n%s", id, got, fmt.Sprint(want))
	}
}

func TestAblationCombiners(t *testing.T) {
	checkAblation(t, "ablation-combiners", [][2]string{{"no riptide (control)", "control"}, {"average (paper default)", "riptide"},
		{"max (aggressive)", "max"}, {"traffic-weighted (conservative)", "traffic_weighted"}})
	// Spot-check the fixture itself: the control row reads 105 / 109.
	rs, _ := ablationTables(ablationRuns(), nil, warm)
	if row := rs[0].Tables[0].Rows[0]; fmt.Sprint(row) != "[no riptide (control) 105 109 2000]" {
		t.Errorf("control row = %v", row)
	}
}

func TestAblationHistory(t *testing.T) {
	checkAblation(t, "ablation-history", [][2]string{{"no history (instant)", "no_history"}, {"ewma alpha=0.25", "alpha_25"},
		{"ewma alpha=0.50", "alpha_50"}, {"ewma alpha=0.75", "riptide"}, {"ewma alpha=0.90", "alpha_90"}})
}

func TestAblationGranularity(t *testing.T) {
	checkAblation(t, "ablation-granularity", [][2]string{{"/32 per-host routes", "riptide"}, {"/24 per-PoP routes", "prefix_24"},
		{"/16 coarse routes", "prefix_16"}})
	runs := ablationRuns()
	delete(runs, "prefix_16")
	if _, err := ablationTables(runs, nil, warm); err == nil || !strings.Contains(err.Error(), "prefix_16") {
		t.Errorf("a missing ablation run: err = %v", err)
	}
	// /16 routes may tie /32 ones but never outnumber them.
	runs = ablationRuns()
	rec := runs["prefix_16"]
	rec.RoutesSet = runs["riptide"].RoutesSet
	runs["prefix_16"] = rec
	if _, err := ablationTables(runs, nil, warm); err != nil {
		t.Errorf("/16 tying /32: %v", err)
	}
	rec.RoutesSet++
	runs["prefix_16"] = rec
	if _, err := ablationTables(runs, nil, warm); err == nil || !strings.Contains(err.Error(), "more than /32") {
		t.Errorf("/16 programming more routes than /32: err = %v", err)
	}
}

func TestAblationTTLAndInterval(t *testing.T) {
	checkAblation(t, "ablation-ttl", [][2]string{{"ttl=30s", "ttl_30s"}, {"ttl=1m30s", "riptide"}, {"ttl=5m0s", "ttl_5m"}})
	checkAblation(t, "ablation-interval", [][2]string{{"i_u=1s", "riptide"}, {"i_u=5s", "iu_5s"}, {"i_u=15s", "iu_15s"}})
}

// TestScaleDefaults pins the one scale the paper's three files share — what
// the deleted Scale presets spelled in Go: the full 34-PoP mesh, seed 1,
// 0.2 % WAN loss, probes every 4 minutes, a 5-minute warm-up, and an hour
// measured after it (17 s more where a cwnd sampler starts off the probe
// grid, at 5m17s).
func TestScaleDefaults(t *testing.T) {
	for _, f := range PaperFiles {
		sp, err := scenarios.Load(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		pops := sp.Fleet.PoPs
		tr := sp.Fleet.Traffic
		if len(pops) != 34 || sp.Fleet.Seed != 1 || sp.Fleet.LossRate != 0.002 || tr.ProbeInterval != 4*time.Minute ||
			sp.Window == nil || sp.Window.Start != 5*time.Minute || sp.Window.End != sp.Duration {
			t.Errorf("%s: %d PoPs, seed %d, loss %v, probes every %v, window %+v, duration %v", f.Name, len(pops),
				sp.Fleet.Seed, sp.Fleet.LossRate, tr.ProbeInterval, sp.Window, sp.Duration)
		}
		measured := time.Hour
		for _, ev := range sp.Events {
			if _, ok := ev.Payload.(*scenario.CwndSamplingEvent); ok {
				measured += 17 * time.Second
				if ev.At != 5*time.Minute+17*time.Second {
					t.Errorf("%s: sampler at %v", f.Name, ev.At)
				}
			}
		}
		if sp.Duration-sp.Window.Start != measured {
			t.Errorf("%s: measures %v, want %v", f.Name, sp.Duration-sp.Window.Start, measured)
		}
		// Every PoP carries organic traffic, five busy ones four times the
		// baseline — but in Figure 11's file, where lhr alone does.
		var busy []string
		baseline := 0
		for _, p := range pops {
			if rate, ok := tr.OrganicRates[p.Name]; rate == 1 {
				baseline++
			} else if ok {
				busy = append(busy, fmt.Sprintf("%s:%v", p.Name, rate))
			}
		}
		got, want := fmt.Sprintf("%v + %d at 1", busy, baseline), "[lhr:4 fra:4 jfk:4 lax:4 nrt:4] + 29 at 1"
		if f.Name == "paper-busy-pop" {
			want = "[lhr:6] + 0 at 1"
		}
		if got != want {
			t.Errorf("%s: organic rates %s, want %s", f.Name, got, want)
		}
	}
}

// quickCmax stands in for scenarios/paper-cmax.yaml at test size.
const quickCmax = `name: paper-cmax
fleet:
  pops: [lhr, jfk, ams]
  seed: 1
  riptide:
    enabled: true
  traffic:
    probe_interval: 1m
    idle_timeout: 30s
duration: 5m
window: {start: 1m, end: 5m}
compare:
  control: {enabled: false}
  cmax_50: {cmax: 50}
  cmax_150: {cmax: 150}
  cmax_200: {cmax: 200}
  cmax_250: {cmax: 250}
events:
  - at: 1m17s
    start_cwnd_sampling: {}
assertions:
  - riptide.probe_ms.p50.during < control.probe_ms.p50.during
`

// TestProbeSuiteQuick runs a paper-cmax stand-in through Paper: its runs
// yield Figure 10 and the headline, and its control/Riptide pair Figures
// 12–16 and the edge cases, in the order PaperFiles promises.
func TestProbeSuiteQuick(t *testing.T) {
	sp, err := scenario.Parse([]byte(quickCmax))
	if err != nil {
		t.Fatal(err)
	}
	results, err := Paper(sp)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range results {
		ids = append(ids, r.ID)
	}
	if want := PaperFiles[slices.IndexFunc(PaperFiles, func(f PaperFile) bool { return f.Name == "paper-cmax" })].IDs; !slices.Equal(ids, want) {
		t.Errorf("results = %v, want %v", ids, want)
	}
}

// TestEdgeCasesEntryPoint: Paper takes only the paper's files, and a file
// whose assertion fails yields no figures.
func TestEdgeCasesEntryPoint(t *testing.T) {
	sp, err := scenario.Parse([]byte(strings.Replace(quickCmax, "name: paper-cmax", "name: cmax-copy", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Paper(sp); err == nil || !strings.Contains(err.Error(), "not a paper scenario") {
		t.Errorf("a non-paper file: err = %v", err)
	}
	sp, err = scenario.Parse([]byte(strings.Replace(quickCmax, "p50.during <", "p50.during >", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Paper(sp); err == nil || !strings.Contains(err.Error(), "assertion") {
		t.Errorf("a failed assertion: err = %v", err)
	}
}
