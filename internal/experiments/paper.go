package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/kernel"
	"riptide/internal/scenario"
	"riptide/internal/stats"
	"riptide/internal/workload"
)

// PaperFile is one scenario file of the paper's cluster evaluation
// (scenarios/paper-*.yaml) and the figures Paper derives from its runs.
type PaperFile struct {
	Name string
	// IDs are the results Paper returns for the file, in report order.
	IDs     []string
	analyse func(runs map[string]scenario.Records, sp *scenario.Spec, warm time.Duration) ([]Result, error)
}

// PaperFiles lists the paper's scenario files in report order.
var PaperFiles = []PaperFile{
	{"paper-cmax", []string{"fig10", "headline", "fig12", "fig13", "fig14", "fig15", "fig16", "edge"}, cmaxAndProbeFigures},
	{"paper-busy-pop", []string{"fig11"}, busyPoPFigure},
	{"paper-ablations", []string{"ablation-combiners", "ablation-history", "ablation-granularity", "ablation-ttl", "ablation-interval"},
		ablationTables},
}

// Paper runs one of the paper's scenario files and derives its figures from
// the runs' records. The file's window start is the warm-up the figures
// skip; a failed assertion fails the run, as with Scenario.
func Paper(sp *scenario.Spec) ([]Result, error) {
	i := slices.IndexFunc(PaperFiles, func(f PaperFile) bool { return f.Name == sp.Name })
	if i < 0 {
		return nil, fmt.Errorf("experiments: %q is not a paper scenario", sp.Name)
	}
	f := PaperFiles[i]
	var warm time.Duration
	if sp.Window != nil {
		warm = sp.Window.Start
	}
	runs := make(map[string]scenario.Records)
	rep, err := sp.Run(func(run string, rec scenario.Records) {
		// Only the probes some figure reads, in a new array, so the full
		// one is freed: the vantage points' and the 50 KB ones.
		var kept []cdn.ProbeRecord
		for _, p := range rec.Probes {
			if is50KB(p) || fromSender(p) {
				kept = append(kept, p)
			}
		}
		rec.Probes = kept
		runs[run] = rec
	})
	if err != nil {
		return nil, err
	}
	for _, a := range rep.Assertions {
		if !a.Pass {
			return nil, fmt.Errorf("experiments: %s: assertion %q fails (%s)", sp.Name, a.Source, a.Detail)
		}
	}
	return f.analyse(runs, sp, warm)
}

func is50KB(p cdn.ProbeRecord) bool { return p.SizeBytes == 50*1024 }

// senderPoPs are the two vantage points the paper measures probes from: one
// European and one North American PoP.
var senderPoPs = []string{"lhr", "jfk"}

func fromSender(p cdn.ProbeRecord) bool { return slices.Contains(senderPoPs, p.Src) }

// probeCDF is the completion-time CDF (whole ms) of the probes keep selects.
func probeCDF(records []cdn.ProbeRecord, keep func(cdn.ProbeRecord) bool) *stats.CDF {
	c := stats.NewCDF(512)
	for _, p := range records {
		if keep(p) {
			c.Add(float64(p.Elapsed.Milliseconds()))
		}
	}
	return c
}

// cwndCDF is the window CDF of one run's connections opened after sampling
// began, the population the paper's Section IV-B1 counts.
func cwndCDF(runs map[string]scenario.Records, run string) (*stats.CDF, error) {
	cdf := stats.NewCDF(1024)
	for _, s := range runs[run].Cwnd {
		if s.OpenedAfterStart {
			cdf.Add(float64(s.Cwnd))
		}
	}
	if cdf.Len() == 0 {
		return nil, fmt.Errorf("experiments: run %q has no cwnd samples", run)
	}
	return cdf, nil
}

// cmaxArms are Figure 10's Riptide curves: the runs of
// scenarios/paper-cmax.yaml and the c_max each runs with.
var cmaxArms = []struct {
	run  string
	cmax int
}{{"cmax_50", 50}, {"riptide", 100}, {"cmax_150", 150}, {"cmax_200", 200}, {"cmax_250", 250}}

// cmaxFigures reproduces Figure 10 — the CDF of observed windows under each
// c_max and a no-Riptide control — and the abstract's headline numbers from
// the same runs.
func cmaxFigures(runs map[string]scenario.Records, _ *scenario.Spec, warm time.Duration) ([]Result, error) {
	fig := Result{ID: "fig10", Title: "Observed congestion windows per c_max (CDF)"}
	control, err := cwndCDF(runs, "control")
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "default (control)", Points: control.Curve(curvePoints)})
	medians := map[int]float64{}
	for _, a := range cmaxArms {
		cdf, err := cwndCDF(runs, a.run)
		if err != nil {
			return nil, err
		}
		medians[a.cmax] = cdf.MustPercentile(50)
		fig.Series = append(fig.Series, Series{Label: fmt.Sprintf("riptide c_max=%d", a.cmax), Points: cdf.Curve(curvePoints)})
	}
	cm, rm := control.MustPercentile(50), medians[100]
	if cm > 0 {
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("median cwnd: control %.0f vs c_max=50 %.0f (+%.0f%%; paper: +100%%)",
				cm, medians[50], 100*(medians[50]-cm)/cm),
			fmt.Sprintf("median cwnd: control %.0f vs c_max=100 %.0f (+%.0f%%; paper headline: +200%%)",
				cm, rm, 100*(rm-cm)/cm),
			fmt.Sprintf("knee: c_max=100 yields %.0f, c_max=250 only %.0f — diminishing returns beyond 100",
				rm, medians[250]))
	}

	head := Result{ID: "headline", Title: "Headline results (abstract / Section IV)"}
	measured := func(p cdn.ProbeRecord) bool { return is50KB(p) && p.At >= warm }
	ct, rt := probeCDF(runs["control"].Probes, measured), probeCDF(runs["riptide"].Probes, measured)
	if ct.Len() == 0 || rt.Len() == 0 {
		return nil, fmt.Errorf("experiments: no 50KB probes after warm-up (control %d, riptide %d)", ct.Len(), rt.Len())
	}
	ct75, rt75 := ct.MustPercentile(75), rt.MustPercentile(75)
	if cm > 0 {
		head.Notes = append(head.Notes,
			fmt.Sprintf("median live cwnd: control %.0f vs riptide %.0f (+%.0f%%; paper: +200%%)", cm, rm, 100*(rm-cm)/cm))
	}
	if ct75 > 0 {
		head.Notes = append(head.Notes,
			fmt.Sprintf("50KB probe p75: control %.0f ms vs riptide %.0f ms (-%.0f%%; paper: up to ~30%% at upper percentiles)",
				ct75, rt75, 100*(ct75-rt75)/ct75))
	}
	head.Notes = append(head.Notes, fmt.Sprintf("kernel default initial window: %d segments", kernel.DefaultInitCwnd))
	return []Result{fig, head}, nil
}

// cmaxAndProbeFigures derives everything paper-cmax's runs carry: its
// control and riptide runs are also the pair Figures 12–16 and the edge
// cases compare.
func cmaxAndProbeFigures(runs map[string]scenario.Records, sp *scenario.Spec, warm time.Duration) ([]Result, error) {
	out, err := cmaxFigures(runs, sp, warm)
	if err != nil {
		return nil, err
	}
	probes, err := probeFigures(runs, sp, warm)
	return append(out, probes...), err
}

// busyPoPFigure reproduces Figure 11: the window CDF at a PoP carrying only
// probe traffic against one carrying organic traffic too. The file's cwnd
// sampler names the two PoPs; the one with an organic rate is the busy one.
func busyPoPFigure(runs map[string]scenario.Records, sp *scenario.Spec, _ time.Duration) ([]Result, error) {
	var busyName, quietName string
	for _, ev := range sp.Events {
		s, ok := ev.Payload.(*scenario.CwndSamplingEvent)
		if !ok {
			continue
		}
		for _, pop := range s.PoPs {
			if _, busy := sp.Fleet.Traffic.OrganicRates[pop]; busy {
				busyName = pop
			} else {
				quietName = pop
			}
		}
	}
	if busyName == "" || quietName == "" {
		return nil, fmt.Errorf("experiments: %s's cwnd sampler must name a PoP with organic traffic and one without", sp.Name)
	}
	busy, quiet := stats.NewCDF(256), stats.NewCDF(256)
	for _, smp := range runs["riptide"].Cwnd {
		switch {
		case !smp.OpenedAfterStart:
		case smp.Src == busyName:
			busy.Add(float64(smp.Cwnd))
		case smp.Src == quietName:
			quiet.Add(float64(smp.Cwnd))
		}
	}
	if busy.Len() == 0 || quiet.Len() == 0 {
		return nil, fmt.Errorf("experiments: missing samples (busy=%d quiet=%d)", busy.Len(), quiet.Len())
	}
	return []Result{{
		ID:    "fig11",
		Title: "Observed windows: probe-only vs organic-traffic PoP",
		Series: []Series{
			{Label: fmt.Sprintf("probe traffic only (%s)", quietName), Points: quiet.Curve(curvePoints)},
			{Label: fmt.Sprintf("full traffic (%s)", busyName), Points: busy.Curve(curvePoints)},
		},
		Notes: []string{
			fmt.Sprintf("median window: busy %.0f vs probe-only %.0f (paper: organic traffic reaches c_max far more often)",
				busy.MustPercentile(50), quiet.MustPercentile(50)),
			fmt.Sprintf("fraction at c_max=100: busy %.0f%%, probe-only %.0f%%",
				100*(1-busy.At(99)), 100*(1-quiet.At(99))),
		},
	}}, nil
}

// probeRuns holds a matched Riptide/control pair of probe record sets.
type probeRuns struct {
	control, riptide []cdn.ProbeRecord
	warm             time.Duration
}

// probeFigures derives Figures 12–14 (completion CDFs), Figures 15–16 (gain
// by percentile) and the Section IV-D edge cases from one control/Riptide
// pair.
func probeFigures(runs map[string]scenario.Records, _ *scenario.Spec, warm time.Duration) ([]Result, error) {
	pr := probeRuns{control: runs["control"].Probes, riptide: runs["riptide"].Probes, warm: warm}
	var out []Result
	for _, fig := range []struct {
		id, size int
		derive   func(int, int, probeRuns) (Result, error)
	}{
		{12, 10 * 1024, probeCompletionFromRuns}, {13, 50 * 1024, probeCompletionFromRuns}, {14, 100 * 1024, probeCompletionFromRuns},
		{15, 50 * 1024, gainByPercentileFromRuns}, {16, 100 * 1024, gainByPercentileFromRuns},
		{0, 0, func(int, int, probeRuns) (Result, error) { return edgeCasesFromRuns(pr) }},
	} {
		r, err := fig.derive(fig.id, fig.size, pr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// probeCompletionFromRuns reproduces Figures 12 (10 KB), 13 (50 KB) and 14
// (100 KB): CDFs of probe completion time grouped by destination RTT bucket,
// Riptide versus default, from a single sending PoP.
func probeCompletionFromRuns(fig, size int, runs probeRuns) (Result, error) {
	res := Result{
		ID:    fmt.Sprintf("fig%d", fig),
		Title: fmt.Sprintf("Probe completion time CDFs, %dKB probes, by RTT bucket", size/1024),
	}
	src := senderPoPs[0]
	keep := func(p cdn.ProbeRecord) bool { return p.Src == src && p.SizeBytes == size && p.At >= runs.warm }
	improvedBuckets, comparable := 0, 0
	for _, b := range cdn.AllBuckets() {
		inBucket := func(p cdn.ProbeRecord) bool { return keep(p) && p.Bucket == b }
		cc, rc := probeCDF(runs.control, inBucket), probeCDF(runs.riptide, inBucket)
		if cc.Len() == 0 || rc.Len() == 0 {
			continue
		}
		comparable++
		res.Series = append(res.Series, Series{Label: fmt.Sprintf("%s default", b), Points: cc.Curve(curvePoints)},
			Series{Label: fmt.Sprintf("%s riptide", b), Points: rc.Curve(curvePoints)})
		cMed, rMed := cc.MustPercentile(50), rc.MustPercentile(50)
		if cMed > 0 {
			gain := 100 * (cMed - rMed) / cMed
			if gain > 1 {
				improvedBuckets++
			}
			res.Notes = append(res.Notes,
				fmt.Sprintf("bucket %s: median default %.0f ms vs riptide %.0f ms (%.1f%% gain)", b, cMed, rMed, gain))
		}
	}
	if comparable == 0 {
		return Result{}, fmt.Errorf("experiments: no comparable probe buckets for fig%d", fig)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d/%d RTT buckets improved at the median", improvedBuckets, comparable))

	// Significance: pool all buckets and test whether the riptide and
	// control completion-time distributions differ at all. Figure 12's
	// 10 KB probes should NOT differ; 13 and 14 should, overwhelmingly.
	if ks, err := stats.KolmogorovSmirnov(probeCDF(runs.control, keep), probeCDF(runs.riptide, keep)); err == nil {
		res.Notes = append(res.Notes,
			fmt.Sprintf("KS two-sample test: D=%.3f p=%.3g (%s)", ks.Statistic, ks.PValue,
				significance(ks.PValue)))
	}
	return res, nil
}

// significance renders a p-value verdict for report notes.
func significance(p float64) string {
	switch {
	case p < 0.001:
		return "distributions differ decisively"
	case p < 0.05:
		return "distributions differ significantly"
	default:
		return "no significant difference"
	}
}

// gainByPercentileFromRuns reproduces Figures 15 (50 KB) and 16 (100 KB):
// fraction of completion-time gain by percentile, in 5% steps, for the
// European and North American sender PoPs.
func gainByPercentileFromRuns(fig, size int, runs probeRuns) (Result, error) {
	res := Result{
		ID:    fmt.Sprintf("fig%d", fig),
		Title: fmt.Sprintf("Fraction of gain by percentile, %dKB probes", size/1024),
	}
	percentiles := stats.PercentileSteps(5, 95, 5)
	for _, src := range senderPoPs {
		keep := func(p cdn.ProbeRecord) bool { return p.Src == src && p.SizeBytes == size && p.At >= runs.warm }
		ctrl, ript := probeCDF(runs.control, keep), probeCDF(runs.riptide, keep)
		if ctrl.Len() == 0 || ript.Len() == 0 {
			return Result{}, fmt.Errorf("experiments: no probes for sender %s", src)
		}
		gains, err := stats.RelativeGain(ctrl, ript, percentiles)
		if err != nil {
			return Result{}, err
		}
		pts := make([]stats.Point, len(percentiles))
		best := 0.0
		for i := range percentiles {
			pts[i] = stats.Point{X: percentiles[i], Y: gains[i]}
			best = max(best, gains[i])
		}
		res.Series = append(res.Series, Series{Label: fmt.Sprintf("sender %s", src), Points: pts})
		res.Notes = append(res.Notes, fmt.Sprintf("sender %s: peak percentile gain %.1f%%", src, 100*best))

		// Bootstrap a 95% interval for the paper's headline percentile
		// (p75), so the report carries uncertainty, not just a point.
		ci, err := stats.BootstrapGainCI(ctrl, ript, 75, 500, workload.NewRand(1))
		if err == nil {
			res.Notes = append(res.Notes,
				fmt.Sprintf("sender %s: p75 gain %.1f%% (95%% CI %.1f%%..%.1f%%)",
					src, 100*ci.Gain, 100*ci.Lo, 100*ci.Hi))
		}
	}
	return res, nil
}

// edgeCasesFromRuns reproduces Section IV-D: best-case (minimum) probe times
// are essentially unchanged by Riptide; worst-case (maximum) times are noisy
// with no consistent trend.
func edgeCasesFromRuns(runs probeRuns) (Result, error) {
	const size = 100 * 1024
	type key struct{ src, dst string }
	minmax := func(records []cdn.ProbeRecord) (mins, maxs map[key]time.Duration) {
		mins, maxs = map[key]time.Duration{}, map[key]time.Duration{}
		for _, p := range records {
			// The paper's Section IV-D analyses the two vantage
			// PoPs, not the full mesh.
			if p.SizeBytes != size || p.At < runs.warm || !fromSender(p) {
				continue
			}
			k := key{p.Src, p.Dst}
			if cur, ok := mins[k]; !ok || p.Elapsed < cur {
				mins[k] = p.Elapsed
			}
			if cur, ok := maxs[k]; !ok || p.Elapsed > cur {
				maxs[k] = p.Elapsed
			}
		}
		return mins, maxs
	}
	cMin, cMax := minmax(runs.control)
	rMin, rMax := minmax(runs.riptide)

	tbl := Table{
		Title:  "Per-destination min/max 100KB probe change (riptide vs default)",
		Header: []string{"src", "dst", "min change %", "max change %"},
	}
	// One row per (src, dst) pair, in pair order: ranging over the map
	// would list the rows in a different order on every run.
	keys := make([]key, 0, len(cMin))
	for k := range cMin {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	var minWithin5, minTotal int
	for _, k := range keys {
		cm := cMin[k]
		rm, ok := rMin[k]
		if !ok || cm == 0 {
			continue
		}
		minTotal++
		minChange := 100 * float64(rm-cm) / float64(cm)
		if minChange >= -5 && minChange <= 5 {
			minWithin5++
		}
		maxChange := 0.0
		if cx, ok := cMax[k]; ok && cx > 0 {
			if rx, ok := rMax[k]; ok {
				maxChange = 100 * float64(rx-cx) / float64(cx)
			}
		}
		tbl.Rows = append(tbl.Rows, []string{k.src, k.dst, fmt.Sprintf("%+.1f", minChange), fmt.Sprintf("%+.1f", maxChange)})
	}
	if minTotal == 0 {
		return Result{}, fmt.Errorf("experiments: no destinations with both runs")
	}
	return Result{
		ID:     "edge",
		Title:  "Edge cases: best- and worst-case probe times (Section IV-D)",
		Tables: []Table{tbl},
		Notes: []string{fmt.Sprintf("%d/%d destinations show best-case change within ±5%% (paper: most unchanged)",
			minWithin5, minTotal)},
	}, nil
}

// ablationRows are the five Section III-B ablations, each varying one knob:
// a table's rows pair a label with the run of scenarios/paper-ablations.yaml
// it reads. The main run, the paper's configuration, is in every table.
var ablationRows = []struct {
	id, title string
	rows      [][2]string
}{
	{"ablation-combiners", "Combiner ablation (Section III-B)", [][2]string{
		{"no riptide (control)", "control"}, {"average (paper default)", "riptide"},
		{"max (aggressive)", "max"}, {"traffic-weighted (conservative)", "traffic_weighted"}}},
	{"ablation-history", "History-policy ablation (Section III-B)", [][2]string{
		{"no history (instant)", "no_history"}, {"ewma alpha=0.25", "alpha_25"}, {"ewma alpha=0.50", "alpha_50"},
		{"ewma alpha=0.75", "riptide"}, {"ewma alpha=0.90", "alpha_90"}}},
	{"ablation-granularity", "Route-granularity ablation (Section III-B)", [][2]string{
		{"/32 per-host routes", "riptide"}, {"/24 per-PoP routes", "prefix_24"}, {"/16 coarse routes", "prefix_16"}}},
	{"ablation-ttl", "TTL ablation (paper default 90s)", [][2]string{
		{"ttl=30s", "ttl_30s"}, {"ttl=1m30s", "riptide"}, {"ttl=5m0s", "ttl_5m"}}},
	{"ablation-interval", "Update-interval ablation (paper default 1s)", [][2]string{
		{"i_u=1s", "riptide"}, {"i_u=5s", "iu_5s"}, {"i_u=15s", "iu_15s"}}},
}

// ablationTables reports each ablation's 50 KB probe median and p90
// completion times after warm-up, plus the routes the fleet programmed. A
// /16 route covers what many /32 routes would, so /16 programming more
// routes than /32 fails the run.
func ablationTables(runs map[string]scenario.Records, _ *scenario.Spec, warm time.Duration) ([]Result, error) {
	if coarse, fine := runs["prefix_16"].RoutesSet, runs["riptide"].RoutesSet; coarse > fine {
		return nil, fmt.Errorf("experiments: /16 routes programmed %d routes, more than /32's %d", coarse, fine)
	}
	var out []Result
	for _, a := range ablationRows {
		tbl := Table{Title: a.title, Header: []string{"variant", "50KB median (ms)", "50KB p90 (ms)", "routes programmed"}}
		for _, row := range a.rows {
			rec, ok := runs[row[1]]
			c := probeCDF(rec.Probes, func(p cdn.ProbeRecord) bool { return is50KB(p) && p.At >= warm })
			if !ok || c.Len() == 0 {
				return nil, fmt.Errorf("experiments: ablation run %q produced no probes", row[1])
			}
			tbl.Rows = append(tbl.Rows, []string{row[0], fmt.Sprintf("%.0f", c.MustPercentile(50)),
				fmt.Sprintf("%.0f", c.MustPercentile(90)), fmt.Sprintf("%d", rec.RoutesSet)})
		}
		out = append(out, Result{ID: a.id, Title: a.title, Tables: []Table{tbl}})
	}
	return out, nil
}
