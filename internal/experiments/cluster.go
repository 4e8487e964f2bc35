package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/kernel"
	"riptide/internal/stats"
	"riptide/internal/workload"
)

// Scale sizes the cluster simulations. The paper measured 12–20 hours on a
// production network; simulated runs compress time (probes every minute
// rather than hourly) so shorter durations observe the same number of probe
// rounds.
type Scale struct {
	// Duration is how long each simulated measurement runs. Zero means
	// DefaultScale's duration.
	Duration time.Duration
	// Seed drives all randomness.
	Seed int64
	// PoPs restricts the topology; empty means the full 34-PoP mesh.
	PoPs []cdn.PoP
	// LossRate is the WAN's random per-segment loss.
	LossRate float64
	// WarmUp discards measurements collected before Riptide has learned
	// the network (default: 2 probe rounds).
	WarmUp time.Duration
}

// DefaultScale is a full-fidelity configuration: the complete topology for
// the equivalent of the paper's measurement windows.
func DefaultScale() Scale {
	return Scale{
		Duration: time.Hour, // ~20 probe rounds/destination
		Seed:     1,
		LossRate: 0.002,
		WarmUp:   5 * time.Minute,
	}
}

// QuickScale is a reduced configuration for unit tests: a 6-PoP mesh and a
// short run.
func QuickScale() Scale {
	pops := cdn.DefaultTopology()
	pick := map[string]bool{"lhr": true, "fra": true, "jfk": true, "lax": true, "nrt": true, "syd": true}
	var subset []cdn.PoP
	for _, p := range pops {
		if pick[p.Name] {
			subset = append(subset, p)
		}
	}
	return Scale{
		Duration: 20 * time.Minute,
		Seed:     1,
		PoPs:     subset,
		LossRate: 0.002,
		WarmUp:   4 * time.Minute,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Duration == 0 {
		s.Duration = d.Duration
	}
	if s.LossRate == 0 {
		s.LossRate = d.LossRate
	}
	if s.WarmUp == 0 {
		s.WarmUp = d.WarmUp
	}
	if len(s.PoPs) == 0 {
		s.PoPs = cdn.DefaultTopology()
	}
	return s
}

// organicProfile assigns background traffic: every PoP carries a baseline
// of organic transfers (so control-group windows grow as they do in
// production) and a handful of busy PoPs carry much more (so learned
// windows reach c_max on busy paths, the paper's Figure 11 effect).
func organicProfile(pops []cdn.PoP) map[string]float64 {
	busy := map[string]bool{"lhr": true, "fra": true, "jfk": true, "lax": true, "nrt": true}
	rates := make(map[string]float64, len(pops))
	for _, p := range pops {
		if busy[p.Name] {
			rates[p.Name] = 4 // transfers per second
		} else {
			rates[p.Name] = 1
		}
	}
	return rates
}

// runCluster builds and runs one cluster, returning it with all
// measurements collected.
func runCluster(s Scale, riptide cdn.RiptideOptions, organic map[string]float64, sampleCwnd bool) (*cdn.Cluster, error) {
	c, err := cdn.NewCluster(cdn.Config{
		PoPs:     s.PoPs,
		Seed:     s.Seed,
		LossRate: s.LossRate,
		Riptide:  riptide,
		Traffic: cdn.TrafficOptions{
			// Longer than the agent TTL, like the paper's hourly
			// probes: a destination kept alive only by probes
			// must re-learn each round, while organic traffic
			// keeps entries warm continuously (Figure 11).
			ProbeInterval: 4 * time.Minute,
			// Shorter than the probe interval: connections kept
			// alive only by probes do not survive between rounds,
			// as with the paper's hourly probe cadence.
			IdleTimeout:  2 * time.Minute,
			OrganicRates: organic,
		},
	})
	if err != nil {
		return nil, err
	}
	if sampleCwnd {
		// The paper samples windows each minute and counts only
		// connections opened after Riptide started; warm up first. The
		// extra 17 s offsets the sampler from the probe-round boundary so
		// it observes steady-state windows rather than connections caught
		// at the instant they open (still at exactly their initcwnd).
		c.Run(s.WarmUp + 17*time.Second)
		if err := c.StartCwndSampling(time.Minute); err != nil {
			return nil, err
		}
		c.Run(s.Duration)
	} else {
		c.Run(s.WarmUp + s.Duration)
	}
	c.Stop()
	return c, nil
}

// CmaxSweep is the Figure 10 parameter sweep.
var CmaxSweep = []int{50, 100, 150, 200, 250}

// Fig10CwndByCmax reproduces Figure 10: the CDF of observed congestion
// windows while Riptide runs with c_max in {50,100,150,200,250}, plus a
// no-Riptide control, over connections opened after measurement start.
func Fig10CwndByCmax(s Scale) (Result, error) {
	s = s.withDefaults()
	organic := organicProfile(s.PoPs)
	res := Result{ID: "fig10", Title: "Observed congestion windows per c_max (CDF)"}

	collect := func(c *cdn.Cluster) *stats.CDF {
		cdf := stats.NewCDF(1024)
		for _, smp := range c.CwndSamples() {
			if smp.OpenedAfterStart {
				cdf.Add(float64(smp.Cwnd))
			}
		}
		return cdf
	}

	control, err := runCluster(s, cdn.RiptideOptions{}, organic, true)
	if err != nil {
		return Result{}, err
	}
	controlCDF := collect(control)
	if controlCDF.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: control run produced no cwnd samples")
	}
	res.Series = append(res.Series, Series{Label: "default (control)", Points: controlCDF.Curve(curvePoints)})

	medians := map[int]float64{}
	for _, cmax := range CmaxSweep {
		cl, err := runCluster(s, cdn.RiptideOptions{Enabled: true, CMax: cmax}, organic, true)
		if err != nil {
			return Result{}, err
		}
		cdf := collect(cl)
		if cdf.Len() == 0 {
			return Result{}, fmt.Errorf("experiments: c_max=%d run produced no cwnd samples", cmax)
		}
		med, err := cdf.Median()
		if err != nil {
			return Result{}, err
		}
		medians[cmax] = med
		res.Series = append(res.Series, Series{
			Label:  fmt.Sprintf("riptide c_max=%d", cmax),
			Points: cdf.Curve(curvePoints),
		})
	}

	ctrlMed, err := controlCDF.Median()
	if err != nil {
		return Result{}, err
	}
	if ctrlMed > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("median cwnd: control %.0f vs c_max=50 %.0f (+%.0f%%; paper: +100%%)",
				ctrlMed, medians[50], 100*(medians[50]-ctrlMed)/ctrlMed),
			fmt.Sprintf("median cwnd: control %.0f vs c_max=100 %.0f (+%.0f%%; paper headline: +200%%)",
				ctrlMed, medians[100], 100*(medians[100]-ctrlMed)/ctrlMed),
			fmt.Sprintf("knee: c_max=100 yields %.0f, c_max=250 only %.0f — diminishing returns beyond 100",
				medians[100], medians[250]))
	}
	return res, nil
}

// Fig11TrafficProfiles reproduces Figure 11: the window CDF at a PoP running
// only probe traffic versus one of the busiest PoPs.
func Fig11TrafficProfiles(s Scale) (Result, error) {
	s = s.withDefaults()
	busyName, quietName := "lhr", pickQuietPoP(s.PoPs)
	organic := map[string]float64{busyName: 6}

	cl, err := runCluster(s, cdn.RiptideOptions{Enabled: true}, organic, true)
	if err != nil {
		return Result{}, err
	}
	busy, quiet := stats.NewCDF(256), stats.NewCDF(256)
	for _, smp := range cl.CwndSamples() {
		if !smp.OpenedAfterStart {
			continue
		}
		switch smp.Src {
		case busyName:
			busy.Add(float64(smp.Cwnd))
		case quietName:
			quiet.Add(float64(smp.Cwnd))
		}
	}
	if busy.Len() == 0 || quiet.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: missing samples (busy=%d quiet=%d)", busy.Len(), quiet.Len())
	}
	busyMed, err := busy.Median()
	if err != nil {
		return Result{}, err
	}
	quietMed, err := quiet.Median()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "fig11",
		Title: "Observed windows: probe-only vs organic-traffic PoP",
		Series: []Series{
			{Label: fmt.Sprintf("probe traffic only (%s)", quietName), Points: quiet.Curve(curvePoints)},
			{Label: fmt.Sprintf("full traffic (%s)", busyName), Points: busy.Curve(curvePoints)},
		},
		Notes: []string{
			fmt.Sprintf("median window: busy %.0f vs probe-only %.0f (paper: organic traffic reaches c_max far more often)",
				busyMed, quietMed),
			fmt.Sprintf("fraction at c_max=100: busy %.0f%%, probe-only %.0f%%",
				100*(1-busy.At(99)), 100*(1-quiet.At(99))),
		},
	}, nil
}

// pickQuietPoP returns a PoP that gets no organic traffic in the default
// profile, preferring the paper-like single South American site.
func pickQuietPoP(pops []cdn.PoP) string {
	organic := organicProfile(pops)
	for _, prefer := range []string{"gru", "syd", "waw"} {
		for _, p := range pops {
			if p.Name == prefer {
				if _, busy := organic[prefer]; !busy {
					return prefer
				}
			}
		}
	}
	for _, p := range pops {
		if _, busy := organic[p.Name]; !busy {
			return p.Name
		}
	}
	return pops[len(pops)-1].Name
}

// probeSizeForFigure maps figure numbers 12-14 to probe sizes.
var probeSizeForFigure = map[int]int{12: 10 * 1024, 13: 50 * 1024, 14: 100 * 1024}

// senderPoPs are the two vantage points the paper measures probes from: one
// European and one North American PoP.
var senderPoPs = []string{"lhr", "jfk"}

// probeRuns holds a matched Riptide/control pair of probe record sets.
type probeRuns struct {
	control, riptide []cdn.ProbeRecord
	warm             time.Duration
}

// runProbePair executes the control and Riptide clusters once and returns
// both probe sets. Figures 12–16 and the edge-case analysis all consume it.
func runProbePair(s Scale) (probeRuns, error) {
	s = s.withDefaults()
	organic := organicProfile(s.PoPs)
	control, err := runCluster(s, cdn.RiptideOptions{}, organic, false)
	if err != nil {
		return probeRuns{}, err
	}
	riptide, err := runCluster(s, cdn.RiptideOptions{Enabled: true}, organic, false)
	if err != nil {
		return probeRuns{}, err
	}
	return probeRuns{
		control: control.ProbeRecords(),
		riptide: riptide.ProbeRecords(),
		warm:    s.WarmUp,
	}, nil
}

// filterProbes selects fresh-connection probes of one size from a sender
// after warm-up, grouped by RTT bucket.
func filterProbes(records []cdn.ProbeRecord, src string, size int, warm time.Duration) map[cdn.RTTBucket]*stats.CDF {
	out := make(map[cdn.RTTBucket]*stats.CDF)
	for _, p := range records {
		if p.Src != src || p.SizeBytes != size || p.At < warm {
			continue
		}
		c, ok := out[p.Bucket]
		if !ok {
			c = stats.NewCDF(128)
			out[p.Bucket] = c
		}
		c.Add(float64(p.Elapsed.Milliseconds()))
	}
	return out
}

// ProbeCompletionFigure reproduces Figures 12 (10 KB), 13 (50 KB), or
// 14 (100 KB): CDFs of probe completion time grouped by destination RTT
// bucket, Riptide versus default, from a single sending PoP.
func ProbeCompletionFigure(fig int, s Scale) (Result, error) {
	size, ok := probeSizeForFigure[fig]
	if !ok {
		return Result{}, fmt.Errorf("experiments: figure %d is not a probe-completion figure", fig)
	}
	runs, err := runProbePair(s)
	if err != nil {
		return Result{}, err
	}
	return probeCompletionFromRuns(fig, size, runs)
}

func probeCompletionFromRuns(fig, size int, runs probeRuns) (Result, error) {
	res := Result{
		ID:    fmt.Sprintf("fig%d", fig),
		Title: fmt.Sprintf("Probe completion time CDFs, %dKB probes, by RTT bucket", size/1024),
	}
	src := senderPoPs[0]
	ctrl := filterProbes(runs.control, src, size, runs.warm)
	ript := filterProbes(runs.riptide, src, size, runs.warm)
	improvedBuckets := 0
	comparable := 0
	for _, b := range cdn.AllBuckets() {
		cc, rc := ctrl[b], ript[b]
		if cc == nil || rc == nil || cc.Len() == 0 || rc.Len() == 0 {
			continue
		}
		comparable++
		res.Series = append(res.Series,
			Series{Label: fmt.Sprintf("%s default", b), Points: cc.Curve(curvePoints)},
			Series{Label: fmt.Sprintf("%s riptide", b), Points: rc.Curve(curvePoints)},
		)
		cMed, err := cc.Median()
		if err != nil {
			return Result{}, err
		}
		rMed, err := rc.Median()
		if err != nil {
			return Result{}, err
		}
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
	allCtrl, allRipt := stats.NewCDF(512), stats.NewCDF(512)
	for _, c := range ctrl {
		allCtrl.AddAll(c.Samples())
	}
	for _, c := range ript {
		allRipt.AddAll(c.Samples())
	}
	if ks, err := stats.KolmogorovSmirnov(allCtrl, allRipt); err == nil {
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

// GainByPercentileFigure reproduces Figures 15 (50 KB) and 16 (100 KB):
// fraction of completion-time gain by percentile, in 5%% steps, for the
// European and North American sender PoPs.
func GainByPercentileFigure(fig int, s Scale) (Result, error) {
	var size int
	switch fig {
	case 15:
		size = 50 * 1024
	case 16:
		size = 100 * 1024
	default:
		return Result{}, fmt.Errorf("experiments: figure %d is not a gain-by-percentile figure", fig)
	}
	runs, err := runProbePair(s)
	if err != nil {
		return Result{}, err
	}
	return gainByPercentileFromRuns(fig, size, runs)
}

func gainByPercentileFromRuns(fig, size int, runs probeRuns) (Result, error) {
	res := Result{
		ID:    fmt.Sprintf("fig%d", fig),
		Title: fmt.Sprintf("Fraction of gain by percentile, %dKB probes", size/1024),
	}
	percentiles := stats.PercentileSteps(5, 95, 5)
	for _, src := range senderPoPs {
		ctrl, ript := stats.NewCDF(512), stats.NewCDF(512)
		for _, p := range runs.control {
			if p.Src == src && p.SizeBytes == size && p.At >= runs.warm {
				ctrl.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
		for _, p := range runs.riptide {
			if p.Src == src && p.SizeBytes == size && p.At >= runs.warm {
				ript.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
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
			if gains[i] > best {
				best = gains[i]
			}
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

// ProbeSuite runs the control/Riptide cluster pair once and derives every
// probe-based artefact from it: Figures 12–14 (completion CDFs), Figures
// 15–16 (gain by percentile), and the Section IV-D edge cases. Use this
// instead of the individual runners when generating a full report.
func ProbeSuite(s Scale) ([]Result, error) {
	runs, err := runProbePair(s)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, 6)
	for _, fig := range []int{12, 13, 14} {
		r, err := probeCompletionFromRuns(fig, probeSizeForFigure[fig], runs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	for fig, size := range map[int]int{15: 50 * 1024, 16: 100 * 1024} {
		r, err := gainByPercentileFromRuns(fig, size, runs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	edge, err := edgeCasesFromRuns(runs)
	if err != nil {
		return nil, err
	}
	out = append(out, edge)
	// Map iteration above may reorder 15/16; normalize by ID.
	sortResultsByID(out)
	return out, nil
}

func sortResultsByID(rs []Result) {
	order := map[string]int{"fig12": 1, "fig13": 2, "fig14": 3, "fig15": 4, "fig16": 5, "edge": 6}
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && order[rs[j].ID] < order[rs[j-1].ID]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// EdgeCases reproduces Section IV-D: best-case (minimum) probe times are
// essentially unchanged by Riptide; worst-case (maximum) times are noisy
// with no consistent trend.
func EdgeCases(s Scale) (Result, error) {
	runs, err := runProbePair(s)
	if err != nil {
		return Result{}, err
	}
	return edgeCasesFromRuns(runs)
}

func edgeCasesFromRuns(runs probeRuns) (Result, error) {
	const size = 100 * 1024
	type key struct{ src, dst string }
	minmax := func(records []cdn.ProbeRecord) (mins, maxs map[key]time.Duration) {
		mins = make(map[key]time.Duration)
		maxs = make(map[key]time.Duration)
		for _, p := range records {
			if p.SizeBytes != size || p.At < runs.warm {
				continue
			}
			// The paper's Section IV-D analyses the two vantage
			// PoPs, not the full mesh.
			if p.Src != senderPoPs[0] && p.Src != senderPoPs[1] {
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
		tbl.Rows = append(tbl.Rows, []string{
			k.src, k.dst,
			fmt.Sprintf("%+.1f", minChange),
			fmt.Sprintf("%+.1f", maxChange),
		})
	}
	if minTotal == 0 {
		return Result{}, fmt.Errorf("experiments: no destinations with both runs")
	}
	return Result{
		ID:     "edge",
		Title:  "Edge cases: best- and worst-case probe times (Section IV-D)",
		Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("%d/%d destinations show best-case change within ±5%% (paper: most unchanged)",
				minWithin5, minTotal),
		},
	}, nil
}

// Headline reproduces the abstract's summary numbers: the median live-cwnd
// increase and the tail-latency reduction for 50KB probes.
func Headline(s Scale) (Result, error) {
	s = s.withDefaults()
	organic := organicProfile(s.PoPs)

	collect := func(riptide bool) (*stats.CDF, []cdn.ProbeRecord, error) {
		cl, err := runCluster(s, cdn.RiptideOptions{Enabled: riptide}, organic, true)
		if err != nil {
			return nil, nil, err
		}
		cdf := stats.NewCDF(1024)
		for _, smp := range cl.CwndSamples() {
			if smp.OpenedAfterStart {
				cdf.Add(float64(smp.Cwnd))
			}
		}
		return cdf, cl.ProbeRecords(), nil
	}
	ctrlCwnd, ctrlProbes, err := collect(false)
	if err != nil {
		return Result{}, err
	}
	riptCwnd, riptProbes, err := collect(true)
	if err != nil {
		return Result{}, err
	}
	cm, err := ctrlCwnd.Median()
	if err != nil {
		return Result{}, err
	}
	rm, err := riptCwnd.Median()
	if err != nil {
		return Result{}, err
	}

	tail := func(records []cdn.ProbeRecord) (*stats.CDF, error) {
		c := stats.NewCDF(512)
		for _, p := range records {
			if p.SizeBytes == 50*1024 && p.At >= s.WarmUp {
				c.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
		if c.Len() == 0 {
			return nil, fmt.Errorf("experiments: no 50KB probes")
		}
		return c, nil
	}
	ct, err := tail(ctrlProbes)
	if err != nil {
		return Result{}, err
	}
	rt, err := tail(riptProbes)
	if err != nil {
		return Result{}, err
	}
	ct75, err := ct.Percentile(75)
	if err != nil {
		return Result{}, err
	}
	rt75, err := rt.Percentile(75)
	if err != nil {
		return Result{}, err
	}

	res := Result{ID: "headline", Title: "Headline results (abstract / Section IV)"}
	if cm > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("median live cwnd: control %.0f vs riptide %.0f (+%.0f%%; paper: +200%%)", cm, rm, 100*(rm-cm)/cm))
	}
	if ct75 > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("50KB probe p75: control %.0f ms vs riptide %.0f ms (-%.0f%%; paper: up to ~30%% at upper percentiles)",
				ct75, rt75, 100*(ct75-rt75)/ct75))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("kernel default initial window: %d segments", kernel.DefaultInitCwnd))
	return res, nil
}
