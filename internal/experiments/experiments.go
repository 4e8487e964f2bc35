// Package experiments reproduces every table and figure in the paper's
// evaluation. Each experiment returns a structured Result (series of CDF
// points and/or tables of rows) that the cmd/ tools render as text and the
// benchmark harness regenerates.
//
// Figures 1–6 come from the paper's closed-form transfer model over the
// published distributions. Figure 10 onward and the ablations are scenario
// files (scenarios/paper-*.yaml) that the scenario engine runs; this package
// only turns their runs' records into the figures (paper.go). The Section V
// extensions and the operational experiments are scenario files too, which
// Scenario renders.
package experiments

import (
	"fmt"
	"math"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/model"
	"riptide/internal/stats"
	"riptide/internal/workload"
)

// Series is one labelled curve (typically a CDF).
type Series struct {
	Label  string        `json:"label"`
	Points []stats.Point `json:"points"`
}

// Table is one labelled grid of rows.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Result is the output of one experiment.
type Result struct {
	// ID is the paper artefact this reproduces ("fig3", "table2", ...).
	ID string `json:"id"`
	// Title describes the artefact.
	Title  string   `json:"title"`
	Series []Series `json:"series,omitempty"`
	Tables []Table  `json:"tables,omitempty"`
	// Notes carry headline statistics for EXPERIMENTS.md ("median +X%").
	Notes []string `json:"notes,omitempty"`
}

// InitCwnds are the initial windows the paper's model figures sweep.
var InitCwnds = []int{10, 25, 50, 100}

// curvePoints is the resolution of rendered CDFs.
const curvePoints = 60

// Fig1Timeline renders the paper's Figure 1 illustration: a file one
// segment larger than the initial window needs a whole extra round trip.
func Fig1Timeline() (Result, error) {
	const fileBytes = 11 * workload.DefaultMSS // one segment over IW10
	timeline, err := model.RenderTimeline(fileBytes, 125*time.Millisecond, workload.DefaultMSS, 10, 11)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "fig1",
		Title: "A file larger than the initial congestion window needs an extra RTT",
		Notes: []string{timeline},
	}, nil
}

// Fig2FileSizes reproduces Figure 2: the CDF of object sizes in a
// production CDN, with the headline statistic that ~54% of files exceed the
// default 10-segment initial window.
func Fig2FileSizes(seed int64, n int) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("experiments: n %d must be >= 1", n)
	}
	rng := workload.NewRand(seed)
	sizes := workload.CDNFileSizes()
	c := stats.NewCDF(n)
	over := 0
	for i := 0; i < n; i++ {
		v := sizes.Sample(rng)
		c.Add(v)
		if v > float64(workload.DefaultIWBytes) {
			over++
		}
	}
	frac := float64(over) / float64(n)
	return Result{
		ID:     "fig2",
		Title:  "Distribution of file size in a production CDN",
		Series: []Series{{Label: "file size (bytes)", Points: logCurve(c, curvePoints)}},
		Notes: []string{
			fmt.Sprintf("%.1f%% of files exceed the default initial window (%d bytes); paper reports 54%%",
				100*frac, workload.DefaultIWBytes),
		},
	}, nil
}

// Fig3RTTsCDF reproduces Figure 3: the CDF of round trips needed to deliver
// the Figure 2 size mix for initcwnd 10/25/50/100, assuming the paper's
// lossless model.
func Fig3RTTsCDF(seed int64, n int) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("experiments: n %d must be >= 1", n)
	}
	rng := workload.NewRand(seed)
	sizes := workload.CDNFileSizes()
	files := make([]int64, n)
	for i := range files {
		files[i] = int64(sizes.Sample(rng))
	}

	res := Result{ID: "fig3", Title: "RTTs needed to transfer files of various sizes (lossless model)"}
	firstRTT := make(map[int]float64, len(InitCwnds))
	for _, iw := range InitCwnds {
		p := model.Params{MSS: workload.DefaultMSS, InitCwnd: iw}
		c := stats.NewCDF(n)
		ones := 0
		for _, f := range files {
			rtts, err := model.RTTsToComplete(f, p)
			if err != nil {
				return Result{}, err
			}
			c.Add(float64(rtts))
			if rtts <= 1 {
				ones++
			}
		}
		firstRTT[iw] = float64(ones) / float64(n)
		res.Series = append(res.Series, Series{
			Label:  fmt.Sprintf("initcwnd %d", iw),
			Points: c.Curve(curvePoints),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("first-RTT completion: IW10 %.1f%%, IW25 %.1f%%, IW50 %.1f%%, IW100 %.1f%%",
			100*firstRTT[10], 100*firstRTT[25], 100*firstRTT[50], 100*firstRTT[100]),
		fmt.Sprintf("IW50 completes %.1f%% more files in one RTT than IW10 (paper: ~31%%)",
			100*(firstRTT[50]-firstRTT[10])),
		fmt.Sprintf("IW100 leaves %.1f%% needing more than one RTT (paper: ~15%%)",
			100*(1-firstRTT[100])))
	return res, nil
}

// Fig4SizeSteps are the file sizes swept in Figure 4.
func Fig4SizeSteps() []int64 {
	var out []int64
	for kb := int64(1); kb <= 4096; {
		out = append(out, kb*1024)
		switch {
		case kb < 64:
			kb += 3
		case kb < 512:
			kb += 16
		default:
			kb += 128
		}
	}
	return out
}

// Fig4TheoreticalGain reproduces Figure 4: percentage reduction in RTTs
// versus the default window for initcwnd 25/50/100 across file sizes,
// showing the gains concentrate between 15 KB and ~1 MB.
func Fig4TheoreticalGain() (Result, error) {
	res := Result{ID: "fig4", Title: "Theoretical gain (reduction in RTTs) vs initcwnd 10"}
	sizes := Fig4SizeSteps()
	for _, iw := range []int{25, 50, 100} {
		pts := make([]stats.Point, 0, len(sizes))
		for _, sz := range sizes {
			g, err := model.Gain(sz, workload.DefaultMSS, 10, iw)
			if err != nil {
				return Result{}, err
			}
			pts = append(pts, stats.Point{X: float64(sz), Y: g})
		}
		res.Series = append(res.Series, Series{Label: fmt.Sprintf("initcwnd %d", iw), Points: pts})
	}

	// Locate the gain band for the notes.
	g100at100KB, err := model.Gain(100*1024, workload.DefaultMSS, 10, 100)
	if err != nil {
		return Result{}, err
	}
	g100at10KB, err := model.Gain(10*1024, workload.DefaultMSS, 10, 100)
	if err != nil {
		return Result{}, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("gain at 10KB: %.0f%% (below default window, no benefit)", 100*g100at10KB),
		fmt.Sprintf("gain at 100KB with IW100: %.0f%% (inside the 15KB-1MB band)", 100*g100at100KB))
	return res, nil
}

// Fig5RTTDistribution reproduces Figure 5: the CDF of RTTs between the
// deployment's datacenters, median above 125 ms.
func Fig5RTTDistribution(pops []cdn.PoP) (Result, error) {
	if len(pops) == 0 {
		pops = cdn.DefaultTopology()
	}
	if len(pops) < 2 {
		return Result{}, fmt.Errorf("experiments: need >= 2 PoPs")
	}
	rtts := cdn.PairRTTs(pops)
	c := stats.NewCDF(len(rtts))
	for _, r := range rtts {
		c.Add(float64(r.Milliseconds()))
	}
	med, err := c.Median()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "fig5",
		Title:  "RTT variation between globally deployed datacenters",
		Series: []Series{{Label: "inter-PoP RTT (ms)", Points: c.Curve(curvePoints)}},
		Notes: []string{
			fmt.Sprintf("median inter-PoP RTT %.0f ms; paper reports 50%% of links > 125 ms", med),
		},
	}, nil
}

// Fig6TransferTime reproduces Figure 6: total transfer time for a 100 KB
// file across the Figure 5 RTT distribution for each initcwnd.
func Fig6TransferTime(pops []cdn.PoP) (Result, error) {
	if len(pops) == 0 {
		pops = cdn.DefaultTopology()
	}
	rtts := cdn.PairRTTs(pops)
	if len(rtts) == 0 {
		return Result{}, fmt.Errorf("experiments: need >= 2 PoPs")
	}
	const fileBytes = 100 * 1024
	res := Result{ID: "fig6", Title: "Total transfer time for a 100KB file over different initcwnds"}
	curves := make(map[int]*stats.CDF, len(InitCwnds))
	for _, iw := range InitCwnds {
		p := model.Params{MSS: workload.DefaultMSS, InitCwnd: iw}
		c := stats.NewCDF(len(rtts))
		for _, rtt := range rtts {
			d, err := model.TransferTime(fileBytes, rtt, p, false)
			if err != nil {
				return Result{}, err
			}
			c.Add(float64(d.Milliseconds()))
		}
		curves[iw] = c
		res.Series = append(res.Series, Series{
			Label:  fmt.Sprintf("initcwnd %d", iw),
			Points: c.Curve(curvePoints),
		})
	}
	med10, err := curves[10].Median()
	if err != nil {
		return Result{}, err
	}
	med100, err := curves[100].Median()
	if err != nil {
		return Result{}, err
	}
	p90of10, err := curves[10].Percentile(90)
	if err != nil {
		return Result{}, err
	}
	p90of100, err := curves[100].Percentile(90)
	if err != nil {
		return Result{}, err
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("median transfer: IW10 %.0f ms vs IW100 %.0f ms (+%.0f ms; paper: ~280 ms)",
			med10, med100, med10-med100),
		fmt.Sprintf("p90 transfer: IW10 %.0f ms vs IW100 %.0f ms (+%.0f ms, %.0f%%; paper: ~290 ms, ~100%%)",
			p90of10, p90of100, p90of10-p90of100, 100*(p90of10-p90of100)/p90of100))
	return res, nil
}

// Table2Census reproduces Table II: PoPs per continent.
func Table2Census(pops []cdn.PoP) Result {
	if len(pops) == 0 {
		pops = cdn.DefaultTopology()
	}
	census := cdn.Census(pops)
	order := []cdn.Continent{cdn.Europe, cdn.NorthAmerica, cdn.SouthAmerica, cdn.Asia, cdn.Oceania}
	tbl := Table{Title: "CDN PoPs with Riptide deployed", Header: []string{"Continent", "PoP Count"}}
	total := 0
	for _, cont := range order {
		tbl.Rows = append(tbl.Rows, []string{cont.String(), fmt.Sprintf("%d", census[cont])})
		total += census[cont]
	}
	return Result{
		ID:     "table2",
		Title:  "CDN PoPs with Riptide deployed (Table II)",
		Tables: []Table{tbl},
		Notes:  []string{fmt.Sprintf("%d PoPs total (paper: 34)", total)},
	}
}

// logCurve renders a CDF against log-spaced X values, which reads better
// for heavy-tailed size distributions.
func logCurve(c *stats.CDF, n int) []stats.Point {
	if c.Len() == 0 || n < 2 {
		return nil
	}
	lo, err := c.Min()
	if err != nil {
		return nil
	}
	hi, err := c.Max()
	if err != nil {
		return nil
	}
	if lo <= 0 {
		lo = 1
	}
	pts := make([]stats.Point, 0, n)
	ratio := hi / lo
	for i := 0; i < n; i++ {
		x := lo * math.Pow(ratio, float64(i)/float64(n-1))
		pts = append(pts, stats.Point{X: x, Y: c.At(x)})
	}
	return pts
}
