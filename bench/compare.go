package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; 0 for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), q(2))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// metricValues collects one metric's values over a report's runs of one
// workload and tier.
func metricValues(r report, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == trace {
			out = append(out, run.Metrics[metric].Value)
		}
	}
	return out
}

// verdict judges a new median against an old one. worse: it moved the wrong
// way by more than the bound. unresolved: either side's run-to-run spread is
// wider than the bound, so the medians cannot tell, unless every new run
// beats every old one.
func verdict(d metricDef, old, cur []float64) string {
	better := func(x, than float64) bool {
		if d.Better == "higher" {
			return x > than
		}
		return x < than
	}
	allBetter := true
	for _, c := range cur {
		for _, o := range old {
			allBetter = allBetter && better(c, o)
		}
	}
	limit := median(old) * (1 + d.Bound)
	if d.Better == "higher" {
		limit = median(old) * (1 - d.Bound)
	}
	switch {
	case (spread(old) > d.Bound || spread(cur) > d.Bound) && !allBetter:
		return "unresolved"
	case better(limit, median(cur)):
		return "worse"
	}
	return "ok"
}

// printComparison prints one row per workload and end-to-end metric — both
// medians, the ratio with its base, the bound and the verdict — then one row
// per exact count that the two reports measured on the same seed and rounds.
func printComparison(w io.Writer, old, cur report) error {
	fmt.Fprintf(w, "# compare: old commit=%s GOMAXPROCS=%d, new commit=%s GOMAXPROCS=%d\n",
		old.Provenance.Commit, old.Provenance.GOMAXPROCS, cur.Provenance.Commit, cur.Provenance.GOMAXPROCS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\tbound\truns\tverdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			o, c := metricValues(old, wl.Name, false, d.Name), metricValues(cur, wl.Name, false, d.Name)
			if len(o) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(d, o, c)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.3f of %.6g\t%s %.0f%%\t%d/%d\t%s\n",
				wl.Name, d.Name, median(o), median(c), d.Unit, ratio(median(c), median(o)), median(o),
				d.Better, 100*d.Bound, len(o), len(c), v)
		}
	}
	for _, wl := range workloads {
		for _, a := range old.Runs {
			for _, b := range cur.Runs {
				if !a.Trace || !b.Trace || a.Workload != wl.Name || b.Workload != wl.Name || a.Seed != b.Seed || a.Rounds != b.Rounds {
					continue
				}
				for _, d := range perLayer {
					if !d.Exact {
						continue
					}
					x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
					v := "same"
					if x != y {
						v = "differs"
						bad++
					}
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t\texact\tseed %d\t%s\n", wl.Name, d.Name, x, y, d.Unit, a.Seed, v)
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "# %d rows not ok\n", bad)
	return nil
}
