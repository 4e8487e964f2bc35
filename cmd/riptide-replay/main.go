// Command riptide-replay re-analyses measurement CSVs exported by
// riptide-sim without re-running any simulation: per-size and per-bucket
// completion summaries from a probe CSV, and window distributions from a
// cwnd CSV. It also compares two probe CSVs (control vs riptide) with a
// Kolmogorov–Smirnov test and percentile gains.
//
// riptide-sim's export mode writes the main run of one scenario file, so a
// control and a riptide CSV come from two files that differ only in
// fleet.riptide.enabled:
//
//	riptide-sim -probes-csv control.csv scenarios/<control>.yaml
//	riptide-sim -probes-csv riptide.csv scenarios/<file>.yaml
//	riptide-replay -probes riptide.csv -baseline control.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"riptide/internal/cdn"
	"riptide/internal/stats"
	"riptide/internal/trace"
	"riptide/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("riptide-replay", flag.ContinueOnError)
	var (
		probesPath   = fs.String("probes", "", "probe CSV to analyse")
		baselinePath = fs.String("baseline", "", "control probe CSV to compare against")
		cwndPath     = fs.String("cwnd", "", "cwnd-sample CSV to analyse")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *probesPath == "" && *cwndPath == "" {
		return fmt.Errorf("nothing to do: pass -probes and/or -cwnd")
	}

	if *probesPath != "" {
		probes, err := loadProbes(*probesPath)
		if err != nil {
			return err
		}
		if err := summarizeProbes(w, *probesPath, probes); err != nil {
			return err
		}
		if *baselinePath != "" {
			baseline, err := loadProbes(*baselinePath)
			if err != nil {
				return err
			}
			if err := compareProbes(w, baseline, probes); err != nil {
				return err
			}
		}
	}
	if *cwndPath != "" {
		if err := summarizeCwnd(w, *cwndPath); err != nil {
			return err
		}
	}
	return nil
}

func loadProbes(path string) ([]cdn.ProbeRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := trace.ReadProbes(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%s: no probe records", path)
	}
	return records, nil
}

func summarizeProbes(w io.Writer, path string, probes []cdn.ProbeRecord) error {
	fmt.Fprintf(w, "== %s: %d probes ==\n", path, len(probes))

	bySize := map[int]*stats.CDF{}
	byBucket := map[cdn.RTTBucket]*stats.CDF{}
	for _, p := range probes {
		c, ok := bySize[p.SizeBytes]
		if !ok {
			c = stats.NewCDF(256)
			bySize[p.SizeBytes] = c
		}
		c.Add(float64(p.Elapsed.Milliseconds()))
		b, ok := byBucket[p.Bucket]
		if !ok {
			b = stats.NewCDF(256)
			byBucket[p.Bucket] = b
		}
		b.Add(float64(p.Elapsed.Milliseconds()))
	}

	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, size := range sizes {
		sum, err := stats.Summarize(bySize[size])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  size %6dB: n=%-5d median=%.0fms p90=%.0fms max=%.0fms\n",
			size, sum.Count, sum.Median, sum.P90, sum.Max)
	}
	for _, bucket := range cdn.AllBuckets() {
		c, ok := byBucket[bucket]
		if !ok {
			continue
		}
		sum, err := stats.Summarize(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  bucket %-9s: n=%-5d median=%.0fms p90=%.0fms\n",
			bucket, sum.Count, sum.Median, sum.P90)
	}
	return nil
}

func compareProbes(w io.Writer, baseline, measured []cdn.ProbeRecord) error {
	fmt.Fprintln(w, "== comparison vs baseline ==")
	sizes := map[int]bool{}
	for _, p := range baseline {
		sizes[p.SizeBytes] = true
	}
	ordered := make([]int, 0, len(sizes))
	for s := range sizes {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)

	for _, size := range ordered {
		base, meas := stats.NewCDF(256), stats.NewCDF(256)
		for _, p := range baseline {
			if p.SizeBytes == size {
				base.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
		for _, p := range measured {
			if p.SizeBytes == size {
				meas.Add(float64(p.Elapsed.Milliseconds()))
			}
		}
		if base.Len() == 0 || meas.Len() == 0 {
			continue
		}
		ks, err := stats.KolmogorovSmirnov(base, meas)
		if err != nil {
			return err
		}
		ci, err := stats.BootstrapGainCI(base, meas, 75, 500, workload.NewRand(1))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  size %6dB: KS D=%.3f p=%.3g; p75 gain %.1f%% (95%% CI %.1f%%..%.1f%%)\n",
			size, ks.Statistic, ks.PValue, 100*ci.Gain, 100*ci.Lo, 100*ci.Hi)
	}
	return nil
}

func summarizeCwnd(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := trace.ReadCwndSamples(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no cwnd samples", path)
	}
	all := stats.NewCDF(len(samples))
	fresh := stats.NewCDF(len(samples))
	for _, s := range samples {
		all.Add(float64(s.Cwnd))
		if s.OpenedAfterStart {
			fresh.Add(float64(s.Cwnd))
		}
	}
	fmt.Fprintf(w, "== %s: %d cwnd samples ==\n", path, len(samples))
	sum, err := stats.Summarize(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  all connections:          median=%.0f p90=%.0f max=%.0f\n", sum.Median, sum.P90, sum.Max)
	if fresh.Len() > 0 {
		fs, err := stats.Summarize(fresh)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  opened after measurement: median=%.0f p90=%.0f max=%.0f (paper's population)\n",
			fs.Median, fs.P90, fs.Max)
	}
	return nil
}
