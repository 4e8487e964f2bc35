// Package trace exports the reproduction's measurement records — probe
// completions and congestion-window samples — as CSV for external analysis
// (plotting the paper's figures with any tool). It writes only: the report
// does the statistics (KS tests, bootstrap intervals) in process.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/netip"
	"strconv"

	"riptide/internal/cdn"
)

// probeHeader is the CSV schema for probe records.
var probeHeader = []string{
	"src", "dst", "src_host", "dst_host", "size_bytes", "rtt_ms", "bucket",
	"elapsed_ms", "rounds", "initcwnd", "fresh_conn", "at_ms",
}

// WriteProbes writes probe records as CSV with a header row.
func WriteProbes(w io.Writer, records []cdn.ProbeRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(probeHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, r := range records {
		row := []string{
			r.Src,
			r.Dst,
			addrString(r.SrcHost),
			addrString(r.DstHost),
			strconv.Itoa(r.SizeBytes),
			strconv.FormatInt(r.RTT.Milliseconds(), 10),
			r.Bucket.String(),
			strconv.FormatInt(r.Elapsed.Milliseconds(), 10),
			strconv.Itoa(r.Rounds),
			strconv.Itoa(r.InitCwnd),
			strconv.FormatBool(r.FreshConn),
			strconv.FormatInt(r.At.Milliseconds(), 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// addrString renders an address, using "" for the zero value so files stay
// readable when host detail is absent.
func addrString(a netip.Addr) string {
	if !a.IsValid() {
		return ""
	}
	return a.String()
}

// cwndHeader is the CSV schema for window samples.
var cwndHeader = []string{"src", "host", "dst", "cwnd", "opened_after_start", "at_ms"}

// WriteCwndSamples writes window samples as CSV with a header row.
func WriteCwndSamples(w io.Writer, samples []cdn.CwndSample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(cwndHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, s := range samples {
		row := []string{
			s.Src,
			addrString(s.Host),
			s.Dst,
			strconv.Itoa(s.Cwnd),
			strconv.FormatBool(s.OpenedAfterStart),
			strconv.FormatInt(s.At.Milliseconds(), 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write sample %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
