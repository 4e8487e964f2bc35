package trace

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"riptide/internal/cdn"
)

func sampleProbes() []cdn.ProbeRecord {
	return []cdn.ProbeRecord{
		{
			Src: "lhr", Dst: "jfk",
			SrcHost: netip.MustParseAddr("10.1.0.1"), DstHost: netip.MustParseAddr("10.11.0.2"),
			SizeBytes: 51200,
			RTT:       80 * time.Millisecond, Bucket: cdn.BucketMedium,
			Elapsed: 320 * time.Millisecond, Rounds: 4, InitCwnd: 80,
			FreshConn: true, At: 5 * time.Minute,
		},
		{
			Src: "jfk", Dst: "nrt", SizeBytes: 102400,
			RTT: 190 * time.Millisecond, Bucket: cdn.BucketVeryFar,
			Elapsed: 380 * time.Millisecond, Rounds: 2, InitCwnd: 100,
			FreshConn: false, At: 6 * time.Minute,
		},
	}
}

const probeHeaderLine = "src,dst,src_host,dst_host,size_bytes,rtt_ms,bucket,elapsed_ms,rounds,initcwnd,fresh_conn,at_ms\n"

// TestWriteProbes pins the probe CSV byte for byte: the header, one column
// per field in header order, durations in whole milliseconds, the bucket's
// name, and an empty cell for an unset host address.
func TestWriteProbes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProbes(&buf, sampleProbes()); err != nil {
		t.Fatal(err)
	}
	want := probeHeaderLine +
		"lhr,jfk,10.1.0.1,10.11.0.2,51200,80," + cdn.BucketMedium.String() + ",320,4,80,true,300000\n" +
		"jfk,nrt,,,102400,190," + cdn.BucketVeryFar.String() + ",380,2,100,false,360000\n"
	if got := buf.String(); got != want {
		t.Errorf("probe CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteProbesQuoting pins CSV escaping: PoP labels with commas, quotes
// and newlines are quoted, with inner quotes doubled, so any CSV reader gets
// the labels back.
func TestWriteProbesQuoting(t *testing.T) {
	recs := []cdn.ProbeRecord{{
		Src: `lhr, "west"`, Dst: "jfk\nannex",
		RTT: 10 * time.Millisecond, Bucket: cdn.BucketFor(10 * time.Millisecond),
		At: time.Second,
	}}
	var buf bytes.Buffer
	if err := WriteProbes(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want := probeHeaderLine +
		`"lhr, ""west""","jfk` + "\n" + `annex",,,0,10,` + recs[0].Bucket.String() + ",0,0,0,false,1000\n"
	if got := buf.String(); got != want {
		t.Errorf("quoted probe CSV:\n%q\nwant:\n%q", got, want)
	}
}

// TestWriteProbesEmpty: no records is the header alone.
func TestWriteProbesEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProbes(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != probeHeaderLine {
		t.Errorf("empty export = %q, want the header alone", got)
	}
}

// TestWriteCwndSamples pins the window CSV byte for byte, an empty slice
// included.
func TestWriteCwndSamples(t *testing.T) {
	const header = "src,host,dst,cwnd,opened_after_start,at_ms\n"
	samples := []cdn.CwndSample{
		{Src: "lhr", Host: netip.MustParseAddr("10.1.0.1"), Dst: "10.11.0.1", Cwnd: 100, OpenedAfterStart: true, At: 3 * time.Minute},
		{Src: "gru", Dst: "10.1.0.1", Cwnd: 12, OpenedAfterStart: false, At: 4 * time.Minute},
		{Src: "a,b", Dst: `"x"`, Cwnd: 10, At: time.Millisecond},
	}
	for _, tc := range []struct {
		name    string
		samples []cdn.CwndSample
		want    string
	}{
		{"samples", samples, header +
			"lhr,10.1.0.1,10.11.0.1,100,true,180000\n" +
			"gru,,10.1.0.1,12,false,240000\n" +
			`"a,b",,"""x""",10,false,1` + "\n"},
		{"empty", nil, header},
	} {
		var buf bytes.Buffer
		if err := WriteCwndSamples(&buf, tc.samples); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: cwnd CSV:\n%q\nwant:\n%q", tc.name, got, tc.want)
		}
	}
}
