package netlink

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

// This file keeps an independent decoder of the same sockets the sampler
// reads: a parser for `ss -tin` text, the tool the paper's deployment
// sampled cwnd with, and a renderer producing that text from observations.
// TestBackendEquivalence serves one socket set to both — as text here and as
// an INET_DIAG dump through MemConn — and requires identical agents.

// ParseSS parses `ss -tin` output into observations. Sockets without a
// parsable peer address or cwnd are skipped; only ESTAB sockets are
// reported, since only established connections carry meaningful windows.
func ParseSS(out []byte) []core.Observation {
	var obs []core.Observation
	var cur core.Observation
	live := false
	for _, line := range strings.Split(string(out), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if line[0] != ' ' && line[0] != '\t' {
			// A socket line; ss indents the TCP info lines under it.
			if live && cur.Cwnd > 0 {
				obs = append(obs, cur)
			}
			live = false
			fields := strings.Fields(trimmed)
			if len(fields) < 5 || fields[0] != "ESTAB" {
				continue
			}
			peer, err := ssPeerAddr(fields[4])
			if err != nil {
				continue
			}
			cur = core.Observation{Dst: peer}
			live = true
			continue
		}
		if live {
			parseSSInfoLine(trimmed, &cur)
		}
	}
	if live && cur.Cwnd > 0 {
		obs = append(obs, cur)
	}
	return obs
}

// ssPeerAddr parses ss's ADDR:PORT rendering, handling IPv6 brackets and
// interface scopes.
func ssPeerAddr(s string) (netip.Addr, error) {
	idx := strings.LastIndex(s, ":")
	if idx <= 0 {
		return netip.Addr{}, fmt.Errorf("malformed address %q", s)
	}
	host := strings.TrimSuffix(strings.TrimPrefix(s[:idx], "["), "]")
	if pct := strings.IndexByte(host, '%'); pct >= 0 {
		host = host[:pct]
	}
	return netip.ParseAddr(host)
}

// parseSSInfoLine extracts cwnd, rtt, bytes_acked and the loss tokens
// (retrans, segs_out) from an ss TCP info line like the one below; other
// tokens, lost:N among them, are skipped:
//
//	cubic wscale:7,7 rto:204 rtt:1.5/0.75 mss:1448 cwnd:42 bytes_acked:123 segs_out:90 retrans:0/3 lost:1
//
// Missing or malformed fields stay zero.
func parseSSInfoLine(line string, o *core.Observation) {
	for _, tok := range strings.Fields(line) {
		key, val, ok := strings.Cut(tok, ":")
		if !ok {
			continue
		}
		switch key {
		case "cwnd":
			if v, err := strconv.Atoi(val); err == nil && v > 0 {
				o.Cwnd = v
			}
		case "rtt":
			// rtt:<srtt>/<rttvar> in milliseconds.
			srtt, _, _ := strings.Cut(val, "/")
			if v, err := strconv.ParseFloat(srtt, 64); err == nil && v >= 0 {
				o.RTT = time.Duration(v * float64(time.Millisecond))
			}
		case "bytes_acked":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil && v >= 0 {
				o.BytesAcked = v
			}
		case "retrans":
			// retrans:<inflight>/<total>; the cumulative total is the loss
			// signal. Older ss renders a bare count — accept both.
			_, total, slash := strings.Cut(val, "/")
			if !slash {
				total = val
			}
			if v, err := strconv.ParseInt(total, 10, 64); err == nil && v >= 0 {
				o.Retrans = v
			}
		case "segs_out":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil && v >= 0 {
				o.SegsOut = v
			}
		}
	}
}

// RenderSS renders observations as the `ss -tin` text ParseSS consumes —
// the inverse of ParseSS for the fields an Observation carries. IPv6 peers
// are bracketed, rtt is milliseconds as `srtt/rttvar`, retrans is
// `inflight/total`. RTTs with sub-microsecond components do not survive the
// decimal rendering exactly; fixtures wanting identical cross-decoder plans
// use whole-millisecond RTTs.
func RenderSS(obs []core.Observation) []byte {
	var b bytes.Buffer
	b.WriteString("State Recv-Q Send-Q Local Address:Port Peer Address:Port\n")
	for _, o := range obs {
		peer := o.Dst.String()
		if !o.Dst.Is4() {
			peer = "[" + peer + "]"
		}
		ms := float64(o.RTT.Microseconds()) / 1000
		fmt.Fprintf(&b, "ESTAB 0 0 10.0.0.5:44312 %s:443\n", peer)
		fmt.Fprintf(&b, "\t cubic wscale:7,7 rto:204 mss:1448 rtt:%s/%s cwnd:%d bytes_acked:%d segs_out:%d retrans:0/%d\n",
			strconv.FormatFloat(ms, 'g', -1, 64), strconv.FormatFloat(ms/2, 'g', -1, 64),
			o.Cwnd, o.BytesAcked, o.SegsOut, o.Retrans)
	}
	return b.Bytes()
}

// ssFixture is representative `ss -tin` output: header, IPv4 and IPv6
// established sockets with info lines, a listening socket, and a socket in
// TIME-WAIT that must be ignored.
const ssFixture = `State       Recv-Q Send-Q        Local Address:Port          Peer Address:Port
ESTAB       0      0                10.0.0.5:44312            10.0.0.127:443
	 cubic wscale:7,7 rto:204 rtt:1.5/0.75 ato:40 mss:1448 pmtu:1500 rcvmss:536 advmss:1448 cwnd:42 ssthresh:28 bytes_sent:81090 bytes_acked:81091 segs_out:63 segs_in:34 send 324Mbps lastsnd:4 lastrcv:4 lastack:4 pacing_rate 648Mbps delivery_rate 231Mbps delivered:64 app_limited busy:200ms rcv_space:14480 rcv_ssthresh:64088 minrtt:1.2
ESTAB       0      0           192.168.1.10:55000            203.0.113.9:8443
	 cubic rto:304 rtt:125.25/12.5 mss:1448 cwnd:80 bytes_acked:123456789 rcv_space:14480
TIME-WAIT   0      0                10.0.0.5:39000             10.0.0.88:443
ESTAB       0      0      [2001:db8::1]:4433            [2001:db8::2]:443
	 cubic rto:204 rtt:10/5 mss:1428 cwnd:20 bytes_acked:555
ESTAB       0      0                10.0.0.5:50000             10.0.0.99:443
LISTEN      0      128               0.0.0.0:22                  0.0.0.0:*
`

// lossySSFixture covers the loss-telemetry tokens a regressing path
// produces: retrans:<inflight>/<total>, segs_out:N and the skipped lost:N —
// including a reordered variant (loss tokens before cwnd, wrapped across
// lines), an older-ss bare retrans count, and a socket with no loss fields
// at all.
const lossySSFixture = `State       Recv-Q Send-Q        Local Address:Port          Peer Address:Port
ESTAB       0      0                10.0.0.5:44312            10.0.0.127:443
	 cubic wscale:7,7 rto:204 rtt:1.5/0.75 mss:1448 cwnd:42 bytes_acked:81091 segs_out:4096 segs_in:34 retrans:2/12 lost:3 rcv_space:14480
ESTAB       0      0                10.0.0.5:44313            10.0.0.128:443
	 cubic segs_out:900 retrans:0/7
	 lost:1 cwnd:30 rtt:2/1 bytes_acked:555
ESTAB       0      0                10.0.0.5:44314            10.0.0.129:443
	 cubic cwnd:20 retrans:5 rtt:3/1
ESTAB       0      0                10.0.0.5:44315            10.0.0.130:443
	 cubic cwnd:11 rtt:4/2 bytes_acked:77
`

// wrappedSSFixture exercises `ss -tin` output where one socket's TCP info is
// wrapped across several indented continuation lines (common on narrow
// terminals and some ss builds), interleaved with non-ESTAB sockets.
const wrappedSSFixture = `State       Recv-Q Send-Q        Local Address:Port          Peer Address:Port
ESTAB       0      0                10.0.0.5:44312            10.0.0.127:443
	 cubic wscale:7,7 rto:204 rtt:1.5/0.75 ato:40 mss:1448
	 cwnd:42 ssthresh:28 bytes_acked:81091
	 segs_out:63 segs_in:34 rcv_space:14480
SYN-SENT    0      1                10.0.0.5:39001             10.0.0.88:443
ESTAB       0      0      [fe80::1%eth0]:4433        [fe80::2%eth0]:443
	 cubic rto:204 rtt:10/5
	 mss:1428 cwnd:20
	 bytes_acked:555
CLOSE-WAIT  1      0                10.0.0.5:39002             10.0.0.89:443
	 cubic cwnd:99
`

func TestParseSS(t *testing.T) {
	obs := ParseSS([]byte(ssFixture))
	if len(obs) != 3 {
		t.Fatalf("parsed %d observations, want 3: %+v", len(obs), obs)
	}

	first := obs[0]
	if first.Dst != netip.MustParseAddr("10.0.0.127") {
		t.Errorf("dst = %v", first.Dst)
	}
	if first.Cwnd != 42 {
		t.Errorf("cwnd = %d, want 42", first.Cwnd)
	}
	if first.RTT != 1500*time.Microsecond {
		t.Errorf("rtt = %v, want 1.5ms", first.RTT)
	}
	if first.BytesAcked != 81091 {
		t.Errorf("bytes_acked = %d", first.BytesAcked)
	}

	second := obs[1]
	if second.Dst != netip.MustParseAddr("203.0.113.9") {
		t.Errorf("dst = %v", second.Dst)
	}
	if second.Cwnd != 80 || second.RTT != 125250*time.Microsecond {
		t.Errorf("second = %+v", second)
	}

	third := obs[2]
	if third.Dst != netip.MustParseAddr("2001:db8::2") {
		t.Errorf("ipv6 dst = %v", third.Dst)
	}
	if third.Cwnd != 20 {
		t.Errorf("ipv6 cwnd = %d", third.Cwnd)
	}
}

func TestParseSSSkipsNonEstablished(t *testing.T) {
	for _, o := range ParseSS([]byte(ssFixture)) {
		if o.Dst == netip.MustParseAddr("10.0.0.88") {
			t.Error("TIME-WAIT socket was parsed")
		}
	}
}

func TestParseSSEstabWithoutInfoSkipped(t *testing.T) {
	// 10.0.0.99 has no info line -> no cwnd -> must be skipped.
	for _, o := range ParseSS([]byte(ssFixture)) {
		if o.Dst == netip.MustParseAddr("10.0.0.99") {
			t.Error("socket without TCP info was parsed")
		}
	}
}

func TestParseSSEmpty(t *testing.T) {
	if obs := ParseSS(nil); len(obs) != 0 {
		t.Errorf("obs = %v", obs)
	}
}

func TestParseSSGarbage(t *testing.T) {
	if obs := ParseSS([]byte("complete\n\tgarbage:::\nnot ss output at all\n")); len(obs) != 0 {
		t.Errorf("garbage produced observations: %v", obs)
	}
}

func TestParseSSScopedIPv6(t *testing.T) {
	input := "ESTAB 0 0 [fe80::1%eth0]:22 [fe80::2%eth0]:443\n\t cubic rtt:5/2 cwnd:15 bytes_acked:10\n"
	obs := ParseSS([]byte(input))
	if len(obs) != 1 || obs[0].Dst != netip.MustParseAddr("fe80::2") {
		t.Errorf("obs = %+v", obs)
	}
}

func TestSplitHostPort(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"10.0.0.1:443", "10.0.0.1", false},
		{"[::1]:80", "::1", false},
		{"[fe80::1%eth0]:22", "fe80::1", false},
		{"nonsense", "", true},
		{":443", "", true},
		{"abc:def", "", true},
	}
	for _, tt := range tests {
		got, err := ssPeerAddr(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ssPeerAddr(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != netip.MustParseAddr(tt.want) {
			t.Errorf("ssPeerAddr(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseSSWrappedInfoLines(t *testing.T) {
	obs := ParseSS([]byte(wrappedSSFixture))
	if len(obs) != 2 {
		t.Fatalf("parsed %d observations, want 2: %+v", len(obs), obs)
	}
	first := obs[0]
	if first.Dst != netip.MustParseAddr("10.0.0.127") || first.Cwnd != 42 || first.BytesAcked != 81091 {
		t.Errorf("wrapped IPv4 socket = %+v", first)
	}
	if first.RTT != 1500*time.Microsecond {
		t.Errorf("rtt from first continuation line = %v", first.RTT)
	}
	second := obs[1]
	if second.Dst != netip.MustParseAddr("fe80::2") || second.Cwnd != 20 || second.BytesAcked != 555 {
		t.Errorf("zone-scoped IPv6 socket = %+v", second)
	}
	// The CLOSE-WAIT socket's info must not leak into an observation.
	for _, o := range obs {
		if o.Cwnd == 99 {
			t.Error("non-ESTAB socket's info line produced an observation")
		}
	}
}

func TestParseSSLossTelemetry(t *testing.T) {
	obs := ParseSS([]byte(lossySSFixture))
	if len(obs) != 4 {
		t.Fatalf("parsed %d observations, want 4: %+v", len(obs), obs)
	}

	// retrans:<inflight>/<total> — the cumulative total is the signal.
	first := obs[0]
	if first.Retrans != 12 || first.SegsOut != 4096 {
		t.Errorf("first = retrans %d segs_out %d, want 12/4096",
			first.Retrans, first.SegsOut)
	}

	// Reordered and line-wrapped tokens parse the same.
	second := obs[1]
	if second.Cwnd != 30 || second.Retrans != 7 || second.SegsOut != 900 {
		t.Errorf("reordered = %+v, want cwnd 30 retrans 7 segs_out 900", second)
	}

	// Older ss: bare retrans count without the slash.
	if third := obs[2]; third.Retrans != 5 {
		t.Errorf("bare retrans = %d, want 5", third.Retrans)
	}

	// Missing loss fields zero-fill.
	fourth := obs[3]
	if fourth.Retrans != 0 || fourth.SegsOut != 0 {
		t.Errorf("missing telemetry = %+v, want zero-filled", fourth)
	}
	if fourth.Cwnd != 11 {
		t.Errorf("cwnd = %d, want 11", fourth.Cwnd)
	}
}

func TestParseSSMalformedLossTokens(t *testing.T) {
	// Broken values must zero-fill, never panic or go negative.
	out := "ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n" +
		"\t cwnd:42 retrans:/ lost:-4 segs_out:1e9 retrans:x/y retrans:3/-8 lost:abc\n"
	obs := ParseSS([]byte(out))
	if len(obs) != 1 {
		t.Fatalf("parsed %d observations, want 1", len(obs))
	}
	if o := obs[0]; o.Retrans != 0 || o.SegsOut != 0 {
		t.Errorf("malformed tokens produced %+v, want zero-filled telemetry", o)
	}
}

func TestRenderSSRoundTrip(t *testing.T) {
	want := []core.Observation{
		{Dst: netip.MustParseAddr("10.1.2.3"), Cwnd: 42, RTT: 15 * time.Millisecond,
			BytesAcked: 123456, Retrans: 3, SegsOut: 900},
		{Dst: netip.MustParseAddr("::ffff:172.16.0.8"), Cwnd: 77, RTT: 30 * time.Millisecond,
			BytesAcked: 999, Retrans: 1, SegsOut: 50},
		{Dst: netip.MustParseAddr("2001:db8::5"), Cwnd: 33, RTT: 95 * time.Millisecond,
			BytesAcked: 4242, SegsOut: 777},
	}
	if got := ParseSS(RenderSS(want)); !reflect.DeepEqual(got, want) {
		t.Fatalf("render/parse round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRenderSSFractionalRTT(t *testing.T) {
	// Sub-millisecond RTTs render as decimal milliseconds and must survive
	// the round trip at microsecond granularity.
	want := []core.Observation{
		{Dst: netip.MustParseAddr("10.0.0.9"), Cwnd: 10, RTT: 1500 * time.Microsecond},
	}
	if got := ParseSS(RenderSS(want)); len(got) != 1 || got[0].RTT != want[0].RTT {
		t.Fatalf("fractional RTT mangled: got %+v want %+v", got, want)
	}
}

// FuzzParseSS exercises the ss parser with arbitrary input: it must never
// panic and never produce an observation without a valid destination and a
// positive window.
func FuzzParseSS(f *testing.F) {
	f.Add([]byte(ssFixture))
	f.Add([]byte(""))
	f.Add([]byte("ESTAB 0 0 1.2.3.4:1 5.6.7.8:2\n\t cwnd:"))
	f.Add([]byte("\t cubic cwnd:10\n"))
	f.Add([]byte("ESTAB 0 0 [::1]:1 [::2]:2\n\t rtt:-5/1 cwnd:-3 bytes_acked:x\n"))
	// Wrapped multi-line TCP info: attributes spread over several
	// indented continuation lines belonging to one socket.
	f.Add([]byte(wrappedSSFixture))
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t cubic rto:204 rtt:1.5/0.75\n\t mss:1448\n\t cwnd:42\n\t bytes_acked:81091\n"))
	// IPv6 zone-scoped peers.
	f.Add([]byte("ESTAB 0 0 [fe80::1%eth0]:22 [fe80::1%eth0]:443\n\t cwnd:15 rtt:5/2\n"))
	f.Add([]byte("ESTAB 0 0 [fe80::1%en0.123]:22 [fe80::2%br-lan]:443\n\t cwnd:7\n"))
	// Non-ESTAB interleavings: info-bearing sockets in other states mixed
	// between established ones must not contribute observations.
	f.Add([]byte("ESTAB 0 0 1.2.3.4:1 5.6.7.8:2\n\t cwnd:10\nTIME-WAIT 0 0 1.2.3.4:2 9.9.9.9:443\nESTAB 0 0 1.2.3.4:3 8.8.8.8:443\n\t cwnd:11\nSYN-SENT 0 1 1.2.3.4:4 7.7.7.7:443\n\t cwnd:99\nFIN-WAIT-1 0 0 1.2.3.4:5 6.6.6.6:443\n\t cwnd:98\n"))
	f.Add([]byte("LISTEN 0 128 0.0.0.0:22 0.0.0.0:*\nESTAB 0 0 10.0.0.5:1 10.0.0.6:443\nCLOSE-WAIT 1 0 10.0.0.5:2 10.0.0.7:443\n\t cwnd:5\n"))
	// Loss telemetry: retrans:<inflight>/<total>, lost:N, segs_out:N as
	// modern ss renders them.
	f.Add([]byte(lossySSFixture))
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t cubic cwnd:42 retrans:0/12 lost:3 segs_out:4096\n"))
	// Older ss renders a bare retransmit count without the slash.
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t cwnd:42 retrans:12\n"))
	// Reordered fields: loss tokens before cwnd, split across lines.
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t segs_out:900 retrans:2/7\n\t lost:1 cwnd:42 rtt:1.5/0.75\n"))
	// Malformed loss values must zero-fill, never panic.
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t cwnd:42 retrans:/ lost:-4 segs_out:1e9 retrans:x/y\n"))
	f.Add([]byte("ESTAB 0 0 10.0.0.5:1 10.0.0.6:443\n\t cwnd:42 retrans:9999999999999999999999/9999999999999999999999 lost:99999999999999999999\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, o := range ParseSS(data) {
			if !o.Dst.IsValid() {
				t.Fatalf("observation with invalid dst: %+v", o)
			}
			if o.Cwnd <= 0 {
				t.Fatalf("observation with non-positive cwnd: %+v", o)
			}
			if o.RTT < 0 || o.BytesAcked < 0 {
				t.Fatalf("observation with negative metric: %+v", o)
			}
			if o.Retrans < 0 || o.SegsOut < 0 {
				t.Fatalf("observation with negative loss telemetry: %+v", o)
			}
		}
	})
}
