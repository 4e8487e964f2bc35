package netlink

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"riptide/internal/core"
)

// diagDumpSeed encodes a well-formed sock_diag dump datagram for seeding.
func diagDumpSeed() []byte {
	var b []byte
	for _, o := range []core.Observation{
		{Dst: netip.MustParseAddr("10.1.2.3"), Cwnd: 42, RTT: 15 * time.Millisecond, BytesAcked: 9000, Retrans: 2, SegsOut: 300},
		{Dst: netip.MustParseAddr("2001:db8::7"), Cwnd: 18, RTT: 40 * time.Millisecond, BytesAcked: 777, SegsOut: 12},
	} {
		b = encodeDiagMsg(b, &o)
	}
	return b
}

// routeMsgSeed encodes a well-formed route-programming batch for seeding.
func routeMsgSeed() []byte {
	w := routeWire{gw: netip.MustParseAddr("10.0.0.1"), oif: 3, initRwnd: true, table: rtTableMain}
	b := appendRouteReq(nil, core.RouteOp{Prefix: netip.MustParsePrefix("10.9.0.0/24"), Window: 40}, &w, 7)
	b = appendRouteReq(b, core.RouteOp{Prefix: netip.MustParsePrefix("2001:db8::/64"), Window: 12}, &w, 8)
	return appendRouteReq(b, core.RouteOp{Prefix: netip.MustParsePrefix("10.9.1.1/32"), Clear: true}, &w, 9)
}

// truncations returns progressively truncated copies of data, cutting
// through headers, fixed structs, and attributes.
func truncations(data []byte) [][]byte {
	cuts := [][]byte{}
	for _, n := range []int{1, nlHdrLen - 1, nlHdrLen, nlHdrLen + 3, nlHdrLen + diagMsgLen - 1, len(data) / 2, len(data) - 1} {
		if n >= 0 && n < len(data) {
			cuts = append(cuts, data[:n])
		}
	}
	return cuts
}

// FuzzParseInetDiagMsg exercises the sock_diag dump decoder with arbitrary
// byte streams: it must never panic, and every observation it does produce
// must carry a valid destination, a positive window, and non-negative
// telemetry — the same invariants the ss text parser is fuzzed for. It is
// also a differential over the decoder's in-place hazards: each input is
// decoded into nil, into a poisoned buffer with spare capacity, and into a
// poisoned buffer that is full (so the growth path runs mid-datagram); all
// three must equal what the by-value reference decoder produces, and the
// elements the buffers already held must come back untouched.
func FuzzParseInetDiagMsg(f *testing.F) {
	seed := diagDumpSeed()
	f.Add(seed)
	f.Add([]byte{})
	for _, cut := range truncations(seed) {
		f.Add(cut)
	}
	// Bad attribute length: claims more than the message holds.
	bad := append([]byte(nil), seed...)
	if len(bad) > nlHdrLen+diagMsgLen+2 {
		ne.PutUint16(bad[nlHdrLen+diagMsgLen:], 0xffff)
	}
	f.Add(bad)
	// Zero-length attribute: must not loop forever.
	loop := append([]byte(nil), seed...)
	if len(loop) > nlHdrLen+diagMsgLen+2 {
		ne.PutUint16(loop[nlHdrLen+diagMsgLen:], 0)
	}
	f.Add(loop)
	// Message length lies beyond the datagram.
	lying := append([]byte(nil), seed...)
	ne.PutUint32(lying, uint32(len(lying)+100))
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, done, err := ParseDiagDump(nil, data, 0)
		want, wantDone, wantErr := refParseDiagDump(data)
		if done != wantDone || (err != nil) != (wantErr != nil) {
			t.Fatalf("walk diverged from reference: done %v err %v, want done %v err %v", done, err, wantDone, wantErr)
		}
		if !slices.Equal(obs, want) {
			t.Fatalf("decode into nil diverged from reference:\n got %+v\nwant %+v", obs, want)
		}
		const held = 3
		for _, c := range []int{held + 64, held} {
			got, _, _ := ParseDiagDump(poisoned(held, c), data, 0)
			if !slices.Equal(got[:held], poisoned(held, held)) {
				t.Fatalf("cap %d: held elements were touched: %+v", c, got[:held])
			}
			if !slices.Equal(got[held:], want) {
				t.Fatalf("cap %d: decode into a poisoned buffer diverged from reference:\n got %+v\nwant %+v", c, got[held:], want)
			}
		}
		if err != nil {
			return // NLMSG_ERROR decoding is a legitimate outcome
		}
		for _, o := range obs {
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

// FuzzParseRouteMsg exercises the route-message decoder (including the
// nested RTA_METRICS walk) with arbitrary byte streams via ParseRouteDump:
// no panics, and every decoded route must be structurally valid.
func FuzzParseRouteMsg(f *testing.F) {
	seed := routeMsgSeed()
	f.Add(seed)
	f.Add([]byte{})
	for _, cut := range truncations(seed) {
		f.Add(cut)
	}
	// Corrupt the nested RTA_METRICS lengths.
	for _, off := range []int{nlHdrLen + rtMsgLen, nlHdrLen + rtMsgLen + 8, len(seed) - 8} {
		if off >= 0 && off+2 <= len(seed) {
			bad := append([]byte(nil), seed...)
			ne.PutUint16(bad[off:], 0xfff0)
			f.Add(bad)
		}
	}
	// dst_len beyond the family's bit length must be rejected.
	badLen := append([]byte(nil), seed...)
	if len(badLen) > nlHdrLen+1 {
		badLen[nlHdrLen+1] = 200
	}
	f.Add(badLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		// ParseRouteDump only decodes RTM_NEWROUTE messages; rewrite route
		// message types so fuzzed RTM_DELROUTE-shaped inputs are walked too.
		mutated := append([]byte(nil), data...)
		for b := mutated; len(b) >= nlHdrLen; {
			mlen := int(ne.Uint32(b))
			if typ := ne.Uint16(b[4:]); typ == rtmDelRoute {
				ne.PutUint16(b[4:], rtmNewRoute)
			}
			if mlen < nlHdrLen || nlaAlign(mlen) > len(b) {
				break
			}
			b = b[nlaAlign(mlen):]
		}
		routes, _, err := ParseRouteDump(nil, mutated, 0)
		if err != nil {
			return
		}
		for _, rt := range routes {
			if !rt.Prefix.IsValid() {
				t.Fatalf("route with invalid prefix: %+v", rt)
			}
			if rt.InitCwnd < 0 || rt.InitRwnd < 0 {
				t.Fatalf("route with negative metric: %+v", rt)
			}
			if rt.OIF < 0 || rt.Table < 0 {
				t.Fatalf("route with negative selector: %+v", rt)
			}
		}
	})
}
