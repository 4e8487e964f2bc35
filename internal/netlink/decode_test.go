package netlink

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"riptide/internal/core"
)

// refParseInetDiagMsg is the by-value decoder ParseDiagDump used before it
// decoded in place, kept as the differential reference: it builds each
// observation in a fresh zero value, so it cannot see what a pooled slot
// held before.
func refParseInetDiagMsg(msg []byte) (core.Observation, bool) {
	var o core.Observation
	if len(msg) < diagMsgLen {
		return o, false
	}
	if msg[1] != tcpEstablished {
		return o, false
	}
	switch msg[0] {
	case afInet:
		o.Dst = netip.AddrFrom4([4]byte(msg[24:28]))
	case afInet6:
		o.Dst = netip.AddrFrom16([16]byte(msg[24:40]))
	default:
		return o, false
	}
	attrs := msg[diagMsgLen:]
	for off := 0; off+4 <= len(attrs); {
		alen := int(ne.Uint16(attrs[off:]))
		typ := ne.Uint16(attrs[off+2:])
		if alen < 4 || off+alen > len(attrs) {
			break
		}
		if typ == inetDiagInfo {
			applyTCPInfo(&o, attrs[off+4:off+alen])
		}
		off += nlaAlign(alen)
	}
	if o.Cwnd <= 0 {
		return o, false
	}
	return o, true
}

// refParseDiagDump is ParseDiagDump's walk (any sequence number accepted)
// over refParseInetDiagMsg.
func refParseDiagDump(data []byte) (obs []core.Observation, done bool, err error) {
	for len(data) >= nlHdrLen {
		mlen := int(ne.Uint32(data))
		if mlen < nlHdrLen || mlen > len(data) {
			break
		}
		typ, payload := ne.Uint16(data[4:]), data[nlHdrLen:mlen]
		data = data[min(nlaAlign(mlen), len(data)):]
		switch typ {
		case nlmsgDone:
			return obs, true, nil
		case nlmsgError:
			if len(payload) < 4 || decodeAckErrno(payload) != 0 {
				return obs, true, errRefDump
			}
		case sockDiagByFamily:
			if o, ok := refParseInetDiagMsg(payload); ok {
				obs = append(obs, o)
			}
		}
	}
	return obs, false, nil
}

// errRefDump stands for any NLMSG_ERROR outcome: only nil-ness is compared.
var errRefDump = errors.New("ref: sock_diag dump error")

// poison is what a pooled slot may hold when the decoder reaches it: the
// observation of two rounds ago, every field non-zero.
var poison = core.Observation{
	Dst:        netip.MustParseAddr("2001:db8:dead:beef::bad"),
	Cwnd:       0x5a5a,
	RTT:        0x5a5a * time.Microsecond,
	BytesAcked: 0x5a5a5a5a,
	Retrans:    0x5a5a,
	SegsOut:    0x5a5a,
}

// poisoned returns a buffer of length n and capacity c, every slot up to the
// capacity holding the poison observation.
func poisoned(n, c int) []core.Observation {
	buf := make([]core.Observation, c)
	for i := range buf {
		buf[i] = poison
	}
	return buf[:n]
}

// encodeDiagMsgRaw appends one SOCK_DIAG_BY_FAMILY message for an IPv4 peer
// with the given socket state and raw tcp_info payload.
func encodeDiagMsgRaw(b []byte, dst [4]byte, state uint8, ti []byte) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+diagMsgLen]...)
	msg := b[start+nlHdrLen:]
	msg[0] = afInet
	msg[1] = state
	copy(msg[24:], dst[:])
	b = appendAttr(b, inetDiagInfo, ti)
	putNlHdr(b[start:], len(b)-start, sockDiagByFamily, nlmFMulti, 0)
	return b
}

func TestParseDiagDumpRejectsShrinkBack(t *testing.T) {
	// accept / reject (SYN_SENT) / reject (cwnd 0) / accept: a message
	// rejected after a partial decode must not lengthen the result, and the
	// accept that follows must land in the slot the reject gave back.
	info := func(cwnd uint32) []byte {
		ti := make([]byte, tcpInfoLen)
		ne.PutUint32(ti[tcpiSndCwndOff:], cwnd)
		return ti
	}
	const tcpSynSent = 2
	var data []byte
	data = encodeDiagMsgRaw(data, [4]byte{10, 0, 0, 1}, tcpEstablished, info(11))
	data = encodeDiagMsgRaw(data, [4]byte{10, 0, 0, 2}, tcpSynSent, info(12))
	data = encodeDiagMsgRaw(data, [4]byte{10, 0, 0, 3}, tcpEstablished, info(0))
	data = encodeDiagMsgRaw(data, [4]byte{10, 0, 0, 4}, tcpEstablished, info(14))
	for _, c := range []int{8, 3, 1, 0} {
		start := min(c, 1)
		obs, _, err := ParseDiagDump(poisoned(start, c), data, 0)
		if err != nil {
			t.Fatalf("cap %d: %v", c, err)
		}
		if len(obs) != start+2 {
			t.Fatalf("cap %d: got %d observations, want %d: %+v", c, len(obs), start+2, obs)
		}
		if start == 1 && obs[0] != poison {
			t.Fatalf("cap %d: element below the starting length was touched: %+v", c, obs[0])
		}
		got := obs[start:]
		if got[0].Dst != netip.MustParseAddr("10.0.0.1") || got[0].Cwnd != 11 ||
			got[1].Dst != netip.MustParseAddr("10.0.0.4") || got[1].Cwnd != 14 {
			t.Fatalf("cap %d: wrong survivors: %+v", c, got)
		}
	}
}

// BenchmarkParseDiagDump decodes one full IPv4 dump at the bench rig's
// steady-100k size, encoded once exactly as MemConn serves it (≈32 KiB
// datagrams), into a reused buffer — the decode leg of a steady-state sample
// without the fixture's copy-out.
func BenchmarkParseDiagDump(b *testing.B) {
	const parseDumpSockets = 100_000
	mem := &MemConn{Sockets: syntheticSockets(parseDumpSockets)}
	mem.ensureDumps()
	datagrams := mem.dumps[afInet]
	buf := make([]core.Observation, 0, parseDumpSockets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, d := range datagrams {
			var err error
			if buf, _, err = ParseDiagDump(buf, d, 0); err != nil {
				b.Fatal(err)
			}
		}
		if len(buf) != parseDumpSockets {
			b.Fatalf("decoded %d of %d sockets", len(buf), parseDumpSockets)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/parseDumpSockets, "ns/socket")
}
