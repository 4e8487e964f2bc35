// Package netlink is the Linux backend for the Riptide agent: it
// implements core.ConnectionSampler and core.BatchRouteProgrammer by
// speaking the kernel's wire protocols directly — NETLINK_SOCK_DIAG
// (INET_DIAG dump requests carrying tcp_info attributes) for the connection
// table, and NETLINK_ROUTE (RTM_NEWROUTE / RTM_DELROUTE with RTAX_INITCWND
// under RTA_METRICS) for route programming — with no fork/exec and no text
// parsing on the agent hot path. `ss -tin` and `ip route`, the tools the
// paper's deployment used, are clients of these same interfaces: they
// render exactly the kernel state this package reads and writes in binary.
//
// The package splits at the syscall boundary: everything above Conn — the
// wire codec, Sampler, Routes, and the MemConn in-memory kernel — is
// portable Go that builds and tests on every GOOS, while Dial
// (conn_linux.go) is the only Linux-gated file; the non-Linux stub returns
// errors.ErrUnsupported. Wire constants are Linux ABI values written out
// literally, not syscall-package constants, for the same reason:
// syscall.AF_INET6 is 30 on darwin but the wire value is always 10.
//
// Encoding and decoding are hand-rolled over pooled buffers in the
// kernel's native byte order (netlink is a host-endian protocol): a
// steady-state SampleConnections performs no allocations beyond the
// caller's observation buffer, matching the agent's append-into-buffer
// sampler contract.
package netlink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"time"

	"riptide/internal/core"
)

// ne is the wire byte order: netlink messages are encoded in the byte order
// of the kernel the socket talks to, i.e. the host's.
var ne = binary.NativeEndian

// Netlink protocol numbers (socket(AF_NETLINK, SOCK_RAW, proto)).
const (
	// ProtoRoute is NETLINK_ROUTE: route programming and route dumps.
	ProtoRoute = 0
	// ProtoSockDiag is NETLINK_SOCK_DIAG: socket-table dumps.
	ProtoSockDiag = 4
)

// Linux ABI constants used on the wire. Kept literal so the codec is
// byte-exact when cross-compiled from any GOOS.
const (
	afInet  = 2  // AF_INET
	afInet6 = 10 // AF_INET6

	ipprotoTCP = 6

	// netlink message types
	nlmsgNoop  = 1
	nlmsgError = 2
	nlmsgDone  = 3

	sockDiagByFamily = 20 // SOCK_DIAG_BY_FAMILY

	rtmNewRoute = 24
	rtmDelRoute = 25
	rtmGetRoute = 26

	// nlmsghdr flags
	nlmFRequest  = 0x1
	nlmFMulti    = 0x2
	nlmFAck      = 0x4
	nlmFDumpIntr = 0x10
	nlmFRoot     = 0x100
	nlmFMatch    = 0x200
	nlmFDump     = nlmFRoot | nlmFMatch
	nlmFReplace  = 0x100
	nlmFCreate   = 0x400

	// inet_diag request extensions and attributes
	inetDiagInfo = 2 // INET_DIAG_INFO: struct tcp_info payload

	tcpEstablished = 1 // TCP_ESTABLISHED

	// rtmsg fields
	rtprotStatic    = 4
	rtTableMain     = 254
	rtScopeUniverse = 0
	rtScopeLink     = 253
	rtScopeNowhere  = 255
	rtnUnicast      = 1

	// route attributes
	rtaDst     = 1
	rtaOif     = 4
	rtaGateway = 5
	rtaMetrics = 8
	rtaTable   = 15

	// RTA_METRICS nested attributes
	rtaxInitCwnd = 11
	rtaxInitRwnd = 14
)

// Fixed structure sizes.
const (
	nlHdrLen   = 16  // struct nlmsghdr
	diagReqLen = 56  // struct inet_diag_req_v2
	diagMsgLen = 72  // struct inet_diag_msg
	rtMsgLen   = 12  // struct rtmsg
	tcpInfoLen = 144 // struct tcp_info through tcpi_segs_in
)

// tcp_info field offsets (include/uapi/linux/tcp.h). Only the fields the
// Observation carries; decoding tolerates shorter (older-kernel) payloads by
// leaving the missing fields zero.
const (
	tcpiRttOff          = 68  // __u32 tcpi_rtt (microseconds)
	tcpiSndCwndOff      = 80  // __u32 tcpi_snd_cwnd
	tcpiTotalRetransOff = 100 // __u32 tcpi_total_retrans
	tcpiBytesAckedOff   = 120 // __u64 tcpi_bytes_acked
	tcpiSegsOutOff      = 136 // __u32 tcpi_segs_out
)

// zeros backs zero-filling appends without per-call allocation.
var zeros [nlHdrLen + tcpInfoLen]byte

// nlaAlign rounds n up to the 4-byte netlink alignment (NLMSG_ALIGN and
// RTA_ALIGN are both 4).
func nlaAlign(n int) int { return (n + 3) &^ 3 }

// Errno is a Linux errno carried in an NLMSG_ERROR ack. It is its own type
// (rather than syscall.Errno) because NLMSG_ERROR always carries Linux ABI
// numbers, even when this code is compiled for another GOOS where the
// syscall package assigns those numbers different meanings.
type Errno int32

// Linux errno values the probes and tests distinguish.
const (
	EPERM  Errno = 1
	ENOENT Errno = 2
	ESRCH  Errno = 3
	EACCES Errno = 13
	EEXIST Errno = 17
	EINVAL Errno = 22
)

// Error implements error.
func (e Errno) Error() string {
	switch e {
	case EPERM:
		return "operation not permitted (EPERM)"
	case ENOENT:
		return "no such file or directory (ENOENT)"
	case ESRCH:
		return "no such process (ESRCH)"
	case EACCES:
		return "permission denied (EACCES)"
	case EEXIST:
		return "file exists (EEXIST)"
	case EINVAL:
		return "invalid argument (EINVAL)"
	}
	return fmt.Sprintf("errno %d", int32(e))
}

// putNlHdr writes a complete nlmsghdr into b[0:16].
func putNlHdr(b []byte, length int, typ, flags uint16, seq uint32) {
	ne.PutUint32(b, uint32(length))
	ne.PutUint16(b[4:], typ)
	ne.PutUint16(b[6:], flags)
	ne.PutUint32(b[8:], seq)
	ne.PutUint32(b[12:], 0) // pid: kernel-addressed
}

// appendAttr appends one rtattr/nlattr with the given payload, padded to
// alignment.
func appendAttr(b []byte, typ uint16, payload []byte) []byte {
	alen := 4 + len(payload)
	var hdr [4]byte
	ne.PutUint16(hdr[:], uint16(alen))
	ne.PutUint16(hdr[2:], typ)
	b = append(b, hdr[:]...)
	b = append(b, payload...)
	if pad := nlaAlign(alen) - alen; pad > 0 {
		b = append(b, zeros[:pad]...)
	}
	return b
}

// appendAttrU32 appends one u32-valued attribute.
func appendAttrU32(b []byte, typ uint16, v uint32) []byte {
	var p [4]byte
	ne.PutUint32(p[:], v)
	return appendAttr(b, typ, p[:])
}

// appendDiagDumpReq appends the complete INET_DIAG dump request for one
// address family: established TCP sockets, with tcp_info requested via the
// INET_DIAG_INFO extension bit.
func appendDiagDumpReq(b []byte, family uint8, seq uint32) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+diagReqLen]...)
	putNlHdr(b[start:], nlHdrLen+diagReqLen, sockDiagByFamily, nlmFRequest|nlmFDump, seq)
	req := b[start+nlHdrLen:]
	req[0] = family
	req[1] = ipprotoTCP
	req[2] = 1 << (inetDiagInfo - 1) // idiag_ext: request INET_DIAG_INFO
	ne.PutUint32(req[4:], 1<<tcpEstablished)
	// sockid stays zero: dump requests match on states, not on one socket.
	return b
}

// applyTCPInfo decodes the tcp_info fields an Observation carries, tolerant
// of truncated (older-kernel) payloads: fields beyond the payload stay zero.
func applyTCPInfo(o *core.Observation, ti []byte) {
	if len(ti) >= tcpiRttOff+4 {
		o.RTT = time.Duration(ne.Uint32(ti[tcpiRttOff:])) * time.Microsecond
	}
	if len(ti) >= tcpiSndCwndOff+4 {
		o.Cwnd = int(ne.Uint32(ti[tcpiSndCwndOff:]))
	}
	if len(ti) >= tcpiTotalRetransOff+4 {
		o.Retrans = int64(ne.Uint32(ti[tcpiTotalRetransOff:]))
	}
	if len(ti) >= tcpiBytesAckedOff+8 {
		if v := ne.Uint64(ti[tcpiBytesAckedOff:]); v <= math.MaxInt64 {
			o.BytesAcked = int64(v)
		} else {
			o.BytesAcked = math.MaxInt64
		}
	}
	if len(ti) >= tcpiSegsOutOff+4 {
		o.SegsOut = int64(ne.Uint32(ti[tcpiSegsOutOff:]))
	}
}

// parseInetDiagMsg decodes one SOCK_DIAG_BY_FAMILY message payload into *o,
// a slot of the caller's pooled buffer that still holds the observation of
// two rounds ago: the slot is zeroed before any field is decoded, so fields
// beyond a truncated tcp_info read zero. Reports false when the message is
// rejected, possibly after a partial decode — the caller must then drop the
// slot. Mirrors the ss text parser's acceptance rules: established sockets
// with a positive congestion window only.
func parseInetDiagMsg(o *core.Observation, msg []byte) bool {
	if len(msg) < diagMsgLen || msg[1] != tcpEstablished {
		return false
	}
	*o = core.Observation{}
	switch msg[0] {
	case afInet:
		o.Dst = netip.AddrFrom4([4]byte(msg[24:28]))
	case afInet6:
		// Kept mapped (no Unmap): ss prints v4-mapped peers as
		// [::ffff:a.b.c.d], which parses back to the 4-in-6 form — the two
		// backends must key destinations identically.
		o.Dst = netip.AddrFrom16([16]byte(msg[24:40]))
	default:
		return false
	}
	attrs := msg[diagMsgLen:]
	for off := 0; off+4 <= len(attrs); {
		alen := int(ne.Uint16(attrs[off:]))
		typ := ne.Uint16(attrs[off+2:])
		if alen < 4 || off+alen > len(attrs) {
			break // malformed attribute: stop walking, keep what we have
		}
		if typ == inetDiagInfo {
			applyTCPInfo(o, attrs[off+4:off+alen])
		}
		off += nlaAlign(alen)
	}
	return o.Cwnd > 0
}

// ErrDumpInterrupted fails a dump the kernel flagged NLM_F_DUMP_INTR: the
// table changed while it was walked, so the dump may have skipped or
// repeated entries. A sampler that passed such a dump on would make the
// agent treat the skipped sockets as closed.
var ErrDumpInterrupted = errors.New("netlink: dump interrupted by a concurrent change (NLM_F_DUMP_INTR)")

// ParseDiagDump walks one received sock_diag datagram, appending decoded
// observations to obs. Each message is decoded in place: obs is extended by
// one (a re-slice while capacity lasts; a full obs first doubles its
// capacity), the decoder writes that slot, and a rejected message shrinks obs
// back — elements below the starting length are never touched. done reports
// that the dump's NLMSG_DONE marker was seen. Messages whose sequence number
// differs from seq are skipped (stale responses from an aborted previous
// dump); seq 0 accepts any. A message of the dump flagged NLM_F_DUMP_INTR
// fails it with ErrDumpInterrupted. Malformed input never panics: unparsable
// messages and attributes are skipped, a truncated tail ends the walk.
func ParseDiagDump(obs []core.Observation, data []byte, seq uint32) (_ []core.Observation, done bool, err error) {
	for len(data) >= nlHdrLen {
		mlen := int(ne.Uint32(data))
		typ := ne.Uint16(data[4:])
		flags := ne.Uint16(data[6:])
		mseq := ne.Uint32(data[8:])
		if mlen < nlHdrLen || mlen > len(data) {
			break // truncated or malformed: end of usable datagram
		}
		payload := data[nlHdrLen:mlen]
		adv := nlaAlign(mlen)
		if adv > len(data) {
			data = nil
		} else {
			data = data[adv:]
		}
		if seq != 0 && mseq != seq {
			continue
		}
		if flags&nlmFDumpIntr != 0 {
			return obs, true, ErrDumpInterrupted
		}
		switch typ {
		case nlmsgDone:
			return obs, true, nil
		case nlmsgError:
			if len(payload) < 4 {
				return obs, true, fmt.Errorf("netlink: truncated NLMSG_ERROR")
			}
			if e := decodeAckErrno(payload); e != 0 {
				return obs, true, fmt.Errorf("netlink: sock_diag dump: %w", e)
			}
		case sockDiagByFamily:
			n := len(obs)
			if n == cap(obs) {
				// A first dump fills a nil buffer. Doubling reaches its size
				// allocating about twice what it keeps; append's 1.25× ladder
				// for large slices allocates about five times.
				obs = append(make([]core.Observation, 0, max(2*n, 64)), obs...)
			}
			obs = obs[:n+1]
			if !parseInetDiagMsg(&obs[n], payload) {
				obs = obs[:n]
			}
		}
	}
	return obs, false, nil
}

// decodeAckErrno reads the errno of an NLMSG_ERROR payload. The kernel
// stores the negated errno; 0 is a success ack.
func decodeAckErrno(payload []byte) Errno {
	e := int32(ne.Uint32(payload))
	if e < 0 {
		e = -e
	}
	return Errno(e)
}

// RecordedRoute is one route-programming message as decoded off the wire:
// what MemConn records for assertions and what RTM_GETROUTE dumps decode
// into.
type RecordedRoute struct {
	// Del marks an RTM_DELROUTE (route withdrawal).
	Del bool
	// Prefix is the destination (rtmsg dst_len + RTA_DST).
	Prefix netip.Prefix
	// Gateway is the RTA_GATEWAY next hop; invalid when absent.
	Gateway netip.Addr
	// OIF is the RTA_OIF outgoing interface index; 0 when absent.
	OIF int
	// Table is the routing table (rtmsg field, overridden by RTA_TABLE).
	Table int
	// Proto and Scope are the raw rtmsg fields.
	Proto uint8
	Scope uint8
	// InitCwnd / InitRwnd are the RTAX_INITCWND / RTAX_INITRWND metrics
	// under RTA_METRICS; 0 when absent.
	InitCwnd int
	InitRwnd int
}

// parseRouteMsg decodes one RTM_NEWROUTE/RTM_DELROUTE/route-dump message
// payload (rtmsg + attributes). Reports false for payloads that do not
// decode to a structurally valid route.
func parseRouteMsg(payload []byte) (RecordedRoute, bool) {
	var rt RecordedRoute
	if len(payload) < rtMsgLen {
		return rt, false
	}
	family := payload[0]
	dstLen := int(payload[1])
	rt.Table = int(payload[4])
	rt.Proto = payload[5]
	rt.Scope = payload[6]
	var dst netip.Addr
	switch family {
	case afInet:
		dst = netip.IPv4Unspecified()
	case afInet6:
		dst = netip.IPv6Unspecified()
	default:
		return rt, false
	}
	attrs := payload[rtMsgLen:]
	for off := 0; off+4 <= len(attrs); {
		alen := int(ne.Uint16(attrs[off:]))
		typ := ne.Uint16(attrs[off+2:])
		if alen < 4 || off+alen > len(attrs) {
			break
		}
		val := attrs[off+4 : off+alen]
		switch typ {
		case rtaDst:
			switch {
			case family == afInet && len(val) >= 4:
				dst = netip.AddrFrom4([4]byte(val[:4]))
			case family == afInet6 && len(val) >= 16:
				dst = netip.AddrFrom16([16]byte(val[:16]))
			default:
				return rt, false
			}
		case rtaGateway:
			switch {
			case family == afInet && len(val) >= 4:
				rt.Gateway = netip.AddrFrom4([4]byte(val[:4]))
			case family == afInet6 && len(val) >= 16:
				rt.Gateway = netip.AddrFrom16([16]byte(val[:16]))
			}
		case rtaOif:
			if len(val) >= 4 {
				rt.OIF = int(ne.Uint32(val))
			}
		case rtaTable:
			if len(val) >= 4 {
				rt.Table = int(ne.Uint32(val))
			}
		case rtaMetrics:
			for moff := 0; moff+4 <= len(val); {
				mlen := int(ne.Uint16(val[moff:]))
				mtyp := ne.Uint16(val[moff+2:])
				if mlen < 4 || moff+mlen > len(val) {
					break
				}
				if mv := val[moff+4 : moff+mlen]; len(mv) >= 4 {
					switch mtyp {
					case rtaxInitCwnd:
						rt.InitCwnd = int(ne.Uint32(mv))
					case rtaxInitRwnd:
						rt.InitRwnd = int(ne.Uint32(mv))
					}
				}
				moff += nlaAlign(mlen)
			}
		}
		off += nlaAlign(alen)
	}
	if dstLen < 0 || dstLen > dst.BitLen() {
		return rt, false
	}
	rt.Prefix = netip.PrefixFrom(dst, dstLen)
	return rt, true
}

// ParseRouteDump walks one RTM_GETROUTE dump response datagram, appending
// decoded routes. done reports the NLMSG_DONE marker. Same tolerance rules
// as ParseDiagDump, NLM_F_DUMP_INTR included; seq 0 accepts any sequence
// number.
func ParseRouteDump(routes []RecordedRoute, data []byte, seq uint32) (_ []RecordedRoute, done bool, err error) {
	for len(data) >= nlHdrLen {
		mlen := int(ne.Uint32(data))
		typ := ne.Uint16(data[4:])
		flags := ne.Uint16(data[6:])
		mseq := ne.Uint32(data[8:])
		if mlen < nlHdrLen || mlen > len(data) {
			break
		}
		payload := data[nlHdrLen:mlen]
		adv := nlaAlign(mlen)
		if adv > len(data) {
			data = nil
		} else {
			data = data[adv:]
		}
		if seq != 0 && mseq != seq {
			continue
		}
		if flags&nlmFDumpIntr != 0 {
			return routes, true, ErrDumpInterrupted
		}
		switch typ {
		case nlmsgDone:
			return routes, true, nil
		case nlmsgError:
			if len(payload) < 4 {
				return routes, true, fmt.Errorf("netlink: truncated NLMSG_ERROR")
			}
			if e := decodeAckErrno(payload); e != 0 {
				return routes, true, fmt.Errorf("netlink: route dump: %w", e)
			}
		case rtmNewRoute:
			if rt, ok := parseRouteMsg(payload); ok {
				routes = append(routes, rt)
			}
		}
	}
	return routes, false, nil
}

// routeWire is the resolved per-programmer route-command shape: the netlink
// rendering of `ip route`'s `dev ... via ... initrwnd` selectors.
type routeWire struct {
	gw       netip.Addr // invalid when unset
	oif      uint32
	initRwnd bool
	table    uint8
}

// appendRouteReq appends one RTM_NEWROUTE (replace) or RTM_DELROUTE request
// for op, mirroring `ip route replace` / `ip route del`:
// replace-style installs (NLM_F_CREATE|NLM_F_REPLACE), proto static, the
// configured dev/via selectors on both install and delete, and
// RTAX_INITCWND (plus RTAX_INITRWND when configured) on installs only.
// Deletes use the wildcard scope RT_SCOPE_NOWHERE exactly as `ip route del`
// does.
func appendRouteReq(b []byte, op core.RouteOp, w *routeWire, seq uint32) []byte {
	typ := uint16(rtmNewRoute)
	flags := uint16(nlmFRequest | nlmFAck | nlmFCreate | nlmFReplace)
	if op.Clear {
		typ = rtmDelRoute
		flags = nlmFRequest | nlmFAck
	}
	start := len(b)
	b = append(b, zeros[:nlHdrLen+rtMsgLen]...)
	m := b[start+nlHdrLen:]
	addr := op.Prefix.Masked().Addr()
	if addr.Is4() {
		m[0] = afInet
	} else {
		m[0] = afInet6
	}
	m[1] = byte(op.Prefix.Bits())
	m[4] = w.table
	m[5] = rtprotStatic
	if op.Clear {
		m[6] = rtScopeNowhere // wildcard: match any scope, like ip route del
	} else {
		m[7] = rtnUnicast
		if !w.gw.IsValid() && w.oif != 0 {
			m[6] = rtScopeLink // directly-attached route, ip's default without via
		} else {
			m[6] = rtScopeUniverse
		}
	}
	if addr.Is4() {
		a := addr.As4()
		b = appendAttr(b, rtaDst, a[:])
	} else {
		a := addr.As16()
		b = appendAttr(b, rtaDst, a[:])
	}
	if w.gw.IsValid() {
		if w.gw.Is4() {
			a := w.gw.As4()
			b = appendAttr(b, rtaGateway, a[:])
		} else {
			a := w.gw.As16()
			b = appendAttr(b, rtaGateway, a[:])
		}
	}
	if w.oif != 0 {
		b = appendAttrU32(b, rtaOif, w.oif)
	}
	if !op.Clear {
		mStart := len(b)
		b = append(b, zeros[:4]...)
		b = appendAttrU32(b, rtaxInitCwnd, uint32(op.Window))
		if w.initRwnd {
			b = appendAttrU32(b, rtaxInitRwnd, uint32(op.Window))
		}
		ne.PutUint16(b[mStart:], uint16(len(b)-mStart))
		ne.PutUint16(b[mStart+2:], rtaMetrics)
	}
	putNlHdr(b[start:], len(b)-start, typ, flags, seq)
	return b
}

// appendRouteDumpReq appends the RTM_GETROUTE dump request covering every
// family and table.
func appendRouteDumpReq(b []byte, seq uint32) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+rtMsgLen]...)
	putNlHdr(b[start:], nlHdrLen+rtMsgLen, rtmGetRoute, nlmFRequest|nlmFDump, seq)
	return b
}

// appendProbeReq appends a deliberately invalid RTM_NEWROUTE (IPv4 with
// dst_len 33). The kernel checks CAP_NET_ADMIN before it parses the route,
// so the ack distinguishes permission from validity without mutating
// anything: EPERM means this process may not program routes, EINVAL means
// it may (the request reached the validator).
func appendProbeReq(b []byte, seq uint32) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+rtMsgLen]...)
	m := b[start+nlHdrLen:]
	m[0] = afInet
	m[1] = 33 // > 32: guaranteed -EINVAL from rtm_to_fib_config
	m[4] = rtTableMain
	m[5] = rtprotStatic
	m[7] = rtnUnicast
	putNlHdr(b[start:], len(b)-start, rtmNewRoute, nlmFRequest|nlmFAck|nlmFCreate|nlmFReplace, seq)
	return b
}
