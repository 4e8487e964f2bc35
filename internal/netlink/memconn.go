package netlink

import (
	"errors"
	"fmt"
	"net/netip"

	"riptide/internal/core"
)

// DefaultMemConnMTU is how many bytes MemConn packs into one dump response
// datagram, matching the ~32KiB skb batches real kernels send.
const DefaultMemConnMTU = 32 << 10

// errWouldBlock is returned by MemConn.Receive when no response is queued —
// the in-memory analog of a receive timeout.
var errWouldBlock = errors.New("memconn: no pending response (would block)")

// MemConn is an in-memory netlink kernel serving canned responses: sock_diag
// dump requests are answered from Sockets, RTM_GETROUTE dumps from
// InstalledRoutes, and RTM_NEWROUTE/RTM_DELROUTE messages are decoded,
// recorded into Routes, and acked. It lets the full Sampler and Routes
// machinery — encode, syscall-shaped send/receive framing, decode — run on
// any GOOS and under benchmarks without a kernel.
//
// Dump datagrams are encoded once and replayed per request (sequence numbers
// patched during Receive's copy-out), so steady-state sampling through a
// MemConn is allocation-free on both sides of the Conn boundary.
type MemConn struct {
	// Sockets is the connection table served to sock_diag dumps.
	Sockets []core.Observation
	// InstalledRoutes is the routing table served to RTM_GETROUTE dumps.
	InstalledRoutes []RecordedRoute
	// AckErrno, when set, chooses the errno acked for each route message
	// (parsed reports whether the message decoded). Nil acks success for
	// decodable messages and EINVAL otherwise.
	AckErrno func(rt RecordedRoute, parsed bool) Errno
	// DiscardRoutes disables recording into Routes (for benchmarks, which
	// would otherwise grow it unboundedly).
	DiscardRoutes bool
	// MTU caps dump response datagram size; 0 means DefaultMemConnMTU.
	MTU int
	// Routes records every decoded RTM_NEWROUTE/RTM_DELROUTE received.
	Routes []RecordedRoute
	// SendErr / RecvErr, when set, are returned by Send / Receive to
	// exercise conversation-failure paths.
	SendErr error
	RecvErr error
	// InterruptDumps flags the next n dump requests (sock_diag or route)
	// interrupted: their NLMSG_DONE carries NLM_F_DUMP_INTR, as a kernel
	// marks a dump whose table changed while it was walked.
	InterruptDumps int

	// dumps caches the encoded per-family sock_diag response datagrams
	// (sequence fields zero, patched at Receive).
	dumps   map[uint8][][]byte
	doneMsg []byte
	// pending is the response queue; head avoids reslicing so the backing
	// array is reused across requests.
	pending [][]byte
	head    int
	ackBuf  []byte
	dumpSeq uint32
	closed  bool
}

// Dialer returns a DialFunc handing out this MemConn for any protocol —
// plug it into SamplerConfig.Dial / RoutesConfig.Dial.
func (m *MemConn) Dialer() DialFunc {
	return func(proto int) (Conn, error) {
		m.closed = false
		return m, nil
	}
}

// Send implements Conn: it parses every message in the request datagram and
// queues the responses a kernel would send.
func (m *MemConn) Send(req []byte) error {
	if m.closed {
		return errors.New("memconn: send on closed conn")
	}
	if m.SendErr != nil {
		return m.SendErr
	}
	if m.head == len(m.pending) {
		m.pending = m.pending[:0]
		m.head = 0
	}
	m.ackBuf = m.ackBuf[:0]
	for len(req) >= nlHdrLen {
		mlen := int(ne.Uint32(req))
		typ := ne.Uint16(req[4:])
		flags := ne.Uint16(req[6:])
		seq := ne.Uint32(req[8:])
		if mlen < nlHdrLen || mlen > len(req) {
			return fmt.Errorf("memconn: malformed request message (len %d of %d)", mlen, len(req))
		}
		payload := req[nlHdrLen:mlen]
		hdr := req[:nlHdrLen]
		req = req[min(nlaAlign(mlen), len(req)):]
		switch typ {
		case sockDiagByFamily:
			if flags&nlmFDump == 0 || len(payload) < diagReqLen {
				return fmt.Errorf("memconn: unsupported sock_diag request (flags %#x)", flags)
			}
			m.dumpSeq = seq
			m.ensureDumps()
			m.pending = append(m.pending, m.dumps[payload[0]]...)
			m.pending = append(m.pending, m.dumpDone())
		case rtmGetRoute:
			if flags&nlmFDump == 0 {
				return fmt.Errorf("memconn: unsupported RTM_GETROUTE request (flags %#x)", flags)
			}
			m.dumpSeq = seq
			m.pending = append(m.pending, m.encodeRouteDump(), m.dumpDone())
		case rtmNewRoute, rtmDelRoute:
			rt, ok := parseRouteMsg(payload)
			rt.Del = typ == rtmDelRoute
			e := EINVAL
			if ok {
				e = 0
			}
			if m.AckErrno != nil {
				e = m.AckErrno(rt, ok)
			}
			if ok && !m.DiscardRoutes {
				m.Routes = append(m.Routes, rt)
			}
			if flags&nlmFAck != 0 || e != 0 {
				m.ackBuf = appendAck(m.ackBuf, hdr, e)
			}
		default:
			return fmt.Errorf("memconn: unsupported message type %d", typ)
		}
	}
	if len(m.ackBuf) > 0 {
		m.pending = append(m.pending, m.ackBuf)
	}
	return nil
}

// Receive implements Conn: it pops the next queued response datagram into p,
// patching cached zero-sequence messages to the requesting dump's sequence.
func (m *MemConn) Receive(p []byte) (int, error) {
	if m.closed {
		return 0, errors.New("memconn: receive on closed conn")
	}
	if m.RecvErr != nil {
		return 0, m.RecvErr
	}
	if m.head == len(m.pending) {
		return 0, errWouldBlock
	}
	d := m.pending[m.head]
	m.head++
	n := copy(p, d)
	// Patch sequence numbers in the copy only: the cached datagrams encode
	// seq 0 so one encoding serves every request.
	for b := p[:n]; len(b) >= nlHdrLen; {
		mlen := int(ne.Uint32(b))
		if mlen < nlHdrLen || mlen > len(b) {
			break
		}
		if ne.Uint32(b[8:]) == 0 {
			ne.PutUint32(b[8:], m.dumpSeq)
		}
		adv := nlaAlign(mlen)
		if adv > len(b) {
			break
		}
		b = b[adv:]
	}
	return len(d), nil
}

// Close implements Conn. Dialer reopens the conn; queued responses drop.
func (m *MemConn) Close() error {
	m.closed = true
	m.pending = m.pending[:0]
	m.head = 0
	return nil
}

// ensureDumps builds the cached per-family sock_diag response datagrams.
func (m *MemConn) ensureDumps() {
	if m.dumps != nil {
		return
	}
	mtu := m.MTU
	if mtu <= 0 {
		mtu = DefaultMemConnMTU
	}
	m.dumps = make(map[uint8][][]byte)
	for _, family := range []uint8{afInet, afInet6} {
		var datagrams [][]byte
		var cur []byte
		for i := range m.Sockets {
			o := &m.Sockets[i]
			if familyOf(o.Dst) != family {
				continue
			}
			msg := encodeDiagMsg(nil, o)
			if len(cur) > 0 && len(cur)+len(msg) > mtu {
				datagrams = append(datagrams, cur)
				cur = nil
			}
			cur = append(cur, msg...)
		}
		if len(cur) > 0 {
			datagrams = append(datagrams, cur)
		}
		m.dumps[family] = datagrams
	}
}

// dumpDone returns the standalone NLMSG_DONE datagram that ends a dump (seq
// 0, patched at Receive), flagged NLM_F_DUMP_INTR while InterruptDumps lasts.
func (m *MemConn) dumpDone() []byte {
	if m.InterruptDumps > 0 {
		m.InterruptDumps--
		d := make([]byte, nlHdrLen+4)
		putNlHdr(d, len(d), nlmsgDone, nlmFMulti|nlmFDumpIntr, 0)
		return d
	}
	if m.doneMsg == nil {
		m.doneMsg = make([]byte, nlHdrLen+4)
		putNlHdr(m.doneMsg, len(m.doneMsg), nlmsgDone, nlmFMulti, 0)
	}
	return m.doneMsg
}

// encodeRouteDump renders InstalledRoutes as one RTM_NEWROUTE-per-route dump
// datagram.
func (m *MemConn) encodeRouteDump() []byte {
	var b []byte
	var w routeWire
	for _, rt := range m.InstalledRoutes {
		w.gw = rt.Gateway
		w.oif = uint32(rt.OIF)
		w.initRwnd = rt.InitRwnd > 0
		table := rt.Table
		if table == 0 {
			table = rtTableMain
		}
		w.table = uint8(min(table, 0xff))
		op := core.RouteOp{Prefix: rt.Prefix, Window: rt.InitCwnd}
		start := len(b)
		b = appendRouteReq(b, op, &w, 0)
		// appendRouteReq writes a request; rewrite the header and rtmsg
		// fields into dump-response shape.
		ne.PutUint16(b[start+4:], rtmNewRoute)
		ne.PutUint16(b[start+6:], nlmFMulti)
		msg := b[start+nlHdrLen:]
		msg[5] = rt.Proto
		msg[6] = rt.Scope
	}
	return b
}

// familyOf maps an address to its Linux wire family. v4-mapped-v6 addresses
// are AF_INET6 on the diag wire (Is4 is false for the 4-in-6 form).
func familyOf(a netip.Addr) uint8 {
	if a.Is4() {
		return afInet
	}
	return afInet6
}

// encodeDiagMsg appends one complete SOCK_DIAG_BY_FAMILY message (header,
// inet_diag_msg, INET_DIAG_INFO attribute carrying tcp_info) for o.
func encodeDiagMsg(b []byte, o *core.Observation) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+diagMsgLen]...)
	msg := b[start+nlHdrLen:]
	msg[0] = familyOf(o.Dst)
	msg[1] = tcpEstablished
	if o.Dst.Is4() {
		a := o.Dst.As4()
		copy(msg[24:], a[:])
	} else {
		a := o.Dst.As16()
		copy(msg[24:], a[:])
	}
	var ti [tcpInfoLen]byte
	ne.PutUint32(ti[tcpiRttOff:], uint32(o.RTT.Microseconds()))
	ne.PutUint32(ti[tcpiSndCwndOff:], uint32(o.Cwnd))
	ne.PutUint32(ti[tcpiTotalRetransOff:], uint32(o.Retrans))
	ne.PutUint64(ti[tcpiBytesAckedOff:], uint64(o.BytesAcked))
	ne.PutUint32(ti[tcpiSegsOutOff:], uint32(o.SegsOut))
	b = appendAttr(b, inetDiagInfo, ti[:])
	putNlHdr(b[start:], len(b)-start, sockDiagByFamily, nlmFMulti, 0)
	return b
}

// appendAck appends one NLMSG_ERROR ack for the request message whose header
// is hdr, carrying errno e (negated on the wire, 0 for success) and the
// echoed request header, exactly as the kernel acks NLM_F_ACK requests.
func appendAck(b []byte, hdr []byte, e Errno) []byte {
	start := len(b)
	b = append(b, zeros[:nlHdrLen+4]...)
	var errField [4]byte
	ne.PutUint32(errField[:], uint32(-int32(e)))
	copy(b[start+nlHdrLen:], errField[:])
	b = append(b, hdr[:nlHdrLen]...)
	putNlHdr(b[start:], len(b)-start, nlmsgError, 0, ne.Uint32(hdr[8:]))
	return b
}
