package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// Linux ABI offsets the bench kernel patches in place (see README.md,
// "Bench kernel"). They are the same literals internal/netlink decodes with;
// TestBenchKernelPatchesParse pins them against ParseDiagDump.
const (
	nlHdrLen       = 16 // struct nlmsghdr
	nlSeqOff       = 8  // nlmsghdr.nlmsg_seq
	diagMsgLen     = 72 // struct inet_diag_msg
	diagDstOff     = 24 // inet_diag_msg.id.idiag_dst
	diagFamilyOff  = 0  // inet_diag_req_v2.sdiag_family
	inetDiagInfo   = 2  // INET_DIAG_INFO attribute type
	tcpiSndCwndOff = 80 // tcp_info.tcpi_snd_cwnd
	afInet         = 2  // AF_INET
	nlmsgDone      = 3  // NLMSG_DONE
)

// ne is netlink's byte order: the host's.
var ne = binary.NativeEndian

// benchKernel is the benchmark-owned netlink.Conn standing in for the
// kernel's socket table: it answers INET_DIAG dump requests by replaying
// datagrams captured once from a netlink.MemConn, and lets the driver change
// a socket's destination or congestion window between rounds by patching the
// captured bytes. Serving a dump costs one copy and one sequence-number walk
// per datagram, the same work MemConn does, and a mutation costs one 4-byte
// store.
type benchKernel struct {
	v4   [][]byte // AF_INET dump datagrams, NLMSG_DONE last
	done []byte   // the NLMSG_DONE datagram alone (answers AF_INET6 dumps)
	// where locates socket i's message: datagram index and byte offset.
	where []sockLoc
	// cwndOff is the offset of tcpi_snd_cwnd from the start of a message.
	cwndOff int

	pending [][]byte
	head    int
	seq     uint32
}

type sockLoc struct{ dgram, off uint32 }

// recordingConn copies every datagram a MemConn hands out.
type recordingConn struct {
	netlink.Conn
	got [][]byte
}

func (r *recordingConn) Receive(p []byte) (int, error) {
	n, err := r.Conn.Receive(p)
	if err == nil {
		r.got = append(r.got, append([]byte(nil), p[:n]...))
	}
	return n, err
}

// newBenchKernel captures MemConn's AF_INET dump of socks (one established
// IPv4 socket each) through a real netlink.Sampler and indexes the messages.
func newBenchKernel(socks []core.Observation) (*benchKernel, error) {
	rec := &recordingConn{Conn: &netlink.MemConn{Sockets: socks}}
	s, err := netlink.NewSampler(netlink.SamplerConfig{
		Dial:     func(int) (netlink.Conn, error) { return rec, nil },
		Families: []uint8{afInet},
	})
	if err != nil {
		return nil, err
	}
	got, err := s.SampleConnections(nil)
	if err != nil {
		return nil, fmt.Errorf("bench kernel capture: %w", err)
	}
	if len(got) != len(socks) {
		return nil, fmt.Errorf("bench kernel capture: %d sockets in, %d observed", len(socks), len(got))
	}
	k := &benchKernel{v4: rec.got, where: make([]sockLoc, 0, len(socks))}
	if len(k.v4) == 0 {
		return nil, errors.New("bench kernel capture: no datagrams")
	}
	k.done = k.v4[len(k.v4)-1]
	if len(k.done) < nlHdrLen || ne.Uint16(k.done[4:]) != nlmsgDone {
		return nil, errors.New("bench kernel capture: dump does not end in NLMSG_DONE")
	}
	for d, dgram := range k.v4[:len(k.v4)-1] {
		for off := 0; off+nlHdrLen <= len(dgram); {
			mlen := int(ne.Uint32(dgram[off:]))
			if mlen < nlHdrLen+diagMsgLen || off+mlen > len(dgram) {
				return nil, fmt.Errorf("bench kernel capture: bad message length %d", mlen)
			}
			if k.cwndOff == 0 {
				if k.cwndOff, err = findCwndOff(dgram[off : off+mlen]); err != nil {
					return nil, err
				}
			}
			k.where = append(k.where, sockLoc{uint32(d), uint32(off)})
			off += (mlen + 3) &^ 3
		}
	}
	if len(k.where) != len(socks) {
		return nil, fmt.Errorf("bench kernel capture: indexed %d of %d sockets", len(k.where), len(socks))
	}
	return k, nil
}

// findCwndOff walks one message's attributes to the INET_DIAG_INFO payload.
func findCwndOff(msg []byte) (int, error) {
	for off := nlHdrLen + diagMsgLen; off+4 <= len(msg); {
		alen := int(ne.Uint16(msg[off:]))
		if alen < 4 || off+alen > len(msg) {
			break
		}
		if ne.Uint16(msg[off+2:]) == inetDiagInfo && alen >= 4+tcpiSndCwndOff+4 {
			return off + 4 + tcpiSndCwndOff, nil
		}
		off += (alen + 3) &^ 3
	}
	return 0, errors.New("bench kernel capture: no INET_DIAG_INFO attribute")
}

func (k *benchKernel) msg(i int) []byte {
	w := k.where[i]
	return k.v4[w.dgram][w.off:]
}

// setDst moves socket i to a new IPv4 destination.
func (k *benchKernel) setDst(i int, dst netip.Addr) {
	a := dst.As4()
	copy(k.msg(i)[nlHdrLen+diagDstOff:], a[:])
}

// setCwnd changes socket i's congestion window.
func (k *benchKernel) setCwnd(i int, cwnd int) {
	ne.PutUint32(k.msg(i)[k.cwndOff:], uint32(cwnd))
}

// Send implements netlink.Conn for sock_diag dump requests only.
func (k *benchKernel) Send(req []byte) error {
	if len(req) < nlHdrLen+1 {
		return errors.New("bench kernel: short request")
	}
	k.seq = ne.Uint32(req[nlSeqOff:])
	k.pending, k.head = k.pending[:0], 0
	if req[nlHdrLen+diagFamilyOff] == afInet {
		k.pending = append(k.pending, k.v4...)
	} else {
		k.pending = append(k.pending, k.done)
	}
	return nil
}

// Receive implements netlink.Conn: the next datagram, stamped with the
// requesting dump's sequence number.
func (k *benchKernel) Receive(p []byte) (int, error) {
	if k.head == len(k.pending) {
		return 0, errors.New("bench kernel: no pending response")
	}
	d := k.pending[k.head]
	k.head++
	n := copy(p, d)
	for b := p[:n]; len(b) >= nlHdrLen; {
		mlen := (int(ne.Uint32(b)) + 3) &^ 3
		if mlen < nlHdrLen || mlen > len(b) {
			break
		}
		ne.PutUint32(b[nlSeqOff:], k.seq)
		b = b[mlen:]
	}
	return len(d), nil
}

// Close implements netlink.Conn.
func (k *benchKernel) Close() error { return nil }
