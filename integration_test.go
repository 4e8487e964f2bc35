package riptide

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/netlink"
)

// loopback returns the host's loopback interface, a device every host has,
// for the routes to name.
func loopback(t *testing.T) net.Interface {
	t.Helper()
	ifaces, err := net.Interfaces()
	if err != nil {
		t.Fatal(err)
	}
	for _, ifi := range ifaces {
		if ifi.Flags&net.FlagLoopback != 0 {
			return ifi
		}
	}
	t.Fatal("no loopback interface")
	return net.Interface{}
}

// roundConn is a sock_diag socket serving one socket table per tick: each
// AF_INET dump request, the first of a sample's two, moves on to the next
// table through a fresh MemConn (a MemConn encodes its dump once), and the
// last table repeats once the script runs out.
type roundConn struct {
	rounds [][]Observation
	n      int
	cur    *netlink.MemConn
}

func (r *roundConn) Send(req []byte) error {
	const afInet, familyOffset = 2, 16 // sdiag_family follows the nlmsghdr
	if req[familyOffset] == afInet {
		r.cur = &netlink.MemConn{Sockets: r.rounds[min(r.n, len(r.rounds)-1)]}
		r.n++
	}
	return r.cur.Send(req)
}

func (r *roundConn) Receive(p []byte) (int, error) { return r.cur.Receive(p) }
func (r *roundConn) Close() error                  { return nil }

// TestLinuxBackendEndToEnd drives the agent riptided and NewLinuxAgent
// assemble — sock_diag decode, Algorithm 1, the retry decorator, rtnetlink
// route programming, TTL expiry, shutdown cleanup — against an in-memory
// kernel, no root required.
func TestLinuxBackendEndToEnd(t *testing.T) {
	dst := netip.MustParseAddr("10.0.0.127")
	sock := func(cwnd int) []Observation {
		return []Observation{{Dst: dst, Cwnd: cwnd, RTT: 120 * time.Millisecond, BytesAcked: 987654}}
	}
	// Two rounds of healthy connections to 10.0.0.127, then silence.
	sockDiag := &roundConn{rounds: [][]Observation{sock(60), sock(100), nil}}
	kernel := &netlink.MemConn{}
	lo := loopback(t)
	now := time.Unix(1700000000, 0)
	d, err := daemon.New(daemon.Config{
		Agent:   core.Config{TTL: 90 * time.Second},
		Device:  lo.Name,
		Gateway: "10.0.0.1",
		Dial: func(proto int) (netlink.Conn, error) {
			if proto == netlink.ProtoSockDiag {
				return sockDiag, nil
			}
			return kernel.Dialer()(proto)
		},
		Now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	agent := d.Agent
	host := netip.PrefixFrom(dst, 32)
	gw := netip.MustParseAddr("10.0.0.1")
	const rtprotStatic = 4 // RTPROT_STATIC, the `proto static` of `ip route`

	// Tick 1: learns 60, programs the Figure-8-style route.
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 1 {
		t.Fatalf("route messages after tick 1 = %+v", kernel.Routes)
	}
	if rt := kernel.Routes[0]; rt.Del || rt.Prefix != host || rt.InitCwnd != 60 ||
		rt.OIF != lo.Index || rt.Gateway != gw || rt.Proto != rtprotStatic {
		t.Errorf("route after tick 1 = %+v", rt)
	}

	// Tick 2: EWMA folds the new 100 in: 0.75*60 + 0.25*100 = 70.
	now = now.Add(time.Second)
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 2 || kernel.Routes[1].InitCwnd != 70 {
		t.Fatalf("route messages after tick 2 = %+v", kernel.Routes)
	}

	// Connections vanish; before the TTL nothing changes.
	now = now.Add(60 * time.Second)
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 2 {
		t.Fatalf("route touched before TTL: %+v", kernel.Routes)
	}

	// Past the TTL the route is withdrawn, restoring the default. The
	// delete carries the install's interface and gateway.
	now = now.Add(40 * time.Second)
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 3 {
		t.Fatalf("route messages after expiry = %+v", kernel.Routes)
	}
	if rt := kernel.Routes[2]; !rt.Del || rt.Prefix != host || rt.OIF != lo.Index || rt.Gateway != gw {
		t.Fatalf("withdrawal = %+v", rt)
	}

	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 3 {
		t.Errorf("Close touched already-clean state: %+v", kernel.Routes)
	}
}
