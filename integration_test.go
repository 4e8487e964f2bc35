package riptide

import (
	"net/netip"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// roundSampler serves one socket table per tick through a netlink.Sampler
// over a fresh MemConn (a MemConn encodes its dump once, so a changed table
// needs a new one), repeating the last table once the script runs out.
type roundSampler struct {
	rounds [][]Observation
	n      int
}

func (r *roundSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	mem := &netlink.MemConn{Sockets: r.rounds[min(r.n, len(r.rounds)-1)]}
	r.n++
	s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: mem.Dialer()})
	if err != nil {
		return nil, err
	}
	return s.SampleConnections(buf)
}

// TestLinuxBackendEndToEnd drives the full production code path — sock_diag
// decode, Algorithm 1, rtnetlink route programming, TTL expiry, shutdown
// cleanup — against an in-memory kernel, no root required.
func TestLinuxBackendEndToEnd(t *testing.T) {
	dst := netip.MustParseAddr("10.0.0.127")
	sock := func(cwnd int) []Observation {
		return []Observation{{Dst: dst, Cwnd: cwnd, RTT: 120 * time.Millisecond, BytesAcked: 987654}}
	}
	// Two rounds of healthy connections to 10.0.0.127, then silence.
	sampler := &roundSampler{rounds: [][]Observation{sock(60), sock(100), nil}}
	kernel := &netlink.MemConn{}
	routes, err := netlink.NewRoutes(netlink.RoutesConfig{Dial: kernel.Dialer(), DeviceIndex: 2, Gateway: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	agent, err := core.New(core.Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   func() time.Duration { return now },
		TTL:     90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
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
		rt.OIF != 2 || rt.Gateway != gw || rt.Proto != rtprotStatic {
		t.Errorf("route after tick 1 = %+v", rt)
	}

	// Tick 2: EWMA folds the new 100 in: 0.75*60 + 0.25*100 = 70.
	now += time.Second
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 2 || kernel.Routes[1].InitCwnd != 70 {
		t.Fatalf("route messages after tick 2 = %+v", kernel.Routes)
	}

	// Connections vanish; before the TTL nothing changes.
	now += 60 * time.Second
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 2 {
		t.Fatalf("route touched before TTL: %+v", kernel.Routes)
	}

	// Past the TTL the route is withdrawn, restoring the default. The
	// delete carries the install's interface and gateway.
	now += 40 * time.Second
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 3 {
		t.Fatalf("route messages after expiry = %+v", kernel.Routes)
	}
	if rt := kernel.Routes[2]; !rt.Del || rt.Prefix != host || rt.OIF != 2 || rt.Gateway != gw {
		t.Fatalf("withdrawal = %+v", rt)
	}

	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kernel.Routes) != 3 {
		t.Errorf("Close touched already-clean state: %+v", kernel.Routes)
	}
}
