package core_test

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// kernelConn is a sock_diag conversation with whichever in-memory kernel
// *mem is at the time — so a test can swap the socket table between rounds
// — whose Receive fails once when *failAt counts down to zero.
type kernelConn struct {
	mem    **netlink.MemConn
	failAt *int // receives left before the failing one; negative: none
	recvs  *int // receives served, for sizing the failure points
}

func (c kernelConn) Send(req []byte) error { return (*c.mem).Send(req) }
func (c kernelConn) Close() error          { return (*c.mem).Close() }

func (c kernelConn) Receive(p []byte) (int, error) {
	switch {
	case *c.failAt == 0:
		*c.failAt = -1
		return 0, errors.New("injected receive failure")
	case *c.failAt > 0:
		*c.failAt--
	}
	*c.recvs++
	return (*c.mem).Receive(p)
}

// dumpKernel is one agent's view of the socket table: a netlink.Sampler over
// a kernelConn, and a control switch that fails a round's sample without
// reading the kernel at all.
type dumpKernel struct {
	mem     *netlink.MemConn
	failAt  int
	recvs   int
	sampler *netlink.Sampler
	skip    bool // the next sample fails before any dump
}

func newDumpKernel(t *testing.T) *dumpKernel {
	k := &dumpKernel{failAt: -1}
	s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: func(proto int) (netlink.Conn, error) {
		if _, err := k.mem.Dialer()(proto); err != nil {
			return nil, err
		}
		return kernelConn{mem: &k.mem, failAt: &k.failAt, recvs: &k.recvs}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	k.sampler = s
	return k
}

func (k *dumpKernel) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	if k.skip {
		k.skip = false
		return nil, errors.New("sampler down")
	}
	return k.sampler.SampleConnections(buf)
}

// serve installs socks as the kernel's table, in datagrams small enough that
// a dump of it spans dozens.
func (k *dumpKernel) serve(socks []core.Observation, interrupt bool) {
	k.mem = &netlink.MemConn{Sockets: socks, MTU: 4096}
	if interrupt {
		k.mem.InterruptDumps = 1
	}
}

// opLog records every route op, one string per op.
type opLog struct{ ops []string }

func (l *opLog) SetInitCwnd(p netip.Prefix, w int) error {
	l.ops = append(l.ops, fmt.Sprintf("set %v %d", p, w))
	return nil
}

func (l *opLog) ClearInitCwnd(p netip.Prefix) error {
	l.ops = append(l.ops, fmt.Sprintf("clear %v", p))
	return nil
}

// dumpTables are the socket tables of the failed-dump test: 480 sockets over
// 240 IPv4 destinations, then the same table with every tenth window moved,
// eight sockets moved to new destinations and the last twelve closed.
func dumpTables() (before, after []core.Observation) {
	for i := 0; i < 480; i++ {
		before = append(before, core.Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 7, byte(i / 2 / 200), byte(1 + i/2%200)}),
			Cwnd: 20 + i%50, RTT: time.Millisecond,
		})
	}
	after = slices.Clone(before[:len(before)-12])
	for i := range after {
		if i%10 == 3 {
			after[i].Cwnd += 40
		}
		if i%60 == 7 {
			after[i].Dst = netip.AddrFrom4([4]byte{10, 8, 0, byte(1 + i/60)})
		}
	}
	return before, after
}

// TestFailedDumpLeavesNothingBehind: the sampler decodes each round over last
// round's stream, so a dump that fails part-way has overwritten some of it.
// That must leave nothing behind. Round r's dump of a changed table fails —
// at the k-th datagram, for several k, and once through NLM_F_DUMP_INTR, which
// fails the dump only after every socket was decoded — and round r+1 dumps the
// changed table whole. From round r on, the agent must issue the route ops,
// hold the table and pass checkTableInvariants exactly as a control agent
// whose round r failed before reading the kernel at all.
func TestFailedDumpLeavesNothingBehind(t *testing.T) {
	before, after := dumpTables()
	const failRound = 3

	// Size the failure points from a clean dump of the changed table.
	probe := newDumpKernel(t)
	probe.serve(after, false)
	if _, err := probe.SampleConnections(nil); err != nil {
		t.Fatal(err)
	}
	datagrams := probe.recvs
	if datagrams < 20 {
		t.Fatalf("a dump spans %d datagrams, want dozens", datagrams)
	}

	type failure struct {
		name      string
		at        int // the failing receive, or -1
		interrupt bool
	}
	fails := []failure{{"interrupted", -1, true}}
	for _, at := range []int{0, 1, datagrams / 2, datagrams - 2} {
		fails = append(fails, failure{fmt.Sprintf("receive %d of %d", at, datagrams), at, false})
	}
	for _, f := range fails {
		var now time.Duration
		clock := func() time.Duration { return now }
		kernels := [2]*dumpKernel{newDumpKernel(t), newDumpKernel(t)}
		logs := [2]*opLog{{}, {}}
		var agents [2]*core.Agent
		for i := range agents {
			a, err := core.New(core.Config{Sampler: kernels[i], Routes: logs[i], Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			agents[i] = a
		}
		for r := 0; r < failRound+4; r++ {
			now += time.Second
			table := before
			if r >= failRound {
				table = after
			}
			for i, k := range kernels {
				k.serve(table, r == failRound && i == 0 && f.interrupt)
			}
			if r == failRound {
				kernels[0].failAt = f.at
				kernels[1].skip = true
			}
			for i, a := range agents {
				logs[i].ops = logs[i].ops[:0]
				err := a.Tick()
				if r == failRound && err == nil {
					t.Fatalf("%s: round %d: agent %d sampled a failed dump", f.name, r, i)
				}
				if r != failRound && err != nil {
					t.Fatalf("%s: round %d: agent %d: %v", f.name, r, i, err)
				}
				core.CheckTableInvariants(t, a, fmt.Sprintf("%s round %d agent %d", f.name, r, i))
			}
			label := fmt.Sprintf("%s: round %d", f.name, r)
			if !slices.Equal(logs[0].ops, logs[1].ops) {
				t.Fatalf("%s: route ops diverged from the control agent's\n got %q\nwant %q", label, logs[0].ops, logs[1].ops)
			}
			if got, want := agents[0].Entries(), agents[1].Entries(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: table diverged from the control agent's\n got %v\nwant %v", label, got, want)
			}
			if r == failRound+1 && len(logs[0].ops) == 0 {
				t.Fatalf("%s: the changed table programmed nothing", label)
			}
		}
		if s := agents[0].Stats(); s.SampleErrors != 1 {
			t.Errorf("%s: %d sample errors, want 1", f.name, s.SampleErrors)
		}
		if got := agents[0].Metrics().Counter("riptide_tick_rounds_stable").Value(); got < 4 {
			t.Errorf("%s: %d stable rounds, want the rounds after the first and the failure stable", f.name, got)
		}
		for _, a := range agents {
			_ = a.Close()
		}
	}
}
