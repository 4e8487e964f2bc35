package netlink

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"riptide/internal/core"
)

// flagIntr sets NLM_F_DUMP_INTR and the sequence number on the message at the
// head of b.
func flagIntr(b []byte, seq uint32) []byte {
	ne.PutUint16(b[6:], ne.Uint16(b[6:])|nlmFDumpIntr)
	ne.PutUint32(b[8:], seq)
	return b
}

// TestDumpIntrFailsParsers: a message of the current dump flagged
// NLM_F_DUMP_INTR fails both dump parsers, whatever its type; the same flag
// on a stale message of another sequence is skipped with the message.
func TestDumpIntrFailsParsers(t *testing.T) {
	sock := core.Observation{Dst: netip.MustParseAddr("10.0.0.1"), Cwnd: 20, RTT: time.Millisecond}
	ok := encodeDiagMsg(nil, &sock)
	ne.PutUint32(ok[8:], 7)
	mem := &MemConn{InstalledRoutes: []RecordedRoute{{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Proto: rtprotStatic, InitCwnd: 30}}}
	route := mem.encodeRouteDump()
	ne.PutUint32(route[8:], 7)

	diag := append(append([]byte(nil), ok...), flagIntr(encodeDiagMsg(nil, &sock), 7)...)
	if obs, _, err := ParseDiagDump(nil, diag, 7); !errors.Is(err, ErrDumpInterrupted) {
		t.Errorf("sock_diag dump with a flagged message: %d observations, err %v; want ErrDumpInterrupted", len(obs), err)
	}
	stale := append(append([]byte(nil), ok...), flagIntr(encodeDiagMsg(nil, &sock), 6)...)
	if obs, _, err := ParseDiagDump(nil, stale, 7); err != nil || len(obs) != 1 {
		t.Errorf("flag on a stale sequence: %d observations, err %v; want 1, nil", len(obs), err)
	}

	done := make([]byte, nlHdrLen+4)
	putNlHdr(done, len(done), nlmsgDone, nlmFMulti, 0)
	routes := append(append([]byte(nil), route...), flagIntr(done, 7)...)
	if got, _, err := ParseRouteDump(nil, routes, 7); !errors.Is(err, ErrDumpInterrupted) {
		t.Errorf("route dump with a flagged NLMSG_DONE: %d routes, err %v; want ErrDumpInterrupted", len(got), err)
	}
	if got, done, err := ParseRouteDump(nil, flagIntr(append([]byte(nil), route...), 7), 7); !errors.Is(err, ErrDumpInterrupted) || !done {
		t.Errorf("route dump with a flagged route: %d routes, done %v, err %v; want ErrDumpInterrupted", len(got), done, err)
	}
}

// TestDumpIntrKeepsAgentTable: an interrupted sock_diag dump — here half a
// table walk with moved windows — fails the sample, so the agent's round
// degrades to expiry-only: no route is programmed from it and the table
// keeps every entry as it was. The next clean dump ticks normally.
func TestDumpIntrKeepsAgentTable(t *testing.T) {
	mem := &MemConn{}
	for i := 0; i < 300; i++ {
		mem.Sockets = append(mem.Sockets, core.Observation{
			Dst: netip.AddrFrom4([4]byte{10, 9, byte(i / 250), byte(1 + i%250)}), Cwnd: 20 + i%40, RTT: time.Millisecond,
		})
	}
	sampler := newMemSampler(t, mem, SamplerConfig{})
	routes := &planRecorder{}
	var now time.Duration
	a, err := core.New(core.Config{Sampler: sampler, Routes: routes, Clock: func() time.Duration { return now }})
	if err != nil {
		t.Fatal(err)
	}
	tick := func() error {
		now += time.Second
		return a.Tick()
	}
	if err := tick(); err != nil {
		t.Fatal(err)
	}
	before, programs := a.Entries(), len(routes.batches)
	if len(before) != len(mem.Sockets) {
		t.Fatalf("learned %d entries, want %d", len(before), len(mem.Sockets))
	}

	half := append([]core.Observation(nil), mem.Sockets[:150]...)
	for i := range half {
		half[i].Cwnd = 90
	}
	mem.Sockets, mem.dumps = half, nil
	mem.InterruptDumps = 1
	if err := tick(); !errors.Is(err, ErrDumpInterrupted) {
		t.Fatalf("tick over an interrupted dump = %v, want ErrDumpInterrupted", err)
	}
	if got := a.Entries(); !reflect.DeepEqual(got, before) {
		t.Fatalf("interrupted dump changed the table: %d entries, want %d unchanged", len(got), len(before))
	}
	if len(routes.batches) != programs {
		t.Fatalf("interrupted dump programmed %d route batches", len(routes.batches)-programs)
	}
	if st := a.Stats(); st.SampleErrors != 1 {
		t.Fatalf("sample errors = %d, want 1", st.SampleErrors)
	}
	if err := tick(); err != nil {
		t.Fatalf("tick after the interrupted dump: %v", err)
	}
	if len(routes.batches) == programs {
		t.Fatal("the clean dump after the interrupted one programmed nothing")
	}
}

// TestDumpIntrReconcileRetriesOnce: Reconcile lists the route table again
// after one interrupted dump and withdraws what the clean listing found; two
// interrupted dumps in a row fail it with nothing withdrawn.
func TestDumpIntrReconcileRetriesOnce(t *testing.T) {
	mem := &MemConn{InstalledRoutes: mixedRouteTable(), InterruptDumps: 1}
	removed, err := newMemRoutes(t, mem, RoutesConfig{}).Reconcile()
	if err != nil || removed != 3 || len(mem.Routes) != 3 {
		t.Errorf("after one interrupted listing: removed %d (%d route messages), err %v; want 3, 3, nil", removed, len(mem.Routes), err)
	}

	mem = &MemConn{InstalledRoutes: mixedRouteTable(), InterruptDumps: 2}
	removed, err = newMemRoutes(t, mem, RoutesConfig{}).Reconcile()
	if !errors.Is(err, ErrDumpInterrupted) || removed != 0 || len(mem.Routes) != 0 {
		t.Errorf("after two interrupted listings: removed %d (%d route messages), err %v; want 0, 0, ErrDumpInterrupted", removed, len(mem.Routes), err)
	}
	if mem.InterruptDumps != 0 {
		t.Errorf("Reconcile listed %d times, want 2", 2-mem.InterruptDumps)
	}
}
