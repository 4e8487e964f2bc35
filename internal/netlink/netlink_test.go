package netlink

import (
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

// sampleFixture is a mixed-family socket set: v4, v4-mapped-v6, and native
// v6 peers, plus truncated-telemetry and zero-cwnd edge cases.
func sampleFixture() []core.Observation {
	return []core.Observation{
		{Dst: netip.MustParseAddr("10.1.2.3"), Cwnd: 42, RTT: 15 * time.Millisecond,
			BytesAcked: 123456, Retrans: 3, SegsOut: 900},
		{Dst: netip.MustParseAddr("192.168.7.9"), Cwnd: 10, RTT: 200 * time.Millisecond,
			BytesAcked: 1, SegsOut: 2},
		{Dst: netip.MustParseAddr("::ffff:172.16.0.8"), Cwnd: 77, RTT: 30 * time.Millisecond,
			BytesAcked: 999, Retrans: 1, SegsOut: 50},
		{Dst: netip.MustParseAddr("2001:db8::5"), Cwnd: 33, RTT: 95 * time.Millisecond,
			BytesAcked: 4242, SegsOut: 777},
	}
}

func newMemSampler(t *testing.T, mem *MemConn, cfg SamplerConfig) *Sampler {
	t.Helper()
	cfg.Dial = mem.Dialer()
	s, err := NewSampler(cfg)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	return s
}

func TestSamplerRoundTrip(t *testing.T) {
	want := sampleFixture()
	s := newMemSampler(t, &MemConn{Sockets: want}, SamplerConfig{})
	got, err := s.SampleConnections(nil)
	if err != nil {
		t.Fatalf("SampleConnections: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Steady state: same result into a reused buffer, same conn.
	again, err := s.SampleConnections(got[:0])
	if err != nil {
		t.Fatalf("second SampleConnections: %v", err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("second sample mismatch: %+v", again)
	}
}

func TestSamplerSkipsZeroCwnd(t *testing.T) {
	socks := []core.Observation{
		{Dst: netip.MustParseAddr("10.0.0.1"), Cwnd: 0, RTT: time.Millisecond},
		{Dst: netip.MustParseAddr("10.0.0.2"), Cwnd: 5, RTT: time.Millisecond},
	}
	s := newMemSampler(t, &MemConn{Sockets: socks}, SamplerConfig{})
	got, err := s.SampleConnections(nil)
	if err != nil {
		t.Fatalf("SampleConnections: %v", err)
	}
	if len(got) != 1 || got[0].Dst != socks[1].Dst {
		t.Fatalf("want only the cwnd>0 socket, got %+v", got)
	}
}

func TestSamplerSplitsDumpAcrossDatagrams(t *testing.T) {
	var socks []core.Observation
	for i := 0; i < 64; i++ {
		socks = append(socks, core.Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(1 + i%250)}),
			Cwnd: 10 + i,
		})
	}
	// A tiny MTU forces the dump across many datagrams, like real multi-skb
	// kernel dumps.
	s := newMemSampler(t, &MemConn{Sockets: socks, MTU: 600}, SamplerConfig{})
	got, err := s.SampleConnections(nil)
	if err != nil {
		t.Fatalf("SampleConnections: %v", err)
	}
	if len(got) != len(socks) {
		t.Fatalf("got %d observations, want %d", len(got), len(socks))
	}
}

func TestSamplerErrorClosesAndRedials(t *testing.T) {
	mem := &MemConn{Sockets: sampleFixture()}
	s := newMemSampler(t, mem, SamplerConfig{})
	mem.RecvErr = errors.New("boom")
	if _, err := s.SampleConnections(nil); err == nil {
		t.Fatal("want error when receive fails")
	}
	mem.RecvErr = nil
	got, err := s.SampleConnections(nil)
	if err != nil {
		t.Fatalf("sample after re-dial: %v", err)
	}
	if len(got) != len(mem.Sockets) {
		t.Fatalf("got %d observations after re-dial, want %d", len(got), len(mem.Sockets))
	}
}

func newMemRoutes(t *testing.T, mem *MemConn, cfg RoutesConfig) *Routes {
	t.Helper()
	cfg.Dial = mem.Dialer()
	r, err := NewRoutes(cfg)
	if err != nil {
		t.Fatalf("NewRoutes: %v", err)
	}
	return r
}

func TestRoutesProgramRecordsWire(t *testing.T) {
	mem := &MemConn{}
	r := newMemRoutes(t, mem, RoutesConfig{DeviceIndex: 3, Gateway: "10.0.0.1", SetInitRwnd: true})

	ops := []core.RouteOp{
		{Prefix: netip.MustParsePrefix("10.9.8.0/24"), Window: 40},
		{Prefix: netip.MustParsePrefix("2001:db8::/64"), Window: 12},
		{Prefix: netip.MustParsePrefix("10.9.9.7/32"), Clear: true},
	}
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("ProgramRoutes: %v", errs)
	}
	if len(mem.Routes) != len(ops) {
		t.Fatalf("recorded %d routes, want %d", len(mem.Routes), len(ops))
	}
	set := mem.Routes[0]
	if set.Del || set.Prefix != ops[0].Prefix || set.InitCwnd != 40 || set.InitRwnd != 40 {
		t.Fatalf("install decoded wrong: %+v", set)
	}
	if set.Gateway != netip.MustParseAddr("10.0.0.1") || set.OIF != 3 {
		t.Fatalf("install selectors wrong: %+v", set)
	}
	if set.Proto != rtprotStatic || set.Table != rtTableMain || set.Scope != rtScopeUniverse {
		t.Fatalf("install rtmsg fields wrong: %+v", set)
	}
	if v6 := mem.Routes[1]; v6.Prefix != ops[1].Prefix || v6.InitCwnd != 12 {
		t.Fatalf("v6 install decoded wrong: %+v", v6)
	}
	del := mem.Routes[2]
	if !del.Del || del.Prefix != ops[2].Prefix || del.InitCwnd != 0 {
		t.Fatalf("delete decoded wrong: %+v", del)
	}
	if del.Scope != rtScopeNowhere {
		t.Fatalf("delete must use the wildcard scope, got %d", del.Scope)
	}
}

func TestRoutesDeleteMirrorsSetSelectors(t *testing.T) {
	// On a multi-interface host the delete must carry the install's gateway
	// and interface, or RTM_DELROUTE can miss Riptide's route — or remove a
	// same-prefix route on another interface.
	mem := &MemConn{}
	r := newMemRoutes(t, mem, RoutesConfig{DeviceIndex: 3, Gateway: "10.0.0.1"})
	p := netip.MustParsePrefix("10.0.0.127/32")
	if err := r.SetInitCwnd(p, 80); err != nil {
		t.Fatalf("SetInitCwnd: %v", err)
	}
	if err := r.ClearInitCwnd(p); err != nil {
		t.Fatalf("ClearInitCwnd: %v", err)
	}
	if len(mem.Routes) != 2 {
		t.Fatalf("recorded %d routes, want 2", len(mem.Routes))
	}
	set, del := mem.Routes[0], mem.Routes[1]
	if !del.Del || del.Prefix != p {
		t.Fatalf("delete decoded wrong: %+v", del)
	}
	if del.Gateway != netip.MustParseAddr("10.0.0.1") || del.OIF != 3 {
		t.Fatalf("delete selectors = gw %v oif %d, want gw 10.0.0.1 oif 3", del.Gateway, del.OIF)
	}
	if del.Gateway != set.Gateway || del.OIF != set.OIF {
		t.Fatalf("delete selectors = gw %v oif %d, want the install's gw %v oif %d", del.Gateway, del.OIF, set.Gateway, set.OIF)
	}
}

func TestRoutesLinkScopeWithoutGateway(t *testing.T) {
	mem := &MemConn{}
	r := newMemRoutes(t, mem, RoutesConfig{DeviceIndex: 7})
	if err := r.SetInitCwnd(netip.MustParsePrefix("10.0.1.0/24"), 20); err != nil {
		t.Fatalf("SetInitCwnd: %v", err)
	}
	if got := mem.Routes[0]; got.Scope != rtScopeLink || got.OIF != 7 || got.Gateway.IsValid() {
		t.Fatalf("dev-only route should be link-scoped: %+v", got)
	}
}

func TestRoutesPerOpErrorAttribution(t *testing.T) {
	bad := netip.MustParsePrefix("10.0.0.2/32")
	mem := &MemConn{
		AckErrno: func(rt RecordedRoute, parsed bool) Errno {
			if !parsed {
				return EINVAL
			}
			if rt.Prefix == bad {
				return EEXIST
			}
			return 0
		},
	}
	// BatchSize 2 forces the five ops across three chunks; attribution must
	// survive chunking.
	r := newMemRoutes(t, mem, RoutesConfig{BatchSize: 2})
	ops := []core.RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.1/32"), Window: 10},
		{Prefix: bad, Window: 11},
		{Prefix: netip.MustParsePrefix("10.0.0.3/32"), Window: 12},
		{Prefix: netip.Prefix{}, Window: 13},                      // invalid: fails validation
		{Prefix: netip.MustParsePrefix("10.0.0.5/32"), Window: 0}, // bad window
	}
	errs := r.ProgramRoutes(ops)
	if errs == nil {
		t.Fatal("want per-op errors")
	}
	if len(errs) != len(ops) {
		t.Fatalf("got %d errors, want exactly %d", len(errs), len(ops))
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("clean ops must not fail: %v", errs)
	}
	if !errors.Is(errs[1], EEXIST) {
		t.Fatalf("op 1 should carry the kernel errno, got %v", errs[1])
	}
	if errs[3] == nil || !strings.Contains(errs[3].Error(), "invalid prefix") {
		t.Fatalf("op 3 should fail validation, got %v", errs[3])
	}
	if errs[4] == nil || !strings.Contains(errs[4].Error(), "must be >= 1") {
		t.Fatalf("op 4 should fail validation, got %v", errs[4])
	}
}

func TestRoutesConversationFailureFailsUnacked(t *testing.T) {
	mem := &MemConn{}
	r := newMemRoutes(t, mem, RoutesConfig{BatchSize: 8})
	mem.RecvErr = errors.New("wedged")
	ops := []core.RouteOp{
		{Prefix: netip.MustParsePrefix("10.0.0.1/32"), Window: 10},
		{Prefix: netip.MustParsePrefix("10.0.0.2/32"), Window: 10},
	}
	errs := r.ProgramRoutes(ops)
	if errs == nil || errs[0] == nil || errs[1] == nil {
		t.Fatalf("every op must fail when the conversation breaks: %v", errs)
	}
	// The conn was closed; clearing the fault lets the next batch re-dial.
	mem.RecvErr = nil
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("batch after re-dial: %v", errs)
	}
}

func TestRoutesListAndReconcile(t *testing.T) {
	mem := &MemConn{
		InstalledRoutes: []RecordedRoute{
			{Prefix: netip.MustParsePrefix("10.3.0.0/24"), Proto: rtprotStatic, InitCwnd: 40,
				Gateway: netip.MustParseAddr("10.0.0.1")},
			{Prefix: netip.MustParsePrefix("10.4.0.0/24"), Proto: 2 /* kernel */, InitCwnd: 10},
			{Prefix: netip.MustParsePrefix("10.5.0.0/24"), Proto: rtprotStatic, InitCwnd: 0},
		},
	}
	r := newMemRoutes(t, mem, RoutesConfig{})
	mine, err := r.ListRiptideRoutes()
	if err != nil {
		t.Fatalf("ListRiptideRoutes: %v", err)
	}
	if len(mine) != 1 || mine[0].Prefix != mem.InstalledRoutes[0].Prefix {
		t.Fatalf("want only the proto-static initcwnd route, got %+v", mine)
	}
	if mine[0].InitCwnd != 40 || mine[0].Proto != rtprotStatic || mine[0].Gateway != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("installed-route fields wrong: %+v", mine[0])
	}
	removed, err := r.Reconcile()
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if len(mem.Routes) != 1 || !mem.Routes[0].Del || mem.Routes[0].Prefix != mine[0].Prefix {
		t.Fatalf("reconcile should withdraw exactly the stale route: %+v", mem.Routes)
	}
}

// mixedRouteTable is a main table holding Riptide's routes — proto static
// with an initcwnd metric, v4 host and prefix routes and a v6 prefix — among
// routes Riptide must leave alone: a DHCP default, a kernel link route, and a
// static route without initcwnd.
func mixedRouteTable() []RecordedRoute {
	return []RecordedRoute{
		{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Proto: 16 /* dhcp */, Gateway: netip.MustParseAddr("10.0.0.1"), OIF: 2},
		{Prefix: netip.MustParsePrefix("10.0.0.0/24"), Proto: 2 /* kernel */, Scope: rtScopeLink, OIF: 2},
		{Prefix: netip.MustParsePrefix("10.0.0.127/32"), Proto: rtprotStatic, InitCwnd: 80, Gateway: netip.MustParseAddr("10.0.0.1"), OIF: 2},
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Proto: rtprotStatic, InitCwnd: 50, OIF: 2},
		{Prefix: netip.MustParsePrefix("192.168.9.9/32"), Proto: rtprotStatic, Gateway: netip.MustParseAddr("10.0.0.1"), OIF: 2},
		{Prefix: netip.MustParsePrefix("2001:db8::/32"), Proto: rtprotStatic, InitCwnd: 40, OIF: 2},
	}
}

func TestRoutesListRiptideRoutes(t *testing.T) {
	r := newMemRoutes(t, &MemConn{InstalledRoutes: mixedRouteTable()}, RoutesConfig{})
	mine, err := r.ListRiptideRoutes()
	if err != nil {
		t.Fatalf("ListRiptideRoutes: %v", err)
	}
	// static + initcwnd: 10.0.0.127/32, 10.1.0.0/16, 2001:db8::/32.
	want := map[netip.Prefix]int{
		netip.MustParsePrefix("10.0.0.127/32"): 80,
		netip.MustParsePrefix("10.1.0.0/16"):   50,
		netip.MustParsePrefix("2001:db8::/32"): 40,
	}
	if len(mine) != len(want) {
		t.Fatalf("riptide routes = %+v, want %d", mine, len(want))
	}
	for _, rt := range mine {
		if w, ok := want[rt.Prefix]; !ok || rt.InitCwnd != w {
			t.Errorf("listed %v initcwnd %d, want one of %v", rt.Prefix, rt.InitCwnd, want)
		}
	}
}

func TestRoutesReconcileRemovesStaleRoutes(t *testing.T) {
	mem := &MemConn{InstalledRoutes: mixedRouteTable()}
	r := newMemRoutes(t, mem, RoutesConfig{})
	removed, err := r.Reconcile()
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	dels := 0
	for _, rt := range mem.Routes {
		if rt.Del {
			dels++
		}
	}
	if dels != 3 || len(mem.Routes) != 3 {
		t.Errorf("route messages = %+v, want 3 deletes and nothing else", mem.Routes)
	}
}

// TestRoutesReconcilePartialFailure: one stale route the kernel refuses to
// withdraw must not stop the others, and the error names the refused prefix.
func TestRoutesReconcilePartialFailure(t *testing.T) {
	stuck := netip.MustParsePrefix("10.4.0.0/24")
	mem := &MemConn{
		AckErrno: func(rt RecordedRoute, parsed bool) Errno {
			if rt.Prefix == stuck {
				return EPERM
			}
			return 0
		},
	}
	for _, p := range []string{"10.3.0.0/24", "10.4.0.0/24", "10.5.0.0/24"} {
		mem.InstalledRoutes = append(mem.InstalledRoutes,
			RecordedRoute{Prefix: netip.MustParsePrefix(p), Proto: rtprotStatic, InitCwnd: 40})
	}
	r := newMemRoutes(t, mem, RoutesConfig{})
	removed, err := r.Reconcile()
	if removed != 2 {
		t.Errorf("removed %d, want 2 (the others must still be withdrawn)", removed)
	}
	if !errors.Is(err, EPERM) || !strings.Contains(err.Error(), stuck.String()) {
		t.Errorf("Reconcile error = %v, want EPERM naming %v", err, stuck)
	}
}

func TestRoutesProbe(t *testing.T) {
	// The default MemConn rejects the deliberately malformed probe route
	// with EINVAL — which is exactly the "permitted" verdict.
	r := newMemRoutes(t, &MemConn{}, RoutesConfig{})
	if err := r.Probe(); err != nil {
		t.Fatalf("probe with EINVAL ack should pass: %v", err)
	}
	denied := &MemConn{AckErrno: func(RecordedRoute, bool) Errno { return EPERM }}
	r = newMemRoutes(t, denied, RoutesConfig{})
	err := r.Probe()
	if err == nil || !errors.Is(err, EPERM) {
		t.Fatalf("probe under EPERM must fail with the errno, got %v", err)
	}
}

func TestNewRoutesRejectsBadConfig(t *testing.T) {
	if _, err := NewRoutes(RoutesConfig{Dial: (&MemConn{}).Dialer(), BatchSize: -1}); err == nil {
		t.Fatal("negative batch size must be rejected")
	}
	if _, err := NewRoutes(RoutesConfig{Dial: (&MemConn{}).Dialer(), Gateway: "not-an-ip"}); err == nil {
		t.Fatal("unparsable gateway must be rejected")
	}
}

func TestErrnoStrings(t *testing.T) {
	for e, want := range map[Errno]string{
		EPERM:      "EPERM",
		ENOENT:     "ENOENT",
		ESRCH:      "ESRCH",
		EACCES:     "EACCES",
		EEXIST:     "EEXIST",
		EINVAL:     "EINVAL",
		Errno(999): "errno 999",
	} {
		if got := e.Error(); !strings.Contains(got, want) {
			t.Errorf("Errno(%d).Error() = %q, want mention of %q", int32(e), got, want)
		}
	}
}

func TestApplyTCPInfoTruncated(t *testing.T) {
	// Older kernels send shorter tcp_info structs; fields beyond the payload
	// must stay zero rather than read garbage.
	full := make([]byte, tcpInfoLen)
	ne.PutUint32(full[tcpiSndCwndOff:], 55)
	ne.PutUint32(full[tcpiRttOff:], 2000)
	var o core.Observation
	applyTCPInfo(&o, full[:tcpiSndCwndOff+4]) // cut right after snd_cwnd
	if o.Cwnd != 55 || o.RTT != 2*time.Millisecond {
		t.Fatalf("fields within payload must decode: %+v", o)
	}
	if o.Retrans != 0 || o.BytesAcked != 0 || o.SegsOut != 0 {
		t.Fatalf("fields beyond payload must stay zero: %+v", o)
	}
	// The same payload through the dump decoder, into a pooled slot that
	// still holds an old observation: "stay zero" must hold there too, with
	// spare capacity (c 4) and on the growth path (c 0).
	data := encodeDiagMsgRaw(nil, [4]byte{10, 0, 0, 1}, tcpEstablished, full[:tcpiSndCwndOff+4])
	want := core.Observation{Dst: netip.MustParseAddr("10.0.0.1"), Cwnd: 55, RTT: 2 * time.Millisecond}
	for _, c := range []int{4, 0} {
		obs, _, err := ParseDiagDump(poisoned(0, c), data, 0)
		if err != nil || len(obs) != 1 {
			t.Fatalf("cap %d: got %d observations, err %v", c, len(obs), err)
		}
		if obs[0] != want { // Retrans, BytesAcked, SegsOut all zero
			t.Fatalf("cap %d: stale fields survived the decode:\n got %+v\nwant %+v", c, obs[0], want)
		}
	}
}

func TestSamplerProbe(t *testing.T) {
	mem := &MemConn{}
	s := newMemSampler(t, mem, SamplerConfig{})
	if err := s.Probe(); err != nil {
		t.Fatalf("sampler probe over MemConn: %v", err)
	}
	mem.RecvErr = EPERM
	if err := s.Probe(); !errors.Is(err, EPERM) {
		t.Fatalf("probe of an unreadable dump must fail with the errno, got %v", err)
	}
}
