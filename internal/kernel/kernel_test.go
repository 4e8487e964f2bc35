package kernel

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func addr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func prefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

type fakeConn struct{ snap ConnSnapshot }

func (f *fakeConn) SnapshotTo(s *ConnSnapshot) { *s = f.snap }

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(netip.Addr{}); err == nil {
		t.Error("invalid address accepted")
	}
}

func TestDefaultInitCwnd(t *testing.T) {
	h := newHost(t)
	if got := h.InitCwndFor(addr(t, "10.0.0.2")); got != DefaultInitCwnd {
		t.Errorf("InitCwndFor = %d, want default %d", got, DefaultInitCwnd)
	}
}

func TestSetDefaultInitCwnd(t *testing.T) {
	h := newHost(t)
	if err := h.SetDefaultInitCwnd(0); err == nil {
		t.Error("zero default accepted")
	}
	if err := h.SetDefaultInitCwnd(16); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "10.0.0.2")); got != 16 {
		t.Errorf("InitCwndFor = %d, want 16", got)
	}
}

func TestAddRouteValidation(t *testing.T) {
	h := newHost(t)
	if err := h.AddRoute(Route{}); err == nil {
		t.Error("invalid prefix accepted")
	}
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.0.0.0/24"), InitCwnd: -1}); err == nil {
		t.Error("negative initcwnd accepted")
	}
}

func TestHostRouteOverridesInitCwnd(t *testing.T) {
	h := newHost(t)
	// Mirrors the paper's example: ip route add 10.0.0.127 ... initcwnd 80.
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.0.0.127/32"), InitCwnd: 80, Proto: "static"}); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "10.0.0.127")); got != 80 {
		t.Errorf("InitCwndFor(routed host) = %d, want 80", got)
	}
	if got := h.InitCwndFor(addr(t, "10.0.0.128")); got != DefaultInitCwnd {
		t.Errorf("InitCwndFor(other host) = %d, want default", got)
	}
}

func TestLongestPrefixMatchWins(t *testing.T) {
	h := newHost(t)
	for _, r := range []Route{
		{Prefix: prefix(t, "10.0.0.0/8"), InitCwnd: 20},
		{Prefix: prefix(t, "10.1.0.0/16"), InitCwnd: 40},
		{Prefix: prefix(t, "10.1.2.0/24"), InitCwnd: 60},
		{Prefix: prefix(t, "10.1.2.3/32"), InitCwnd: 80},
	} {
		if err := h.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		dst  string
		want int
	}{
		{"10.1.2.3", 80},
		{"10.1.2.4", 60},
		{"10.1.3.1", 40},
		{"10.9.9.9", 20},
		{"192.168.1.1", DefaultInitCwnd},
	}
	for _, tt := range tests {
		if got := h.InitCwndFor(addr(t, tt.dst)); got != tt.want {
			t.Errorf("InitCwndFor(%s) = %d, want %d", tt.dst, got, tt.want)
		}
	}
}

func TestRouteWithZeroInitCwndFallsBack(t *testing.T) {
	h := newHost(t)
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.0.0.0/24")}); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "10.0.0.5")); got != DefaultInitCwnd {
		t.Errorf("route without initcwnd gave %d, want kernel default", got)
	}
}

func TestDefaultRouteZeroPrefix(t *testing.T) {
	h := newHost(t)
	def := prefix(t, "0.0.0.0/0")
	if err := h.AddRoute(Route{Prefix: def, InitCwnd: 24}); err != nil {
		t.Fatal(err)
	}
	// The /0 matches every destination, like `ip route replace default`.
	for _, dst := range []string{"10.0.0.9", "192.0.2.1", "255.255.255.255"} {
		if got := h.InitCwndFor(addr(t, dst)); got != 24 {
			t.Errorf("InitCwndFor(%s) = %d, want 24 from the default route", dst, got)
		}
	}

	// Any longer prefix beats the /0.
	if err := h.AddRoute(Route{Prefix: prefix(t, "192.0.2.0/24"), InitCwnd: 64}); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "192.0.2.1")); got != 64 {
		t.Errorf("InitCwndFor(192.0.2.1) = %d, want 64 (the /24, not the /0)", got)
	}
	if got := h.InitCwndFor(addr(t, "198.51.100.1")); got != 24 {
		t.Errorf("InitCwndFor(198.51.100.1) = %d, want 24 (back to the /0)", got)
	}

	// Withdrawing the /0 restores the kernel default everywhere else.
	if !h.DelRoute(def) {
		t.Fatal("DelRoute(/0) found nothing")
	}
	if got := h.InitCwndFor(addr(t, "198.51.100.1")); got != DefaultInitCwnd {
		t.Errorf("InitCwndFor after /0 removal = %d, want kernel default %d", got, DefaultInitCwnd)
	}
	if r, ok := h.Lookup(addr(t, "192.0.2.1")); !ok || r.Prefix != prefix(t, "192.0.2.0/24") {
		t.Errorf("Lookup(192.0.2.1) = %v,%v, want the surviving /24", r, ok)
	}
}

// TestZeroInitCwndShadowsBroaderOverride pins the Linux metric semantics:
// only the longest-prefix-match route's metrics apply. A /32 without an
// initcwnd shadows a /8 that sets one — the connection starts at the kernel
// default, not at the broader route's window.
func TestZeroInitCwndShadowsBroaderOverride(t *testing.T) {
	h := newHost(t)
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.0.0.0/8"), InitCwnd: 50}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.1.2.3/32")}); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.3")); got != DefaultInitCwnd {
		t.Errorf("InitCwndFor(10.1.2.3) = %d, want kernel default %d (the /32 shadows the /8)",
			got, DefaultInitCwnd)
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.4")); got != 50 {
		t.Errorf("InitCwndFor(10.1.2.4) = %d, want 50 from the /8", got)
	}
	if r, ok := h.Lookup(addr(t, "10.1.2.3")); !ok || r.Prefix.Bits() != 32 {
		t.Errorf("Lookup(10.1.2.3) = %v,%v, want the /32", r, ok)
	}
}

func TestOverlappingSiblingPrefixes(t *testing.T) {
	h := newHost(t)
	for _, r := range []Route{
		{Prefix: prefix(t, "10.1.2.0/24"), InitCwnd: 30},
		{Prefix: prefix(t, "10.1.2.0/25"), InitCwnd: 60},
		{Prefix: prefix(t, "10.1.2.128/25"), InitCwnd: 90},
	} {
		if err := h.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.5")); got != 60 {
		t.Errorf("lower /25 half: got %d, want 60", got)
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.200")); got != 90 {
		t.Errorf("upper /25 half: got %d, want 90", got)
	}
	// Removing one /25 uncovers the /24 beneath it; the sibling half is
	// untouched.
	if !h.DelRoute(prefix(t, "10.1.2.0/25")) {
		t.Fatal("DelRoute(/25) found nothing")
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.5")); got != 30 {
		t.Errorf("after /25 removal: got %d, want 30 from the /24", got)
	}
	if got := h.InitCwndFor(addr(t, "10.1.2.200")); got != 90 {
		t.Errorf("sibling /25 after removal: got %d, want 90", got)
	}
}

func TestAddRouteReplaces(t *testing.T) {
	h := newHost(t)
	p := prefix(t, "10.2.0.0/16")
	_ = h.AddRoute(Route{Prefix: p, InitCwnd: 30})
	_ = h.AddRoute(Route{Prefix: p, InitCwnd: 90})
	if h.RouteCount() != 1 {
		t.Errorf("RouteCount = %d, want 1 (replace, not duplicate)", h.RouteCount())
	}
	if got := h.InitCwndFor(addr(t, "10.2.1.1")); got != 90 {
		t.Errorf("InitCwndFor = %d, want 90", got)
	}
}

func TestAddRouteMasksPrefix(t *testing.T) {
	h := newHost(t)
	// Unmasked prefix (host bits set) must normalize like iproute2 does.
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.3.7.9/16"), InitCwnd: 33}); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(addr(t, "10.3.200.200")); got != 33 {
		t.Errorf("InitCwndFor = %d, want 33 via masked /16", got)
	}
	if !h.DelRoute(prefix(t, "10.3.0.0/16")) {
		t.Error("DelRoute by masked form failed")
	}
}

func TestDelRoute(t *testing.T) {
	h := newHost(t)
	p := prefix(t, "10.0.0.42/32")
	_ = h.AddRoute(Route{Prefix: p, InitCwnd: 77})
	if !h.DelRoute(p) {
		t.Error("DelRoute = false for existing route")
	}
	if h.DelRoute(p) {
		t.Error("DelRoute = true for missing route")
	}
	if got := h.InitCwndFor(addr(t, "10.0.0.42")); got != DefaultInitCwnd {
		t.Errorf("InitCwndFor after delete = %d, want default (paper: TTL expiry restores IW10)", got)
	}
}

func TestRoutesSortedMostSpecificFirst(t *testing.T) {
	h := newHost(t)
	_ = h.AddRoute(Route{Prefix: prefix(t, "10.0.0.0/8"), InitCwnd: 1})
	_ = h.AddRoute(Route{Prefix: prefix(t, "10.1.1.1/32"), InitCwnd: 2})
	_ = h.AddRoute(Route{Prefix: prefix(t, "10.1.0.0/16"), InitCwnd: 3})
	rs := h.Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes len = %d", len(rs))
	}
	if rs[0].Prefix.Bits() != 32 || rs[1].Prefix.Bits() != 16 || rs[2].Prefix.Bits() != 8 {
		t.Errorf("Routes not sorted by specificity: %v", rs)
	}
}

func TestRegisterUnregister(t *testing.T) {
	h := newHost(t)
	if _, err := h.Register(nil); err == nil {
		t.Error("nil snapshotter accepted")
	}
	c := &fakeConn{snap: ConnSnapshot{Cwnd: 42, Dst: addr(t, "10.0.0.9"), RTT: 120 * time.Millisecond}}
	id, err := h.Register(c)
	if err != nil {
		t.Fatal(err)
	}
	if h.ConnCount() != 1 {
		t.Errorf("ConnCount = %d, want 1", h.ConnCount())
	}
	snaps := h.Connections()
	if len(snaps) != 1 || snaps[0].Cwnd != 42 || snaps[0].ID != id {
		t.Errorf("Connections = %+v", snaps)
	}
	if !h.Unregister(id) {
		t.Error("Unregister = false")
	}
	if h.Unregister(id) {
		t.Error("double Unregister = true")
	}
	if h.ConnCount() != 0 {
		t.Errorf("ConnCount after unregister = %d", h.ConnCount())
	}
}

// TestConnectionsDeterministicOrder: a dump lists the rows in slot order —
// registration order until something closes — so two dumps of an unchanged
// table agree row for row.
func TestConnectionsDeterministicOrder(t *testing.T) {
	h := newHost(t)
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := h.Register(&fakeConn{snap: ConnSnapshot{Cwnd: i}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	snaps := h.Connections()
	for i, s := range snaps {
		if s.ID != ids[i] || s.Cwnd != i {
			t.Fatalf("row %d = id %d cwnd %d, want id %d cwnd %d (registration order)", i, s.ID, s.Cwnd, ids[i], i)
		}
	}
	if again := h.Connections(); !slices.Equal(again, snaps) {
		t.Errorf("a second dump of the same table = %v, want %v", again, snaps)
	}
}

// TestUnregisterSlotOrder: closing the connection in row k moves the last
// row into row k and leaves every other row where it was, so the agent's
// positional compare sees one changed position and one leave instead of a
// shift of every row after k.
func TestUnregisterSlotOrder(t *testing.T) {
	const n = 12
	for k := 0; k < n; k++ {
		h := newHost(t)
		for i := 0; i < n; i++ {
			if _, err := h.Register(&fakeConn{snap: ConnSnapshot{Cwnd: i}}); err != nil {
				t.Fatal(err)
			}
		}
		before := h.Connections()
		if !h.Unregister(before[k].ID) {
			t.Fatalf("Unregister(row %d) = false", k)
		}
		after := h.Connections()
		if len(after) != n-1 {
			t.Fatalf("k=%d: %d rows after one close, want %d", k, len(after), n-1)
		}
		for i := range after {
			switch {
			case i == k:
				if after[i] != before[n-1] {
					t.Errorf("k=%d: row %d = %+v, want the last row %+v moved into the hole", k, i, after[i], before[n-1])
				}
			case after[i] != before[i]:
				t.Errorf("k=%d: row %d moved: %+v, was %+v", k, i, after[i], before[i])
			}
		}
	}
}

// linearLookup is the route lookup Host had before it indexed routes by
// prefix length — test every route, keep the longest match — kept here as the
// reference the indexed lookup is checked against.
func linearLookup(routes map[netip.Prefix]Route, dst netip.Addr) (Route, bool) {
	best, found := Route{}, false
	for _, r := range routes {
		if r.Prefix.Contains(dst) && (!found || r.Prefix.Bits() > best.Prefix.Bits()) {
			best, found = r, true
		}
	}
	return best, found
}

// Property: after any sequence of AddRoute / DelRoute / ApplyRoutes edits
// over a mixed IPv4/IPv6 route set — defaults (/0), overlapping siblings,
// replaced routes, routes whose zero initcwnd shadows a broader override,
// deletes of absent prefixes — Lookup and InitCwndFor agree with a linear
// scan of a model table for IPv4, IPv6, IPv4-mapped, zoned and zero addresses.
func TestLookupLongestMatchProperty(t *testing.T) {
	bases := []netip.Addr{
		netip.MustParseAddr("10.20.30.40"),
		netip.MustParseAddr("10.20.30.41"), // sibling under every prefix up to /31
		netip.MustParseAddr("10.20.200.1"),
		netip.MustParseAddr("192.0.2.7"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8::2"),
		netip.MustParseAddr("2001:db8:ffff::9"),
		netip.MustParseAddr("::ffff:10.20.30.40"),
	}
	probes := append([]netip.Addr{
		{},
		netip.MustParseAddr("10.20.31.1"),
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("2001:db9::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("2001:db8::1%eth0"),
	}, bases...)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHost(t)
		model := make(map[netip.Prefix]Route)
		randomRoute := func() Route {
			base := bases[rng.Intn(len(bases))]
			bits := rng.Intn(base.BitLen() + 1)
			if rng.Intn(4) == 0 {
				bits = []int{0, base.BitLen(), base.BitLen() - 8}[rng.Intn(3)]
			}
			// Unmasked on purpose: the host must mask it.
			return Route{Prefix: netip.PrefixFrom(base, bits), InitCwnd: rng.Intn(4) * 20, Proto: "static"}
		}
		for step := 0; step < 300; step++ {
			switch r := randomRoute(); rng.Intn(4) {
			case 0:
				if err := h.AddRoute(r); err != nil {
					t.Fatal(err)
				}
				model[r.Prefix.Masked()] = Route{Prefix: r.Prefix.Masked(), InitCwnd: r.InitCwnd, Proto: r.Proto}
			case 1:
				_, want := model[r.Prefix.Masked()]
				if got := h.DelRoute(r.Prefix); got != want {
					t.Fatalf("seed %d step %d: DelRoute(%v) = %v, want %v", seed, step, r.Prefix, got, want)
				}
				delete(model, r.Prefix.Masked())
			default:
				batch := make([]RouteUpdate, 1+rng.Intn(6))
				for i := range batch {
					u := RouteUpdate{Route: randomRoute(), Delete: rng.Intn(3) == 0}
					batch[i] = u
					if key := u.Route.Prefix.Masked(); u.Delete {
						delete(model, key)
					} else {
						model[key] = Route{Prefix: key, InitCwnd: u.Route.InitCwnd, Proto: u.Route.Proto}
					}
				}
				if errs := h.ApplyRoutes(batch); errs != nil {
					t.Fatalf("seed %d step %d: ApplyRoutes: %v", seed, step, errs)
				}
			}
			if h.RouteCount() != len(model) {
				t.Fatalf("seed %d step %d: RouteCount = %d, model has %d", seed, step, h.RouteCount(), len(model))
			}
			for _, dst := range probes {
				want, wantOK := linearLookup(model, dst)
				got, ok := h.Lookup(dst)
				if ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: Lookup(%v) = %+v %v, linear scan says %+v %v", seed, step, dst, got, ok, want, wantOK)
				}
				wantIW := DefaultInitCwnd
				if wantOK && want.InitCwnd != 0 {
					wantIW = want.InitCwnd
				}
				if iw := h.InitCwndFor(dst); iw != wantIW {
					t.Fatalf("seed %d step %d: InitCwndFor(%v) = %d, want %d", seed, step, dst, iw, wantIW)
				}
			}
		}
		// Emptying the table must leave no length marked as installed.
		for key := range model {
			h.DelRoute(key)
		}
		if h.lens4 != [33]int{} || h.lens6 != [129]int{} {
			t.Fatalf("seed %d: per-length counts not zero on an empty table: %v %v", seed, h.lens4, h.lens6)
		}
	}
}

// TestConnTableDifferential drives random Register / Unregister (live,
// repeated and never-issued ids) / AppendConnections interleavings and checks
// every result against a reference table: a slice of rows in slot order,
// where a close moves the last row into the hole.
func TestConnTableDifferential(t *testing.T) {
	type row struct {
		id uint64
		c  *fakeConn
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHost(t)
		var model []row
		var issued []uint64
		var buf []ConnSnapshot
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				c := &fakeConn{snap: ConnSnapshot{Cwnd: rng.Intn(1000), BytesAcked: int64(step)}}
				id, err := h.Register(c)
				if err != nil {
					t.Fatal(err)
				}
				if len(issued) > 0 && id <= issued[len(issued)-1] {
					t.Fatalf("seed %d step %d: id %d reused or not ascending", seed, step, id)
				}
				model = append(model, row{id, c})
				issued = append(issued, id)
			case op < 8:
				id := uint64(rng.Intn(len(issued) + 3)) // 0 and ids past the last are never issued
				if len(issued) > 0 && rng.Intn(2) == 0 {
					id = issued[rng.Intn(len(issued))] // live or already unregistered
				}
				i := slices.IndexFunc(model, func(r row) bool { return r.id == id })
				if got := h.Unregister(id); got != (i >= 0) {
					t.Fatalf("seed %d step %d: Unregister(%d) = %v, want %v", seed, step, id, got, i >= 0)
				}
				if i >= 0 {
					model[i] = model[len(model)-1]
					model = model[:len(model)-1]
				}
			default:
				var want []ConnSnapshot
				for _, r := range model {
					snap := r.c.snap
					snap.ID = r.id
					want = append(want, snap)
				}
				buf = h.AppendConnections(buf[:0])
				if !slices.Equal(buf, want) {
					t.Fatalf("seed %d step %d: AppendConnections = %v, want %v", seed, step, buf, want)
				}
			}
			if h.ConnCount() != len(model) {
				t.Fatalf("seed %d step %d: ConnCount = %d, want %d", seed, step, h.ConnCount(), len(model))
			}
		}
	}
}

// TestUnregisterClearsVacatedSlot: the row a close vacates at the tail of
// the table's backing array holds no reference to a connection, so a closed
// connection is not kept reachable by the table.
func TestUnregisterClearsVacatedSlot(t *testing.T) {
	h := newHost(t)
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, err := h.Register(&fakeConn{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	h.Unregister(ids[1])
	h.Unregister(ids[3])
	for i, ref := range h.conns[len(h.conns):cap(h.conns)] {
		if ref != (connRef{}) {
			t.Errorf("vacated slot %d still holds %+v", len(h.conns)+i, ref)
		}
	}
}

// TestAppendConnectionsConcurrentRegister samples the table from several
// goroutines while others open and close connections. Run under -race it
// checks the scratch pool and the table are safe to share; in any mode every
// sample must hold no connection twice and keep the 25 permanent connections
// in their registration slots, since only rows after them ever close.
func TestAppendConnectionsConcurrentRegister(t *testing.T) {
	h := newHost(t)
	for i := 0; i < 25; i++ {
		if _, err := h.Register(&fakeConn{snap: ConnSnapshot{Cwnd: i}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id, err := h.Register(&fakeConn{snap: ConnSnapshot{Cwnd: i}})
				if err != nil {
					t.Error(err)
					return
				}
				if !h.Unregister(id) {
					t.Errorf("Unregister(%d) = false for a live id", id)
				}
			}
		}()
		go func() {
			defer wg.Done()
			var buf []ConnSnapshot
			for i := 0; i < 500; i++ {
				buf = h.AppendConnections(buf[:0])
				if len(buf) < 25 {
					t.Errorf("sample holds %d connections, the 25 permanent ones are missing", len(buf))
					continue
				}
				for j := 0; j < 25; j++ {
					if buf[j].ID != uint64(j+1) {
						t.Errorf("slot %d holds id %d, want permanent id %d", j, buf[j].ID, j+1)
					}
				}
				seen := make(map[uint64]bool, len(buf))
				for _, s := range buf {
					if seen[s.ID] {
						t.Errorf("sample holds id %d twice", s.ID)
					}
					seen[s.ID] = true
				}
			}
		}()
	}
	wg.Wait()
	if h.ConnCount() != 25 {
		t.Errorf("ConnCount = %d, want 25", h.ConnCount())
	}
}

// Property: deleting every installed route restores the default initcwnd for
// any destination.
func TestDeleteRestoresDefaultProperty(t *testing.T) {
	f := func(dstOctets [4]uint8, bitsRaw uint8) bool {
		h, err := NewHost(netip.MustParseAddr("10.0.0.1"))
		if err != nil {
			return false
		}
		dst := netip.AddrFrom4([4]byte(dstOctets))
		p, err := dst.Prefix(int(bitsRaw) % 33)
		if err != nil {
			return false
		}
		if err := h.AddRoute(Route{Prefix: p, InitCwnd: 55}); err != nil {
			return false
		}
		if h.InitCwndFor(dst) != 55 {
			return false
		}
		h.DelRoute(p)
		return h.InitCwndFor(dst) == DefaultInitCwnd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyRoutesAllSuccessReturnsNil(t *testing.T) {
	h := newHost(t)
	updates := []RouteUpdate{
		{Route: Route{Prefix: prefix(t, "10.0.0.0/24"), InitCwnd: 40}},
		{Route: Route{Prefix: prefix(t, "10.0.1.0/24"), InitCwnd: 20}},
	}
	if errs := h.ApplyRoutes(updates); errs != nil {
		t.Fatalf("ApplyRoutes = %v, want nil", errs)
	}
	if h.RouteCount() != 2 {
		t.Errorf("RouteCount = %d, want 2", h.RouteCount())
	}
	if got := h.InitCwndFor(addr(t, "10.0.1.9")); got != 20 {
		t.Errorf("InitCwndFor = %d, want 20", got)
	}
}

func TestApplyRoutesPerSlotErrors(t *testing.T) {
	h := newHost(t)
	if err := h.AddRoute(Route{Prefix: prefix(t, "10.0.9.0/24"), InitCwnd: 30}); err != nil {
		t.Fatal(err)
	}
	updates := []RouteUpdate{
		{Route: Route{Prefix: netip.Prefix{}, InitCwnd: 40}},           // invalid prefix
		{Route: Route{Prefix: prefix(t, "10.0.0.0/24"), InitCwnd: -1}}, // negative initcwnd
		{Route: Route{Prefix: prefix(t, "10.0.5.0/24")}, Delete: true}, // delete absent: tolerated
		{Route: Route{Prefix: prefix(t, "10.0.9.0/24")}, Delete: true}, // delete existing
		{Route: Route{Prefix: prefix(t, "10.0.1.5/24"), InitCwnd: 28}}, // install, masked
	}
	errs := h.ApplyRoutes(updates)
	if errs == nil {
		t.Fatal("invalid updates accepted")
	}
	if len(errs) != len(updates) {
		t.Fatalf("len(errs) = %d, want one slot per update", len(errs))
	}
	if errs[0] == nil || errs[1] == nil {
		t.Errorf("invalid updates not rejected: %v", errs)
	}
	for i := 2; i < len(updates); i++ {
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil (one bad update must not abort the batch)", i, errs[i])
		}
	}
	if _, ok := h.Lookup(addr(t, "10.0.9.1")); ok {
		t.Error("batched delete did not remove the route")
	}
	r, ok := h.Lookup(addr(t, "10.0.1.200"))
	if !ok || r.Prefix != prefix(t, "10.0.1.0/24") || r.InitCwnd != 28 {
		t.Errorf("batched install = %+v ok=%v, want masked 10.0.1.0/24 iw=28", r, ok)
	}
}

func TestAppendConnectionsReusesCallerBuffer(t *testing.T) {
	h := newHost(t)
	for i := 0; i < 3; i++ {
		snap := ConnSnapshot{Dst: addr(t, "10.0.0.9"), Cwnd: 10 + i}
		if _, err := h.Register(&fakeConn{snap: snap}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]ConnSnapshot, 0, 8)
	out := h.AppendConnections(buf)
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	if &out[0] != &buf[0:1][0] {
		t.Error("AppendConnections reallocated despite sufficient capacity")
	}
	for i, s := range out {
		if s.Cwnd != 10+i {
			t.Errorf("slot %d holds cwnd %d, want %d (slot order is registration order)", i, s.Cwnd, 10+i)
		}
	}
	// Appending after existing elements preserves them.
	sentinel := ConnSnapshot{ID: 999}
	out2 := h.AppendConnections([]ConnSnapshot{sentinel})
	if len(out2) != 4 || out2[0].ID != 999 {
		t.Errorf("append after sentinel = %v", out2)
	}
}

// TestAggregationShadowingTransitions pins the LPM semantics the agent's
// prefix aggregation relies on: a covering route and a child route coexist
// with the child winning; withdrawing the child mid-stream falls traffic
// back to the covering route with no gap; and withdrawing the covering
// route leaves remaining children serving. Every aggregate transition
// (form: install parent then clear children; split: reinstall child;
// dissolve: reinstall children then clear parent) is a sequence of these
// steps, so none of them can ever route a destination to the kernel
// default.
func TestAggregationShadowingTransitions(t *testing.T) {
	h := newHost(t)
	child := Route{Prefix: prefix(t, "10.1.2.3/32"), InitCwnd: 48}
	parent := Route{Prefix: prefix(t, "10.1.2.0/24"), InitCwnd: 32}
	dst := addr(t, "10.1.2.3")
	sibling := addr(t, "10.1.2.9")

	// Formation order: covering route first, then the child withdrawal.
	if err := h.AddRoute(child); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoute(parent); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(dst); got != 48 {
		t.Errorf("child shadowing parent: InitCwndFor = %d, want 48", got)
	}
	if got := h.InitCwndFor(sibling); got != 32 {
		t.Errorf("sibling under parent: InitCwndFor = %d, want 32", got)
	}
	if !h.DelRoute(child.Prefix) {
		t.Fatal("child withdrawal failed")
	}
	if got := h.InitCwndFor(dst); got != 32 {
		t.Errorf("after absorb: InitCwndFor = %d, want 32 (covering route)", got)
	}

	// Split: the specific route returns and instantly wins LPM again.
	if err := h.AddRoute(child); err != nil {
		t.Fatal(err)
	}
	if got := h.InitCwndFor(dst); got != 48 {
		t.Errorf("after split: InitCwndFor = %d, want 48", got)
	}

	// Dissolution order: children are back first, then the covering route
	// goes; the child keeps serving and only the sibling returns to the
	// kernel default.
	if !h.DelRoute(parent.Prefix) {
		t.Fatal("parent withdrawal failed")
	}
	if got := h.InitCwndFor(dst); got != 48 {
		t.Errorf("after dissolve: InitCwndFor = %d, want 48", got)
	}
	if got := h.InitCwndFor(sibling); got != DefaultInitCwnd {
		t.Errorf("sibling after dissolve: InitCwndFor = %d, want default %d", got, DefaultInitCwnd)
	}
}

// The benchmarks below run at the sizes measured on the sim-34pop workload:
// ≈25 connections per agent tick and 29-33 routes per host.

var benchSink int

func BenchmarkHostAppendConnections(b *testing.B) {
	h, err := NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		snap := ConnSnapshot{Dst: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), Cwnd: 10 + i}
		if _, err := h.Register(&fakeConn{snap: snap}); err != nil {
			b.Fatal(err)
		}
	}
	buf := h.AppendConnections(make([]ConnSnapshot, 0, 32)) // warms the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = h.AppendConnections(buf[:0])
	}
	benchSink = len(buf)
}

func BenchmarkHostLookup(b *testing.B) {
	h, err := NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	dsts := make([]netip.Addr, 0, 34)
	for i := 0; i < 32; i++ {
		dst := netip.AddrFrom4([4]byte{10, 0, byte(i), 1})
		dsts = append(dsts, dst)
		if err := h.AddRoute(Route{Prefix: netip.PrefixFrom(dst, 32), InitCwnd: 40, Proto: "static"}); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []string{"10.0.40.0/24", "0.0.0.0/0"} {
		if err := h.AddRoute(Route{Prefix: netip.MustParsePrefix(p), InitCwnd: 20}); err != nil {
			b.Fatal(err)
		}
	}
	// One destination per /32, one under the /24 only, one under the default only.
	dsts = append(dsts, netip.MustParseAddr("10.0.40.9"), netip.MustParseAddr("10.9.9.9"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.InitCwndFor(dsts[i%len(dsts)])
	}
}
