package core

import (
	"cmp"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// TestPackPrefix: packing is one-to-one on IPv4 prefixes, its unsigned order
// is comparePrefix's, unpackPrefix inverts it, and nothing else packs.
func TestPackPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var v4 []netip.Prefix
	for i := 0; i < 500; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(3)), byte(r.Intn(3)), 0, byte(r.Intn(256))})
		v4 = append(v4, netip.PrefixFrom(a, r.Intn(33)))
	}
	v4 = append(v4, netip.MustParsePrefix("0.0.0.0/0"), netip.MustParsePrefix("255.255.255.255/32"))
	for _, p := range v4 {
		k, ok := packPrefix(p)
		if !ok || unpackPrefix(k) != p {
			t.Fatalf("%v packs to %#x (%v), unpacks to %v", p, k, ok, unpackPrefix(k))
		}
		for _, q := range v4[:20] {
			kq, _ := packPrefix(q)
			if got, want := cmp.Compare(k, kq), comparePrefix(p, q); got != want {
				t.Errorf("packed order of %v vs %v is %d, comparePrefix says %d", p, q, got, want)
			}
		}
	}
	for _, p := range []netip.Prefix{
		netip.MustParsePrefix("::ffff:10.1.2.3/128"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 33), // invalid bits
		{},
	} {
		if k, ok := packPrefix(p); ok {
			t.Errorf("%v packed to %#x", p, k)
		}
	}
}

// TestStateIndexMatchesPrefixMap drives the index and a netip.Prefix map
// with the same random puts and deletes over a key pool where IPv4 prefixes
// share addresses across lengths, 4-in-6 twins sit beside their IPv4
// addresses, and IPv6 keys mix in; every get, size and each must agree.
func TestStateIndexMatchesPrefixMap(t *testing.T) {
	var pool []netip.Prefix
	for _, s := range []string{
		"10.1.2.0/24", "10.1.2.0/32", "10.1.2.0/0", "10.1.2.3/32", "0.0.0.0/0", "0.0.0.0/32",
		"::ffff:10.1.2.3/128", "::ffff:10.1.2.0/120", "::/0", "::/128", "2001:db8::/32", "2001:db8::7/128",
	} {
		pool = append(pool, netip.MustParsePrefix(s))
	}
	pool = append(pool, netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 40))
	r := rand.New(rand.NewSource(2))
	var x stateIndex
	// The reference maps each key to the window its latest state was put
	// with: every put is a new state with the step number as its window.
	ref := map[netip.Prefix]int{}
	tag := func(st *destState) int {
		if st == nil {
			return -1
		}
		return int(st.window)
	}
	for step := 0; step < 2000; step++ {
		p := pool[r.Intn(len(pool))]
		if r.Intn(3) == 0 {
			x.del(p)
			delete(ref, p)
		} else {
			x.put(p, &destState{entry: entry{window: int32(step)}})
			ref[p] = step
		}
		if step%50 == 0 {
			x = rebuiltIndex(&x) // what the retention rule does
		}
		for _, q := range append(pool, netip.Prefix{}) {
			want, ok := ref[q]
			if !ok {
				want = -1
			}
			if got := tag(x.get(q)); got != want {
				t.Fatalf("step %d: get(%v) holds the state of step %d, want %d", step, q, got, want)
			}
		}
		seen := map[netip.Prefix]int{}
		x.each(func(q netip.Prefix, st *destState) {
			if _, dup := seen[q]; dup {
				t.Fatalf("step %d: each visited %v twice", step, q)
			}
			seen[q] = tag(st)
		})
		if x.size() != len(ref) || !maps.Equal(seen, ref) {
			t.Fatalf("step %d: size %d, each %v; want %d, %v", step, x.size(), seen, len(ref), ref)
		}
	}
}

func rebuiltIndex(x *stateIndex) stateIndex {
	y := makeStateIndex(len(x.v4), len(x.other))
	x.each(y.put)
	return y
}

// clearLog is fakeRoutes recording its withdrawals in order.
type clearLog struct {
	*fakeRoutes
	cleared []netip.Prefix
}

func (c *clearLog) ClearInitCwnd(p netip.Prefix) error {
	c.cleared = append(c.cleared, p)
	return c.fakeRoutes.ClearInitCwnd(p)
}

// TestMixedFamilyTable runs one agent whose stream and merges mix IPv4
// prefixes of two lengths on one base address, IPv6 /128s, and ::ffff:a.b.c.d
// beside a.b.c.d (two destinations: the agent keys them apart), and holds
// every reader of the table to the programmed routes — a netip.Prefix map —
// through a forced retention rebuild and Close.
func TestMixedFamilyTable(t *testing.T) {
	stream := []string{"10.1.2.3", "10.1.2.0", "::ffff:10.1.2.3", "2001:db8::7", "2001:db8::8", "192.0.2.1"}
	merged := []string{
		"10.1.2.0/32", "10.1.2.0/24", "10.1.2.9/32", "::ffff:10.1.2.9/128",
		"::ffff:10.1.2.3/128", "2001:db8::9/128", "2001:db8::7/128", "198.51.100.0/24",
	}
	for _, tc := range []struct {
		name       string
		prefixBits int
		// twins are keys the stream must have installed as two destinations.
		twins [2]string
	}{
		{"stream at /24, merges at /32 and /128", 24, [2]string{"10.1.2.0/24", "::/24"}},
		{"stream at /32 and /128, merges at /24", 128, [2]string{"10.1.2.3/32", "::ffff:10.1.2.3/128"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			routes := &clearLog{fakeRoutes: newFakeRoutes()}
			sampler := &fakeSampler{}
			clock := &fakeClock{}
			a, err := New(Config{Sampler: sampler, Routes: routes, Clock: clock.fn(), PrefixBits: tc.prefixBits})
			if err != nil {
				t.Fatal(err)
			}
			var obs []Observation
			for i, s := range stream {
				obs = append(obs, Observation{Dst: netip.MustParseAddr(s), Cwnd: 20 + 7*i})
			}
			var snap []SnapshotEntry
			for i, s := range merged {
				snap = append(snap, SnapshotEntry{Prefix: netip.MustParsePrefix(s), Window: 30 + 3*i, Samples: 4})
			}
			tickOnce(t, a, sampler, obs)
			for _, s := range tc.twins {
				if _, ok := routes.set[netip.MustParsePrefix(s)]; !ok {
					t.Fatalf("stream did not install %s: %v", s, routes.set)
				}
			}
			ms, err := a.MergeSnapshot(snap, MergePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			if ms.Merged == 0 || ms.SkippedLocal == 0 || ms.Merged+ms.SkippedLocal != len(merged) {
				t.Fatalf("merge %+v: want some merged, some local, none lost", ms)
			}
			checkTableInvariants(t, a, "merge")
			clock.Advance(a.Config().UpdateInterval)
			obs[0].Cwnd = 90 // a stable round that moves one window
			tickOnce(t, a, sampler, obs)

			// Every stream key and every merged prefix is its own destination.
			var lookups []netip.Addr
			keys := map[netip.Prefix]bool{}
			for _, s := range stream {
				addr := netip.MustParseAddr(s)
				lookups = append(lookups, addr)
				keys[keyAt(addr, tc.prefixBits)] = true
			}
			for _, s := range merged {
				lookups = append(lookups, netip.MustParsePrefix(s).Addr())
				keys[netip.MustParsePrefix(s)] = true
			}
			if len(routes.set) != len(keys) {
				t.Fatalf("installed %v, want one route for each of %v", routes.set, keys)
			}
			for p := range routes.set {
				if !keys[p] {
					t.Fatalf("installed %v, want one route for each of %v", routes.set, keys)
				}
			}
			check := func(stage string) {
				t.Helper()
				checkTableMatches(t, stage, a, routes.set, lookups, tc.prefixBits)
			}
			check("after merge")

			a.tickMu.Lock()
			a.tab.peak = 1 << 20
			a.giveBack()
			a.tickMu.Unlock()
			if a.tab.peak != a.tab.states.size() {
				t.Fatalf("retention rebuild did not run: peak %d, size %d", a.tab.peak, a.tab.states.size())
			}
			check("after retention rebuild")
			clock.Advance(a.Config().UpdateInterval)
			obs[1].Cwnd = 91
			tickOnce(t, a, sampler, obs)
			check("a round after the rebuild")

			want := make([]netip.Prefix, 0, len(routes.set))
			for p := range routes.set {
				want = append(want, p)
			}
			slices.SortFunc(want, comparePrefix)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(routes.cleared, want) || len(routes.set) != 0 {
				t.Errorf("Close withdrew %v, want %v (left %v)", routes.cleared, want, routes.set)
			}
		})
	}
}

// checkTableMatches holds Entries, Lookup and a full ExportDeltaAppend to the
// programmed routes.
func checkTableMatches(t *testing.T, stage string, a *Agent, routes map[netip.Prefix]int, lookups []netip.Addr, prefixBits int) {
	t.Helper()
	entries := a.Entries()
	got := map[netip.Prefix]int{}
	for i, e := range entries {
		if i > 0 && comparePrefix(entries[i-1].Prefix, e.Prefix) >= 0 {
			t.Errorf("%s: Entries out of order at %d: %v then %v", stage, i, entries[i-1].Prefix, e.Prefix)
		}
		got[e.Prefix] = e.Window
	}
	if !maps.Equal(got, routes) {
		t.Errorf("%s: Entries %v, routes %v", stage, got, routes)
	}
	export, _ := a.ExportDeltaAppend(nil, 0)
	clear(got)
	for _, e := range export {
		got[e.Prefix] = e.Window
	}
	if len(export) != len(routes) || !maps.Equal(got, routes) {
		t.Errorf("%s: export %v, routes %v", stage, export, routes)
	}
	for _, addr := range lookups {
		want, wantOK := routes[keyAt(addr, prefixBits)]
		if w, ok := a.Lookup(addr); w != want || ok != wantOK {
			t.Errorf("%s: Lookup(%v) = %d, %v; want %d, %v", stage, addr, w, ok, want, wantOK)
		}
	}
}

// keyAt is the route key of addr at the given granularity.
func keyAt(addr netip.Addr, prefixBits int) netip.Prefix {
	if addr.Is4() {
		prefixBits = min(prefixBits, 32)
	}
	return netip.PrefixFrom(addr, prefixBits).Masked()
}
