package core

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// taggedPrefix carries its input position, so a sort's stability is visible.
type taggedPrefix struct {
	p   netip.Prefix
	pos int
}

// randomPrefixes draws n prefixes from a small address pool, so duplicates
// are common. v6Every > 0 mixes in an IPv6 prefix every v6Every draws on
// average, half of them 4-in-6.
func randomPrefixes(rng *rand.Rand, n, v6Every int) []taggedPrefix {
	out := make([]taggedPrefix, n)
	for i := range out {
		a4 := [4]byte{10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(6))}
		addr := netip.AddrFrom4(a4)
		bits := []int{0, 8, 24, 31, 32}[rng.Intn(5)]
		if v6Every > 0 && rng.Intn(v6Every) == 0 {
			if rng.Intn(2) == 0 {
				addr = netip.AddrFrom16(netip.AddrFrom4(a4).As16()) // 4-in-6
			} else {
				addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: a4[3]})
			}
			bits += 96
		}
		out[i] = taggedPrefix{p: netip.PrefixFrom(addr, bits), pos: i}
	}
	return out
}

// TestSortByPrefixMatchesComparePrefix pins the one prefix-order sort to the
// comparator it replaces: on all-IPv4 input (the packed-key path) and on
// input mixing IPv4, IPv6 and 4-in-6 prefixes (the fallback), the result is
// the stable comparePrefix order — equal prefixes keep their input order.
func TestSortByPrefixMatchesComparePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch []uint64 // reused, as the agent reuses its own
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		v6Every := 0
		if trial%3 == 2 {
			v6Every = 1 + rng.Intn(8)
		}
		in := randomPrefixes(rng, n, v6Every)
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(x, y taggedPrefix) int { return comparePrefix(x.p, y.p) })
		got := slices.Clone(in)
		sortByPrefix(got, &scratch, func(x *taggedPrefix) netip.Prefix { return x.p })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, v6Every=%d): sortByPrefix order differs from the stable comparePrefix order\n got  %v\n want %v",
				trial, n, v6Every, got, want)
		}
	}
}

// TestSortByPrefixFallsBack checks the packed path declines exactly what it
// cannot order: any IPv6, 4-in-6 or invalid prefix in the input.
func TestSortByPrefixFallsBack(t *testing.T) {
	v4 := []netip.Prefix{netip.MustParsePrefix("10.0.0.2/32"), netip.MustParsePrefix("10.0.0.1/32")}
	for _, tc := range []struct {
		extra netip.Prefix
		packs bool
	}{
		{netip.MustParsePrefix("10.0.0.0/8"), true},
		{netip.MustParsePrefix("0.0.0.0/0"), true},
		{netip.MustParsePrefix("2001:db8::1/128"), false},
		{netip.MustParsePrefix("::ffff:10.0.0.1/128"), false},
		{netip.Prefix{}, false},
		{netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 33), false},
	} {
		in := append(slices.Clone(v4), tc.extra)
		if _, ok := packPrefixKeys(nil, in, func(p *netip.Prefix) netip.Prefix { return *p }); ok != tc.packs {
			t.Errorf("%v: packs = %v, want %v", tc.extra, ok, tc.packs)
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, comparePrefix)
		sortPrefixes(in, new([]uint64))
		if !slices.Equal(in, want) {
			t.Errorf("%v: sorted %v, want %v", tc.extra, in, want)
		}
	}
}

// TestSortByPrefixFallbackOrder spells out the fallback's order on input the
// packed keys cannot hold: an invalid prefix first, then IPv4 before IPv6
// (4-in-6 included) by address and then mask length, equal prefixes in input
// order.
func TestSortByPrefixFallbackOrder(t *testing.T) {
	p := netip.MustParsePrefix
	in := []taggedPrefix{
		{p("2001:db8::2/128"), 0},
		{p("::ffff:10.0.0.1/128"), 1},
		{p("2001:db8::1/128"), 2},
		{p("10.0.0.1/32"), 3},
		{p("2001:db8::/64"), 4},
		{netip.Prefix{}, 5},
		{p("2001:db8::1/128"), 6},
		{p("10.0.0.0/8"), 7},
		{p("2001:db8::2/128"), 8},
		{p("::ffff:10.0.0.1/128"), 9},
	}
	want := []int{5, 7, 3, 1, 9, 4, 2, 6, 0, 8}
	got := slices.Clone(in)
	sortByPrefix(got, new([]uint64), func(x *taggedPrefix) netip.Prefix { return x.p })
	var order []int
	for _, x := range got {
		order = append(order, x.pos)
	}
	if !slices.Equal(order, want) {
		t.Errorf("sorted input positions %v, want %v", order, want)
	}
}

// TestSortByPrefixFallbackAllocatesNothing: the fallback sorts input indices
// and reads the elements in place, so ordering a 1 000-op plan of IPv6
// destinations (some repeated) allocates nothing once the key array is warm,
// and yields the stable comparePrefix order.
func TestSortByPrefixFallbackAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	states := make([]destState, 1000)
	plan := make([]programOp, len(states))
	for i := range states {
		addr := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 14: byte(rng.Intn(4)), 15: byte(rng.Intn(256))})
		states[i].key = netip.PrefixFrom(addr, 128)
		plan[i] = programOp{window: int32(i), st: &states[i]}
	}
	key := func(op *programOp) netip.Prefix { return op.st.key }
	want := slices.Clone(plan)
	slices.SortStableFunc(want, func(x, y programOp) int { return comparePrefix(x.st.key, y.st.key) })
	var scratch []uint64
	got := slices.Clone(plan)
	sortByPrefix(got, &scratch, key)
	if !slices.Equal(got, want) {
		t.Fatal("the IPv6 plan is not in stable comparePrefix order")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		copy(got, plan)
		sortByPrefix(got, &scratch, key)
	}); allocs != 0 {
		t.Errorf("sorting a %d-op IPv6 plan allocates %.0f times", len(plan), allocs)
	}
}
