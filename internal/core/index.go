package core

import (
	"encoding/binary"
	"net/netip"
)

// packPrefix packs an IPv4 prefix into one integer: the address, then the
// prefix length in the low 6 bits. The packing is one-to-one, and unsigned
// order on packed keys is comparePrefix's order. It reports false for every
// other prefix (IPv6, 4-in-6, an invalid prefix).
func packPrefix(p netip.Prefix) (uint64, bool) {
	addr := p.Addr()
	if !addr.Is4() || p.Bits() < 0 {
		return 0, false
	}
	b := addr.As4()
	return uint64(binary.BigEndian.Uint32(b[:]))<<6 | uint64(p.Bits()), true
}

// unpackPrefix is packPrefix's inverse.
func unpackPrefix(k uint64) netip.Prefix {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(k>>6))
	return netip.PrefixFrom(netip.AddrFrom4(b), int(k&63))
}

// stateIndex maps route keys to destination states. An IPv4 prefix — the
// common case — is keyed by its packed integer, which Go's map hashes and
// compares in one word; every other key (IPv6, 4-in-6) is kept in a
// netip.Prefix map beside it. Both halves are made on first use. The table
// lock guards it like the rest of destTable.
type stateIndex struct {
	v4    map[uint64]*destState
	other map[netip.Prefix]*destState
}

// makeStateIndex returns an index with room for v4 IPv4 and other further
// keys.
func makeStateIndex(v4, other int) stateIndex {
	var x stateIndex
	if v4 > 0 {
		x.v4 = make(map[uint64]*destState, v4)
	}
	if other > 0 {
		x.other = make(map[netip.Prefix]*destState, other)
	}
	return x
}

// get returns p's state, nil when it has none.
func (x *stateIndex) get(p netip.Prefix) *destState {
	if k, ok := packPrefix(p); ok {
		return x.v4[k]
	}
	return x.other[p]
}

// put sets p's state.
func (x *stateIndex) put(p netip.Prefix, st *destState) {
	if k, ok := packPrefix(p); ok {
		if x.v4 == nil {
			x.v4 = make(map[uint64]*destState)
		}
		x.v4[k] = st
		return
	}
	if x.other == nil {
		x.other = make(map[netip.Prefix]*destState)
	}
	x.other[p] = st
}

// del removes p's state.
func (x *stateIndex) del(p netip.Prefix) {
	if k, ok := packPrefix(p); ok {
		delete(x.v4, k)
		return
	}
	delete(x.other, p)
}

// size returns the number of keys.
func (x *stateIndex) size() int {
	return len(x.v4) + len(x.other)
}

// each calls fn for every key and its state, in no particular order.
func (x *stateIndex) each(fn func(netip.Prefix, *destState)) {
	for k, st := range x.v4 {
		fn(unpackPrefix(k), st)
	}
	for p, st := range x.other {
		fn(p, st)
	}
}
