package core

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"
)

// comparePrefix orders prefixes by address then mask length, for
// deterministic snapshots and programming order.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// prefixIdxBits is the width of the input index a sort key carries in its
// low bits, below the 38 bits of the prefix's packed key (packPrefix).
const prefixIdxBits = 26

// sortByPrefix sorts s into comparePrefix order of prefix(&s[i]), stably:
// the one prefix-order sort of the agent (route plans, withdrawal lists,
// entries, exports, merge plans). When every prefix is IPv4 — the common
// case — it packs each into an 8-byte sort key (the prefix's packed key, then
// the input index), whose unsigned order is comparePrefix's with ties in
// input order, sorts the integers, and then moves every element once into
// place. Anything else (IPv6, 4-in-6, an invalid prefix, more elements than
// the index holds) sorts bare input indices with the comparator, ties broken
// by index, and moves the elements the same way: the comparator reads the
// elements in place, so no comparison copies one to the heap. scratch holds
// the key array between calls.
func sortByPrefix[T any](s []T, scratch *[]uint64, prefix func(*T) netip.Prefix) {
	if len(s) < 2 {
		return
	}
	keys, ok := packPrefixKeys(slices.Grow((*scratch)[:0], len(s)), s, prefix)
	mask := uint64(1<<prefixIdxBits - 1)
	if ok {
		slices.Sort(keys)
	} else {
		keys, mask = keys[:0], ^uint64(0)
		for i := range s {
			keys = append(keys, uint64(i))
		}
		slices.SortFunc(keys, func(x, y uint64) int {
			if c := comparePrefix(prefix(&s[x]), prefix(&s[y])); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
	*scratch = keys
	// Position j takes the element at index keys[j]&mask. Each permutation
	// cycle is walked once; a placed position has its key's index rewritten
	// to itself, so later starts skip it.
	for i := range s {
		if int(keys[i]&mask) == i {
			continue
		}
		held := s[i]
		for j := i; ; {
			k := int(keys[j] & mask)
			keys[j] = keys[j]&^mask | uint64(j)
			if k == i {
				s[j] = held
				break
			}
			s[j] = s[k]
			j = k
		}
	}
}

// packPrefixKeys appends s's sort keys to keys, or reports false at the
// first prefix that does not pack.
func packPrefixKeys[T any](keys []uint64, s []T, prefix func(*T) netip.Prefix) ([]uint64, bool) {
	if len(s) > 1<<prefixIdxBits {
		return keys, false
	}
	for i := range s {
		k, ok := packPrefix(prefix(&s[i]))
		if !ok {
			return keys, false
		}
		keys = append(keys, k<<prefixIdxBits|uint64(i))
	}
	return keys, true
}

// sortPrefixes is sortByPrefix over bare prefixes.
func sortPrefixes(s []netip.Prefix, scratch *[]uint64) {
	sortByPrefix(s, scratch, func(p *netip.Prefix) netip.Prefix { return *p })
}

// readerKeys recycles the key arrays of the readers' sorts (Entries,
// ExportDeltaAppend), which run concurrently with each other and with the
// mutators; the mutators sort under tickMu into Agent.sortKeys.
var readerKeys = sync.Pool{New: func() any { return new([]uint64) }}

// sortByPrefixPooled is sortByPrefix with a key array from readerKeys.
func sortByPrefixPooled[T any](s []T, prefix func(*T) netip.Prefix) {
	scratch := readerKeys.Get().(*[]uint64)
	sortByPrefix(s, scratch, prefix)
	readerKeys.Put(scratch)
}
