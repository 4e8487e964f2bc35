package core

import "slices"

// Scratch is a slice reused from one use to the next under one retention
// rule: the array is kept only when this use and the one before it were about
// the same size (within 2× + 1024 elements of each other). A use that jumps
// over its predecessor — first contact, a cold tick, a warm start — is served
// by one exact-size allocation and freed, never pinned through the idle or
// delta-sized rounds that follow; a use far below its predecessor drops what
// the bulk round left; a steady regime allocates once and reuses from its
// second round on. Not safe for concurrent use: the owner's lock covers it.
type Scratch[T any] struct {
	buf  []T
	prev int // size of the previous use
}

// Take returns an empty slice with room for n elements, on the kept array
// when there is one. Sizing up front matters: append-growing a large slice
// from nil allocates several times its final size on the way.
func (s *Scratch[T]) Take(n int) []T {
	return slices.Grow(s.buf[:0], n)
}

// Keep ends a use of size n — elements buf was sized for or grew to — and
// decides whether buf serves the next one.
func (s *Scratch[T]) Keep(buf []T, n int) {
	if n <= 2*s.prev+1024 && s.prev <= 2*n+1024 {
		s.buf = buf
	} else {
		s.buf = nil
	}
	s.prev = n
}

// The table's arrays reused from round to round — the plan and withdrawal
// lists, the scan buckets, the sort keys, the active list and the grouping,
// the observation streams and the sample cache, and the export log and the
// deadline heap as they compact and drain — follow one rule: an array
// is kept while rounds use a fair share of it, and the first round that uses
// far less of it (under 1/retainShare, past retainFloor elements) gives it
// back. A bulk round (a warm start's first tick, a full pull, a mass expiry)
// therefore keeps what it built for the round after it, and a converged agent
// holds what its table needs. The share is small on purpose: an array that
// the regime's periodic rebuilds fill again (a churning host's active list,
// about a tenth in use between them) must not be let go between them, or
// each rebuild allocates it afresh. The table map follows the same rule
// against its peak size.
const (
	retainShare = 32
	retainFloor = 1024
)

// farLess reports whether a round that used n elements of an array of
// capacity c used far less of it.
func farLess(n, c int) bool {
	return c > retainFloor && n < c/retainShare
}

// fit applies the rule to s, whose length is what this round used of it: s
// itself, or, when that is far less, its elements moved into an array twice
// their number (none for an empty s).
func fit[T any](s []T) []T {
	if !farLess(len(s), cap(s)) {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, 2*len(s)), s...)
}
