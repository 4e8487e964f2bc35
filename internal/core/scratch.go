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
