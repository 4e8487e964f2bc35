package riptide

import (
	"net/netip"
	"slices"
	"testing"
	"time"
)

// Synthetic backends for the agent micro-benchmarks: an observed table of
// any size, samplers that replay it steady or churning, and route sinks
// that discard what the agent programs, so a benchmark measures the agent
// alone.

// syntheticObservations builds an n-connection observed table spanning many
// destination addresses with varied windows, RTTs, and byte counts — the
// shape of a busy production host's connection table. Addresses are unique
// up to 250^3 connections, and hosts fill /24s densely so
// prefix-aggregation runs see realistic covering groups.
func syntheticObservations(n int) []Observation {
	obs := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		obs = append(obs, Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd:       10 + i%90,
			RTT:        time.Duration(20+i%200) * time.Millisecond,
			BytesAcked: int64(i) * 1500,
		})
	}
	return obs
}

// staticSampler replays a fixed observation set, appending into the
// caller's pooled buffer per the ConnectionSampler contract. Because the
// copy lands in the agent's own (ping-ponged) buffers, successive rounds
// present equal observations in distinct backing arrays — the delta tick's
// element-compare path, not its identical-slice path.
type staticSampler []Observation

func (s staticSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	return append(buf, s...), nil
}

// fixedSampler returns the same backing slice every round — the shape of a
// sampler with a stable connection table and its own buffer. The delta tick
// recognises the identical slice and skips ingest and regrouping entirely.
type fixedSampler []Observation

func (s fixedSampler) SampleConnections([]Observation) ([]Observation, error) {
	return s, nil
}

// churnSampler replays a fixed table with a deterministic ~1 in frac of the
// entries' windows mutated each round, modelling steady-state sampling where
// a small slice of destinations is actually changing. The base table stays
// pristine and every round diverges from the previous one at ~2/frac of the
// indices. It alternates between two internal copies of the table — the
// slice handed out last round stays frozen while the other is repaired
// (its stale mutations reverted from base) and re-mutated, so the caller
// sees a fresh backing array each round without paying a full table copy.
type churnSampler struct {
	base []Observation
	bufs [2][]Observation
	muts [2][]int // positions mutated in each buffer, reverted on reuse
	frac int
	tick int
}

// newChurnSampler builds a churnSampler mutating 1 in frac entries per
// round.
func newChurnSampler(base []Observation, frac int) *churnSampler {
	return &churnSampler{base: base, frac: frac}
}

func (s *churnSampler) SampleConnections([]Observation) ([]Observation, error) {
	cur := s.tick & 1
	out := s.bufs[cur]
	if out == nil {
		out = slices.Clone(s.base)
	}
	for _, i := range s.muts[cur] {
		out[i] = s.base[i]
	}
	muts := s.muts[cur][:0]
	s.tick++
	n := len(out)
	for j := 0; j < n/s.frac; j++ {
		i := (j*9973 + s.tick*31337) % n
		o := &out[i]
		o.Cwnd = 10 + (o.Cwnd+s.tick+j)%90
		muts = append(muts, i)
	}
	s.bufs[cur] = out
	s.muts[cur] = muts
	return out, nil
}

// nopRoutes discards route programs.
type nopRoutes struct{}

func (nopRoutes) SetInitCwnd(netip.Prefix, int) error { return nil }
func (nopRoutes) ClearInitCwnd(netip.Prefix) error    { return nil }

// nopBatchRoutes is nopRoutes plus a no-op batch surface, exercising the
// agent's batched programming path.
type nopBatchRoutes struct{ nopRoutes }

func (nopBatchRoutes) ProgramRoutes([]RouteOp) []error { return nil }

// newSyntheticBackend builds an n-connection sampler, a per-op no-op route
// sink, and a fixed clock for agent micro-benchmarks.
func newSyntheticBackend(n int) (ConnectionSampler, RouteProgrammer, func() time.Duration) {
	return staticSampler(syntheticObservations(n)), nopRoutes{}, func() time.Duration { return 0 }
}

// busySampler is staticSampler on a busy kernel: every connection's
// BytesAcked advances each round, so no observation equals last round's and
// every block of the compare differs, while no window or destination moves.
type busySampler struct {
	base  []Observation
	round int64
}

func (s *busySampler) SampleConnections(buf []Observation) ([]Observation, error) {
	s.round++
	n := len(buf)
	buf = append(buf, s.base...)
	for i := range buf[n:] {
		buf[n+i].BytesAcked += s.round * 1448
	}
	return buf, nil
}

// newModeBackend picks the sampler matching a tick-series mode:
//   - delta-steady: the identical backing slice every round, so the tick
//     skips its compare (the delta tick's cheapest path);
//   - delta-copied: the same table copied into the agent's buffer, as the
//     netlink sampler decodes it, so every round compares and finds it equal;
//   - delta-busy: that copy with every BytesAcked advanced each round;
//   - delta-churn1pct: a deterministic 1-in-100 per-round window churn.
func newModeBackend(n int, mode string) (ConnectionSampler, RouteProgrammer, func() time.Duration) {
	base := syntheticObservations(n)
	var sampler ConnectionSampler
	switch mode {
	case "delta-steady":
		sampler = fixedSampler(base)
	case "delta-copied":
		sampler = staticSampler(base)
	case "delta-busy":
		sampler = &busySampler{base: base}
	case "delta-churn1pct":
		sampler = newChurnSampler(base, 100)
	default:
		panic("unknown tick-series mode " + mode)
	}
	return sampler, nopBatchRoutes{}, func() time.Duration { return 0 }
}

func TestSyntheticObservationsAreValidAndDistinct(t *testing.T) {
	// 70 000 crosses the 62 500 boundary where the second octet first moves.
	for _, n := range []int{0, 1, 1000, 70000} {
		obs := syntheticObservations(n)
		if len(obs) != n {
			t.Fatalf("syntheticObservations(%d) returned %d observations", n, len(obs))
		}
		seen := make(map[netip.Addr]bool, n)
		for i, o := range obs {
			if !o.Dst.IsValid() || o.Dst.IsUnspecified() || o.Cwnd < 1 || o.RTT <= 0 {
				t.Fatalf("n=%d: observation %d is not a usable sample: %+v", n, i, o)
			}
			if seen[o.Dst] {
				t.Fatalf("n=%d: destination %v repeats at index %d", n, o.Dst, i)
			}
			seen[o.Dst] = true
		}
	}
}

func TestFixedSamplerReturnsItsOwnBackingArray(t *testing.T) {
	s := fixedSampler(syntheticObservations(16))
	for round := 0; round < 3; round++ {
		got, err := s.SampleConnections(make([]Observation, 0, 32))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s) || &got[0] != &s[0] {
			t.Fatalf("round %d: fixedSampler handed out a different slice", round)
		}
	}
}

func TestChurnSampler(t *testing.T) {
	const n, frac, rounds = 1000, 100, 40
	base := syntheticObservations(n)
	pristine := slices.Clone(base)
	s, twin := newChurnSampler(base, frac), newChurnSampler(base, frac)

	var prev, prevCopy []Observation
	for round := 0; round < rounds; round++ {
		got, err := s.SampleConnections(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("round %d: %d observations, want %d", round, len(got), n)
		}
		// Exactly n/frac positions differ from the base table. (The window
		// rewrite is a no-op when round+j+11 is a multiple of 90; 40 rounds
		// of 10 mutations stay below that.)
		changed := 0
		for i := range got {
			if got[i] != pristine[i] {
				changed++
				if got[i].Dst != pristine[i].Dst {
					t.Fatalf("round %d: index %d changed destination, not window", round, i)
				}
			}
		}
		if changed != n/frac {
			t.Errorf("round %d: %d positions differ from base, want %d", round, changed, n/frac)
		}
		// The slice handed out last round is the agent's "previous sample":
		// it must stay frozen while this round's is built.
		if prev != nil {
			if &got[0] == &prev[0] {
				t.Fatalf("round %d: same backing array two rounds running", round)
			}
			if !slices.Equal(prev, prevCopy) {
				t.Fatalf("round %d: building this round mutated last round's slice", round)
			}
		}
		prev, prevCopy = got, slices.Clone(got)

		// A sampler built the same way replays the same rounds.
		again, err := twin.SampleConnections(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, again) {
			t.Fatalf("round %d: identically constructed samplers diverged", round)
		}
	}
	if !slices.Equal(base, pristine) {
		t.Error("churnSampler wrote into the base table it was given")
	}
}
