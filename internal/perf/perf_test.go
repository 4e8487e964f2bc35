package perf

import (
	"net/netip"
	"slices"
	"testing"

	"riptide/internal/core"
)

func TestSyntheticObservationsAreValidAndDistinct(t *testing.T) {
	// 70 000 crosses the 62 500 boundary where the second octet first moves.
	for _, n := range []int{0, 1, 1000, 70000} {
		obs := SyntheticObservations(n)
		if len(obs) != n {
			t.Fatalf("SyntheticObservations(%d) returned %d observations", n, len(obs))
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
	s := FixedSampler(SyntheticObservations(16))
	for round := 0; round < 3; round++ {
		got, err := s.SampleConnections(make([]core.Observation, 0, 32))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s) || &got[0] != &s[0] {
			t.Fatalf("round %d: FixedSampler handed out a different slice", round)
		}
	}
}

func TestChurnSampler(t *testing.T) {
	const n, frac, rounds = 1000, 100, 40
	base := SyntheticObservations(n)
	pristine := slices.Clone(base)
	s, twin := NewChurnSampler(base, frac), NewChurnSampler(base, frac)

	var prev, prevCopy []core.Observation
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
		t.Error("ChurnSampler wrote into the base table it was given")
	}
}
