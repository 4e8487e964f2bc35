package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestObservationIsOneCacheLine pins Observation at 64 bytes with no padding:
// one cache line per socket for the decoder's stores and the compare's
// reads, and, since every byte belongs to a field, compareChunk's array ==
// over a block means field-wise == over each observation in it.
func TestObservationIsOneCacheLine(t *testing.T) {
	typ := reflect.TypeOf(Observation{})
	if typ.Size() != 64 {
		t.Errorf("Observation is %d bytes, want 64", typ.Size())
	}
	var end uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Offset != end {
			t.Errorf("%d bytes of padding before Observation.%s", f.Offset-end, f.Name)
		}
		end = f.Offset + f.Type.Size()
	}
	if end != typ.Size() {
		t.Errorf("%d bytes of padding after the last field", typ.Size()-end)
	}
}

// compareChunkPerPosition is compareChunk without blocks: every position of
// worker w's chunk is compared on its own. It is the reference the block
// compare must match exactly — verdict, bucket and sample cache.
func compareChunkPerPosition(a *Agent, w int, obs []Observation) bool {
	lo, hi := a.chunkOf(w, len(obs))
	prev, cache := a.obsPrev, a.cache
	budget := (hi-lo)/editShareDiv + editFloor
	bucket := &a.buckets[w]
	for i := lo; i < hi; i++ {
		o, c := &obs[i], &cache[i]
		if i < len(prev) {
			if a.sameInputs(o, &prev[i]) {
				continue
			}
			if !c.invalid {
				if o.Dst == prev[i].Dst && o.Cwnd > 0 {
					*bucket = append(*bucket, keyedObs{st: c.st, idx: int32(i)})
					continue
				}
				*bucket = append(*bucket, keyedObs{st: c.st, idx: int32(i), kind: obsLeave})
			}
		}
		if budget--; budget < 0 {
			return false
		}
		key, ok := a.validKey(o)
		if !ok {
			*c = cachedSample{invalid: true}
			continue
		}
		*c = cachedSample{key: key}
		*bucket = append(*bucket, keyedObs{key: key, idx: int32(i), kind: obsJoin})
	}
	if w == a.ingestWorkers-1 {
		for i := len(obs); i < len(prev); i++ {
			if budget--; budget < 0 {
				return false
			}
			if c := &cache[i]; !c.invalid {
				*bucket = append(*bucket, keyedObs{st: c.st, idx: int32(i), kind: obsLeave})
			}
		}
	}
	return true
}

// compareStream draws n observations over a few dozen destinations, about
// one in twenty of them invalid.
func compareStream(rng *rand.Rand, n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, 9, byte(rng.Intn(4)), byte(1 + rng.Intn(8))}),
			Cwnd:       10 + rng.Intn(50),
			RTT:        time.Duration(1+rng.Intn(200)) * time.Millisecond,
			BytesAcked: int64(i) * 1448,
			Retrans:    int64(rng.Intn(3)),
			SegsOut:    int64(100 + i),
		}
		if rng.Intn(20) == 0 {
			obs[i].Cwnd = 0
		}
	}
	return obs
}

// mutate changes one observation the way a kernel dump can between rounds:
// a counter or the window moves in place (dirty), the socket is replaced by
// one to another destination (leave and join), or it turns invalid or valid.
func mutate(rng *rand.Rand, o *Observation) {
	switch rng.Intn(5) {
	case 0:
		o.BytesAcked += 1448
	case 1:
		o.Cwnd++
	case 2:
		o.Dst = netip.AddrFrom4([4]byte{10, 9, byte(4 + rng.Intn(4)), byte(1 + rng.Intn(8))})
	case 3:
		o.Cwnd = 0
	case 4:
		o.SegsOut++
		if o.Cwnd == 0 {
			o.Cwnd = 7
		}
	}
}

// TestBlockCompareMatchesPerPosition is the block compare's differential:
// over random pairs of streams, the parallel compare workers must leave the
// verdicts, buckets and sample cache the per-position reference leaves. The
// edits fall on the first and last slot of blocks and at random; chunks
// start off block boundaries at scan widths 2 and 4; streams shrink, grow
// and keep their length, from shorter than one block to several chunks of
// blocks, with edit counts on both sides of the budget, under combiners that
// read the window, the window and BytesAcked, and every field.
func TestBlockCompareMatchesPerPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	widths := []int{1, 2, 4}
	combiners := []Combiner{AverageCombiner{}, TrafficWeightedCombiner{}, constCombiner{v: 20}}
	for trial := 0; trial < 300; trial++ {
		width := widths[trial%len(widths)]
		nPrev := rng.Intn(600)
		prev := compareStream(rng, nPrev)
		n := nPrev
		switch trial / len(widths) % 3 {
		case 1:
			n = rng.Intn(nPrev + 1) // shorter (or as long)
		case 2:
			n = nPrev + 1 + rng.Intn(80) // longer
		}
		obs := compareStream(rng, n)
		copy(obs, prev)

		a, err := New(Config{
			Sampler: fixedSampler(prev), Routes: nopRoutes{}, Clock: func() time.Duration { return 0 },
			Combiner: combiners[trial/(3*len(widths))%len(combiners)], // apart from the length case
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		a.ingestWorkers = width
		// Edits on block edges, block by block from each chunk's start.
		edits := rng.Intn(max(n/8, 1) + 1)
		for w := 0; w < width && n > 0; w++ {
			lo, hi := a.chunkOf(w, n)
			for blk := lo; blk < hi; blk += compareBlock {
				switch rng.Intn(4) {
				case 0:
					mutate(rng, &obs[blk])
				case 1:
					mutate(rng, &obs[min(blk+compareBlock, hi)-1])
				}
			}
		}
		for ; edits > 0 && n > 0; edits-- {
			mutate(rng, &obs[rng.Intn(n)])
		}

		base := a.cache[:nPrev]
		base = append(slices.Clone(base), make([]cachedSample, max(n-nPrev, 0))...)
		reset := func() {
			a.cache = slices.Clone(base)
			for w := range a.buckets {
				a.buckets[w] = a.buckets[w][:0]
			}
		}

		reset()
		wantOK := make([]bool, width)
		wantBuckets := make([][]keyedObs, width)
		for w := range wantOK {
			wantOK[w] = compareChunkPerPosition(a, w, obs)
			wantBuckets[w] = slices.Clone(a.buckets[w])
		}
		wantCache := a.cache

		reset()
		a.tickObs = obs
		runParallel(width, a.compareW)
		a.tickObs = nil

		label := fmt.Sprintf("trial %d (width %d, %d → %d observations)", trial, width, nPrev, n)
		if got := a.compareOK[:width]; !slices.Equal(got, wantOK) {
			t.Fatalf("%s: verdicts %v, want %v", label, got, wantOK)
		}
		for w := range wantBuckets {
			if !slices.Equal(a.buckets[w], wantBuckets[w]) {
				t.Fatalf("%s: worker %d bucket\n got %v\nwant %v", label, w, a.buckets[w], wantBuckets[w])
			}
		}
		if !slices.Equal(a.cache, wantCache) {
			t.Fatalf("%s: sample caches differ", label)
		}
		_ = a.Close()
	}
}
