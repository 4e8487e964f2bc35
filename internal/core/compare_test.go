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
// reads.
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

// observedKey is the reference's own keying: o's route key, or false for an
// observation the round ignores (no window, no address).
func observedKey(a *Agent, o *Observation) (netip.Prefix, bool) {
	if o.Cwnd <= 0 || !o.Dst.IsValid() {
		return netip.Prefix{}, false
	}
	key, err := a.destKey(o.Dst)
	return key, err == nil
}

// compareFullStream is the reference the record compare must match: the
// stream compared position by position against last round's whole stream,
// prev. A position keeps its group when it has the route key it had last
// round. Then it is no edit if its window is unchanged and the Combiner reads
// only windows, and a dirty edit otherwise; a window of 2^31 or more, which
// no record holds, counts as changed. A position ignored in both rounds is no
// edit. Any other change leaves last round's group and/or joins this round's,
// and costs one unit of the stream's budget. The state of last round's group
// is the one the plan filled into the position's record; the record's word is
// never read.
func compareFullStream(a *Agent, obs, prev []Observation) bool {
	budget := len(obs)/editShareDiv + editFloor
	edits := &a.edits
	for i := range obs {
		o, st := &obs[i], a.cache[i].st
		key, ok := observedKey(a, o)
		var was netip.Prefix
		wasOK := false
		if i < len(prev) {
			was, wasOK = observedKey(a, &prev[i])
		}
		switch {
		case wasOK && ok && key == was:
			if !a.cwndOnly || o.Cwnd != prev[i].Cwnd || o.Cwnd >= 1<<31 {
				*edits = append(*edits, keyedObs{st: st, idx: int32(i)})
			}
			continue
		case wasOK:
			*edits = append(*edits, keyedObs{st: st, idx: int32(i), kind: obsLeave})
		case !ok:
			continue
		}
		if budget--; budget < 0 {
			return false
		}
		a.cache[i] = cachedSample{}
		if ok {
			*edits = append(*edits, keyedObs{key: key, idx: int32(i), kind: obsJoin})
		}
	}
	for i := len(obs); i < len(prev); i++ {
		if _, ok := observedKey(a, &prev[i]); ok {
			if budget--; budget < 0 {
				return false
			}
			*edits = append(*edits, keyedObs{st: a.cache[i].st, idx: int32(i), kind: obsLeave})
		}
	}
	return true
}

// recordDst draws a destination of one of the kinds a record tells apart:
// IPv4 (four /24s of eight hosts), IPv6 (one /24, so one route key at both
// granularities the test uses), 4-in-6, a zoned link-local address, and no
// address at all.
func recordDst(rng *rand.Rand) netip.Addr {
	switch rng.Intn(10) {
	case 0:
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(1 + rng.Intn(8))})
	case 1:
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 13: 9, 14: byte(rng.Intn(4)), 15: byte(1 + rng.Intn(8))})
	case 2:
		return netip.AddrFrom16([16]byte{0xfe, 0x80, 15: byte(1 + rng.Intn(4))}).WithZone(fmt.Sprintf("eth%d", rng.Intn(2)))
	case 3:
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte{10, 9, byte(rng.Intn(4)), byte(1 + rng.Intn(8))})
}

// recordWindow draws a window: mostly an ordinary one, sometimes none, and
// sometimes one at or past 2^31, which no record can hold.
func recordWindow(rng *rand.Rand) int {
	switch rng.Intn(40) {
	case 0:
		return 0
	case 1:
		return 1<<31 - 1
	case 2:
		return 1 << 31
	case 3:
		return 1<<31 + 1 + rng.Intn(3)
	}
	return 10 + rng.Intn(50)
}

// recordStream draws n observations from recordDst and recordWindow.
func recordStream(rng *rand.Rand, n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			Dst:        recordDst(rng),
			Cwnd:       recordWindow(rng),
			RTT:        time.Duration(1+rng.Intn(200)) * time.Millisecond,
			BytesAcked: int64(i) * 1448,
			SegsOut:    int64(100 + i),
		}
	}
	return obs
}

// recordMutate changes one observation the way a kernel dump can between
// rounds: its counters move, its window moves (to none, or past 2^31), its
// socket is replaced by one to any destination, or by one to another
// destination under the same route key — another host of an IPv4 /24
// (which is a new key at /32), another IPv6 host, another zone.
func recordMutate(rng *rand.Rand, o *Observation) {
	switch rng.Intn(6) {
	case 0:
		o.BytesAcked += 1448
		o.SegsOut++
		o.RTT += time.Millisecond
	case 1:
		o.Cwnd = recordWindow(rng)
	case 2:
		o.Cwnd++
	case 3:
		o.Dst = recordDst(rng)
	case 4:
		switch {
		case o.Dst.Is4():
			b := o.Dst.As4()
			b[3] = byte(1 + rng.Intn(8))
			o.Dst = netip.AddrFrom4(b)
		case o.Dst.Zone() != "":
			o.Dst = o.Dst.WithZone(fmt.Sprintf("eth%d", rng.Intn(2)))
		case o.Dst.Is6():
			b := o.Dst.As16()
			b[15] = byte(1 + rng.Intn(8))
			o.Dst = netip.AddrFrom16(b)
		}
	case 5:
		o.Dst = netip.Addr{}
	}
}

// compareOn runs compare over a copy of a's records, extended to an n-long
// stream as Tick extends them, and returns its verdict and the edits it
// listed; a is left as it was.
func compareOn(a *Agent, n int, compare func() bool) (bool, []keyedObs) {
	saved := a.cache
	a.cache = append(slices.Clone(saved), make([]cachedSample, max(n-len(saved), 0))...)
	ok := compare()
	edits := slices.Clone(a.edits)
	a.cache, a.edits = saved, a.edits[:0]
	return ok, edits
}

// TestRecordCompareMatchesFullStream is the record compare's differential:
// over random chains of three streams, before each round the compare that
// reads each position's 16-byte record must give the verdict and list the
// edits, in order, of one that reads last round's whole stream
// (compareFullStream), from the same table; the round Tick then runs must be
// stable exactly when that verdict says so. The plan replays the edits and
// nothing else of the compare, so the same edits make the same member spans,
// dirty groups, route ops and table. The streams mix IPv4, IPv6, 4-in-6,
// zoned and missing destinations with windows at and past 2^31; they keep
// their length, shrink and grow; they run at /32 and /24 granularity, under a
// Combiner that reads windows only, one that reads BytesAcked too, and one
// that reads nothing; and the edit counts fall on both sides of the budget.
func TestRecordCompareMatchesFullStream(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	combiners := []Combiner{AverageCombiner{}, TrafficWeightedCombiner{}, constCombiner{v: 20}}
	var stable, rebuilt int
	for trial := 0; trial < 240; trial++ {
		combiner := combiners[trial%len(combiners)]
		bits := []int{32, 24}[trial/9%2]
		streams := [][]Observation{recordStream(rng, rng.Intn(1200))}
		for r := 1; r < 3; r++ {
			prev := streams[r-1]
			n := len(prev)
			switch rng.Intn(3) {
			case 1:
				n = rng.Intn(n + 1)
			case 2:
				n += 1 + rng.Intn(80)
			}
			obs := recordStream(rng, n)
			copy(obs, prev)
			for edits := rng.Intn(max(n/5, 1) + 1); edits > 0 && n > 0; edits-- {
				recordMutate(rng, &obs[rng.Intn(n)])
			}
			streams = append(streams, obs)
		}

		a, err := New(Config{
			Sampler: &playbackSampler{rounds: streams}, Routes: &recordingBatchRoutes{},
			Clock: func() time.Duration { return 0 }, Combiner: combiner, PrefixBits: bits,
		})
		if err != nil {
			t.Fatal(err)
		}
		var prev []Observation
		for r, obs := range streams {
			label := fmt.Sprintf("trial %d round %d (/%d, %s, %d → %d observations)", trial, r, bits, combiner.Name(), len(prev), len(obs))
			// Tick compares when it has a grouping with tail room to patch.
			tb := &a.tab
			compared := a.havePrev && len(obs) > 0 && tb.fullSeq != 0 && len(tb.memberIdx) <= tb.memberLimit
			want := false
			if compared {
				var wantEdits []keyedObs
				want, wantEdits = compareOn(a, len(obs), func() bool { return compareFullStream(a, obs, prev) })
				got, gotEdits := compareOn(a, len(obs), func() bool { return a.compareStream(obs) })
				if got != want {
					t.Fatalf("%s: verdict %v, want %v", label, got, want)
				}
				if !slices.Equal(gotEdits, wantEdits) {
					t.Fatalf("%s: edits differ\n got %v\nwant %v", label, gotEdits, wantEdits)
				}
			}
			before := a.mStable.Value()
			if err := a.Tick(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkTableInvariants(t, a, label)
			if got := a.mStable.Value() > before; got != want {
				t.Fatalf("%s: round stable %v, want %v", label, got, want)
			}
			prev = obs
		}
		stable += int(a.mStable.Value())
		rebuilt += int(a.mRebuild.Value()) - 1
		_ = a.Close()
	}
	t.Logf("%d stable and %d rebuilt rounds after the first", stable, rebuilt)
	if stable == 0 || rebuilt == 0 {
		t.Errorf("%d stable and %d rebuilt rounds: the edits must fall on both sides of the budget", stable, rebuilt)
	}
}
