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

// compareFullStream is the reference the record compare must match: worker
// w's chunk compared position by position against last round's whole
// stream, prev. A position keeps its group when it has the route key it had
// last round. Then it is no edit if its window is unchanged and the Combiner
// reads only windows, and a dirty edit otherwise; a window of 2^31 or more,
// which no record holds, counts as changed. A position ignored in both
// rounds is no edit. Any other change leaves last round's group and/or joins
// this round's, and costs one unit of the chunk's budget. The state of last
// round's group is the one the plan filled into the position's record; the
// record's word is never read.
func compareFullStream(a *Agent, w int, obs, prev []Observation) bool {
	lo, hi := a.chunkOf(w, len(obs))
	budget := (hi-lo)/editShareDiv + editFloor
	bucket := &a.buckets[w]
	for i := lo; i < hi; i++ {
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
				*bucket = append(*bucket, keyedObs{st: st, idx: int32(i)})
			}
			continue
		case wasOK:
			*bucket = append(*bucket, keyedObs{st: st, idx: int32(i), kind: obsLeave})
		case !ok:
			continue
		}
		if budget--; budget < 0 {
			return false
		}
		a.cache[i] = cachedSample{}
		if ok {
			*bucket = append(*bucket, keyedObs{key: key, idx: int32(i), kind: obsJoin})
		}
	}
	if w == a.roundWorkers-1 {
		for i := len(obs); i < len(prev); i++ {
			if _, ok := observedKey(a, &prev[i]); ok {
				if budget--; budget < 0 {
					return false
				}
				*bucket = append(*bucket, keyedObs{st: a.cache[i].st, idx: int32(i), kind: obsLeave})
			}
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

// recordRoundOutcome is what a round leaves that the compare decides: the
// verdicts, whether the round was stable, every group's member span, the
// groups a stable round dirtied, and the table.
type recordRoundOutcome struct {
	verdicts []bool
	stable   uint64
	spans    map[netip.Prefix][]int32
	dirty    []netip.Prefix
	entries  []Entry
}

func recordOutcome(a *Agent, width int) recordRoundOutcome {
	tb := &a.tab
	out := recordRoundOutcome{
		verdicts: slices.Clone(a.compareOK[:width]),
		stable:   a.mStable.Value(),
		spans:    map[netip.Prefix][]int32{},
		entries:  a.Entries(),
	}
	for _, st := range tb.touched {
		if tb.grouped(st) {
			out.spans[st.key] = slices.Clone(tb.memberIdx[st.memberOff : st.memberOff+st.prevN])
		}
	}
	for _, st := range tb.dirtyList {
		if tb.grouped(st) {
			out.dirty = append(out.dirty, st.key)
		}
	}
	slices.SortFunc(out.dirty, comparePrefix)
	return out
}

// TestRecordCompareMatchesFullStream is the record compare's differential:
// over random chains of three streams, an agent whose stable rounds compare
// each position with its 16-byte record must end every round as a twin
// whose compare reads last round's whole stream (compareFullStream) — the
// same verdicts, the same member spans, the same dirty groups, the same
// route ops and the same table. The streams mix IPv4, IPv6, 4-in-6, zoned
// and missing destinations with windows at and past 2^31; they keep their
// length, shrink and grow; the scans run 1, 2 and 4 wide, at /32 and /24
// granularity, under a Combiner that reads windows only, one that reads
// BytesAcked too, and one that reads nothing; and the edit counts fall on
// both sides of the budget.
func TestRecordCompareMatchesFullStream(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	widths := []int{1, 2, 4}
	combiners := []Combiner{AverageCombiner{}, TrafficWeightedCombiner{}, constCombiner{v: 20}}
	var stable, rebuilt int
	for trial := 0; trial < 240; trial++ {
		width := widths[trial%len(widths)]
		combiner := combiners[trial/len(widths)%len(combiners)]
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

		agents := [2]*Agent{}
		routes := [2]*recordingBatchRoutes{{}, {}}
		for k := range agents {
			a, err := New(Config{
				Sampler: &playbackSampler{rounds: streams}, Routes: routes[k],
				Clock: func() time.Duration { return 0 }, Combiner: combiner, PrefixBits: bits,
			})
			if err != nil {
				t.Fatal(err)
			}
			a.scanWorkers = width
			agents[k] = a
		}
		rec, ref := agents[0], agents[1]
		var prev []Observation
		var stableBefore uint64
		ref.compareW = func(w int) { ref.compareOK[w] = compareFullStream(ref, w, ref.tickObs, prev) }
		for r, obs := range streams {
			label := fmt.Sprintf("trial %d round %d (width %d, /%d, %s, %d → %d observations)", trial, r, width, bits, combiner.Name(), len(prev), len(obs))
			for _, a := range agents {
				if err := a.Tick(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkTableInvariants(t, a, label)
			}
			got, want := recordOutcome(rec, width), recordOutcome(ref, width)
			if r > 0 && !reflect.DeepEqual(got.verdicts, want.verdicts) {
				t.Fatalf("%s: verdicts %v, want %v", label, got.verdicts, want.verdicts)
			}
			if got.stable != want.stable {
				t.Fatalf("%s: %d stable rounds, want %d", label, got.stable, want.stable)
			}
			if !reflect.DeepEqual(got.spans, want.spans) {
				t.Fatalf("%s: member spans differ\n got %v\nwant %v", label, got.spans, want.spans)
			}
			if got.stable > stableBefore && !slices.Equal(got.dirty, want.dirty) {
				t.Fatalf("%s: dirty groups %v, want %v", label, got.dirty, want.dirty)
			}
			if !reflect.DeepEqual(got.entries, want.entries) {
				t.Fatalf("%s: tables differ\n got %v\nwant %v", label, got.entries, want.entries)
			}
			if g, w := routes[0].recorded(), routes[1].recorded(); !slices.Equal(g, w) {
				t.Fatalf("%s: route ops differ\n got %v\nwant %v", label, g, w)
			}
			prev, stableBefore = obs, got.stable
		}
		stable += int(rec.mStable.Value())
		rebuilt += int(rec.mRebuild.Value()) - 1
		for _, a := range agents {
			_ = a.Close()
		}
	}
	t.Logf("%d stable and %d rebuilt rounds after the first", stable, rebuilt)
	if stable == 0 || rebuilt == 0 {
		t.Errorf("%d stable and %d rebuilt rounds: the edits must fall on both sides of the budget", stable, rebuilt)
	}
}
