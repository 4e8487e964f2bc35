package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"riptide/internal/allocbudget"
)

// tableBytes is the heap an n-destination table needs between rounds when
// every destination has one socket: per destination, its state, its map
// slot, its export-log ref, its grouping entry and member index, and its
// position in the sample cache and in the one observation stream. A quiet
// round reads nothing else.
func tableBytes(n int) int64 {
	per := unsafe.Sizeof(destState{}) +
		unsafe.Sizeof(netip.Prefix{}) + unsafe.Sizeof((*destState)(nil)) +
		unsafe.Sizeof(exportRef{}) +
		unsafe.Sizeof((*destState)(nil)) + unsafe.Sizeof(int32(0)) +
		unsafe.Sizeof(cachedSample{}) +
		unsafe.Sizeof(Observation{})
	return int64(n) * int64(per)
}

// TestQuietTicksGiveBackWarmStart: a warm start's first tick keeps what it
// built (TestWarmStartAllocs), and the quiet rounds after it give back every
// array they use far less of — the round's plan, its sort keys, the spare
// active list — so a converged agent holds little more than its table needs.
func TestQuietTicksGiveBackWarmStart(t *testing.T) {
	clock := &fakeClock{}
	a, err := New(Config{Sampler: newEditSampler(warmStartDests, 0), Routes: &batchNop{}, Clock: clock.fn()})
	if err != nil {
		t.Fatal(err)
	}
	heap := allocbudget.Mark(t)
	for i := 0; i < 11; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if n := a.Len(); n != warmStartDests {
		t.Fatalf("agent learned %d destinations, want %d", n, warmStartDests)
	}
	if got := a.mStable.Value(); got != 10 {
		t.Fatalf("%d of the 10 quiet rounds were stable", got)
	}
	kept, need := heap.Retained(), tableBytes(warmStartDests)
	ratio := float64(kept) / float64(need)
	t.Logf("after 10 quiet ticks the agent keeps %d bytes, %.2f× the %d its table needs", kept, ratio, need)
	if ratio > 1.3 {
		t.Errorf("a converged agent keeps %d bytes, %.2f× the %d its table needs: want at most 1.3×", kept, ratio, need)
	}
	runtime.KeepAlive(a)
}

// TestMassExpiryGivesBackTable: when every merged entry expires at once, the
// rounds after the withdrawal give back what the table held — the map Go
// never shrinks, the slab block, the expiry list and its sort keys — and
// the agent keeps under a tenth of it.
func TestMassExpiryGivesBackTable(t *testing.T) {
	entries := make([]SnapshotEntry, warmStartDests)
	for i := range entries {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		entries[i] = SnapshotEntry{Prefix: netip.PrefixFrom(addr, 32), Window: 10 + i%90, Samples: 5, Age: time.Second}
	}
	clock := &fakeClock{}
	routes := &batchNop{}
	a, err := New(Config{Sampler: &fakeSampler{}, Routes: routes, Clock: clock.fn()})
	if err != nil {
		t.Fatal(err)
	}
	heap := allocbudget.Mark(t)
	if st, err := a.MergeSnapshot(entries, MergePolicy{}); err != nil || st.Merged != len(entries) {
		t.Fatalf("merge: %+v, %v", st, err)
	}
	held := heap.Retained()
	clock.Advance(DefaultTTL)
	for i := 0; i < 3; i++ {
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if n, s := a.Len(), a.Stats(); n != 0 || s.EntriesExpired != uint64(len(entries)) {
		t.Fatalf("after the TTL: %d entries left, %d expired", n, s.EntriesExpired)
	}
	kept := heap.Retained()
	t.Logf("table held %d bytes; after the mass expiry the agent keeps %d", held, kept)
	if kept*10 >= held {
		t.Errorf("after %d entries expired the agent keeps %d of the %d bytes its table held", len(entries), kept, held)
	}
	// The drained agent still learns: the table grows back from nothing.
	if st, err := a.MergeSnapshot(entries[:100], MergePolicy{}); err != nil || st.Merged != 100 || a.Len() != 100 {
		t.Fatalf("merge after the drain: %+v, %v, %d entries", st, err, a.Len())
	}
	runtime.KeepAlive(entries)
	runtime.KeepAlive(a)
}

// moveSampler is a host whose sockets move on: every round, moves of them
// go to a never-seen destination and as many more report a new window.
type moveSampler struct {
	set   []Observation
	moves int
	round int
	next  uint32 // next never-seen destination
}

func newMoveSampler(n, moves int) *moveSampler {
	s := &moveSampler{set: make([]Observation, n), moves: moves, next: 11 << 24}
	for i := range s.set {
		s.set[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), Cwnd: 10 + i%90}
	}
	return s
}

func (s *moveSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	s.round++
	for j := 0; j < s.moves; j++ {
		o := &s.set[(s.round*7919+j*104729)%len(s.set)]
		o.Dst = netip.AddrFrom4([4]byte{byte(s.next >> 24), byte(s.next >> 16), byte(s.next >> 8), byte(s.next)})
		s.next++
		s.set[(s.round*31337+j*9973)%len(s.set)].Cwnd = 10 + (s.round+j)%90
	}
	return append(buf, s.set...), nil
}

// TestChurningTableStaysSized: a table whose destinations come and go holds
// slots for the destinations it has, not for every one it has seen. Over 13
// TTLs, 1 % of 8 000 sockets move to a never-seen destination every round,
// and a pool of merged entries expires and is merged again every round: the
// table must hold no more than live + live/8 slots, plus the uncarved rest of
// one slab block, and the agent no more than 1.3× the bytes its table needs.
// A table that never recarves a deleted state's slot grows by the rounds'
// deletions instead (about 80 slots a round here).
func TestChurningTableStaysSized(t *testing.T) {
	const socks, moves, ttl, rounds = 8000, 80, 10 * time.Second, 130
	const block = 4096 // the slab's largest block
	sampler := newMoveSampler(socks, moves)
	// 2 000 merged destinations, 200 merged each round with 6 s of their
	// TTL spent: each expires 4 s on and is merged again 10 rounds later.
	pool := make([]SnapshotEntry, 2000)
	for i := range pool {
		addr := netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)})
		pool[i] = SnapshotEntry{Prefix: netip.PrefixFrom(addr, 32), Window: 10 + i%90, Samples: 5, Age: 6 * time.Second}
	}
	clock := &fakeClock{}
	heap := allocbudget.Mark(t)
	a, err := New(Config{Sampler: sampler, Routes: &batchNop{}, Clock: clock.fn(), TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	tb := &a.tab
	held := func() (live, slots int) {
		live = tb.states.size()
		return live, live + len(tb.spare) + len(tb.slab) - tb.slabOff
	}
	for r := 0; r < rounds; r++ {
		clock.Advance(time.Second)
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
		batch := pool[r%10*200 : (r%10+1)*200]
		if st, err := a.MergeSnapshot(batch, MergePolicy{}); err != nil || st.Merged != len(batch) && r >= 10 {
			t.Fatalf("round %d: merge %+v, %v", r, st, err)
		}
		if r%26 == 25 {
			live, slots := held()
			t.Logf("round %d: %d live states, %d slots held", r, live, slots)
		}
	}
	if s := a.Stats(); s.EntriesExpired < moves*(rounds-20) || s.FleetMerged < uint64(len(pool))*(rounds/10-1) {
		t.Fatalf("the run did not churn: %+v", s)
	}
	live, slots := held()
	if slots > live+live/8+block {
		t.Errorf("%d live states hold %d slots: want at most live + live/8 + %d", live, slots, block)
	}
	kept, need := heap.Retained(), tableBytes(live)
	ratio := float64(kept) / float64(need)
	t.Logf("after %d rounds the agent keeps %d bytes, %.2f× the %d its %d-destination table needs", rounds, kept, ratio, need, live)
	if ratio > 1.3 {
		t.Errorf("a churning agent keeps %d bytes, %.2f× the %d its table needs: want at most 1.3×", kept, ratio, need)
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(pool)
	runtime.KeepAlive(sampler)
}

// shrinkRounds is one 20 000-socket round followed by rounds of 200 sockets
// to a fixed subset of its destinations, a few of whose windows move each
// round: a spike that subsides.
func shrinkRounds(rounds int) [][]Observation {
	const spike, calm = 20000, 200
	out := make([][]Observation, rounds)
	for r := range out {
		n := calm
		if r == 0 {
			n = spike
		}
		obs := make([]Observation, n)
		for i := range obs {
			j, cwnd := i, 10+i%90
			if r > 0 {
				j = i * 97 % spike
				if i%16 == r%16 {
					cwnd += 3 * r
				}
			}
			obs[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), 1}), Cwnd: cwnd}
		}
		out[r] = obs
	}
	return out
}

// TestShrinkingStreamGivesBackBuffers: the position-keyed buffers — the
// observation stream and the sample cache — follow the socket count down.
// After a 20 000-socket round, rounds of 200 sockets give back the bulk of
// them, and the output stays identical to an agent that rebuilds every
// round, across the shrink.
func TestShrinkingStreamGivesBackBuffers(t *testing.T) {
	rounds := shrinkRounds(8)
	for _, workers := range []int{1, 2} {
		full := runModeSchedule(t, workers, true, rounds)
		delta := runModeSchedule(t, workers, false, rounds)
		if delta.stable == 0 {
			t.Fatalf("workers=%d: no round after the shrink was stable", workers)
		}
		compareModes(t, fmt.Sprintf("workers=%d", workers), full, delta)
	}

	var now time.Duration
	a, err := New(Config{Sampler: &playbackSampler{rounds: rounds}, Routes: &batchNop{}, Clock: func() time.Duration { return now }})
	if err != nil {
		t.Fatal(err)
	}
	heap := allocbudget.Mark(t)
	tick := func() {
		now += time.Second
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	held := heap.Retained()
	for range rounds[1:] {
		tick()
	}
	kept := heap.Retained()
	// After the spike's round the agent holds the 20 000-position stream and
	// the cache over it.
	buffers := int64(len(rounds[0])) * int64(unsafe.Sizeof(Observation{})+unsafe.Sizeof(cachedSample{}))
	t.Logf("after the spike the agent holds %d bytes, after the calm rounds %d; the spike's position-keyed buffers are %d", held, kept, buffers)
	if fell := held - kept; fell < buffers*9/10 {
		t.Errorf("retained heap fell by %d bytes after the spike subsided, want at least 90%% of the %d its position-keyed buffers took", fell, buffers)
	}
	runtime.KeepAlive(a)
}

// alternatingSampler returns one of two slices of its own, in turn.
type alternatingSampler struct {
	bufs  [2][]Observation
	round int
}

func (s *alternatingSampler) SampleConnections([]Observation) ([]Observation, error) {
	s.round++
	return s.bufs[s.round&1], nil
}

// TestOwnSliceSamplerHoldsNoBuffer: a sampler that returns a slice of its
// own is handed no buffer once it has, so the agent holds no stream beside
// it — whether the slice is the same every round or alternates — while a
// sampler that appends keeps decoding into the one buffer it was handed.
func TestOwnSliceSamplerHoldsNoBuffer(t *testing.T) {
	set := newEditSampler(1000, 0).set
	for _, c := range []struct {
		name    string
		sampler ConnectionSampler
		own     bool
	}{
		{"fixed", fixedSampler(set), true},
		{"alternating", &alternatingSampler{bufs: [2][]Observation{set, slices.Clone(set)}}, true},
		{"appending", newEditSampler(1000, 3), false},
	} {
		a, err := New(Config{Sampler: c.sampler, Routes: &batchNop{}, Clock: func() time.Duration { return 0 }})
		if err != nil {
			t.Fatal(err)
		}
		var first *Observation
		for r := 0; r < 6; r++ {
			if err := a.Tick(); err != nil {
				t.Fatal(err)
			}
			switch {
			case r == 0:
			case c.own && a.obsBuf != nil:
				t.Errorf("%s round %d: the agent holds a %d-observation buffer the sampler never writes", c.name, r, cap(a.obsBuf))
			case !c.own && first == nil:
				first = &a.obsBuf[:1][0]
			case !c.own && first != &a.obsBuf[:1][0]:
				t.Errorf("%s round %d: the sampler's buffer was replaced", c.name, r)
			}
		}
		_ = a.Close()
	}
}

// TestUninstalledStatesExpire: a destination that is never installed — here
// because every install of it fails — and whose sockets go keeps no state
// past the TTL horizon an installed entry would have had. 100 destinations
// are observed, installs fail for 50 of them, and those 50 then go
// unobserved for 200 one-second rounds at the default 90 s TTL: the agent
// must end with the 50 installed states and nothing else indexed, and the
// retry decorator must hold no failure count for the 50. The failing 50
// leave two per round, once on stable rounds (leaveGroupLocked) and once on
// rounds that all rebuild (queueDeparted), each with the decorator passed to
// New and behind one that forwards ForgetRoute.
func TestUninstalledStatesExpire(t *testing.T) {
	const dests, failing = 100, 50
	obs := make([]Observation, dests)
	for i := range obs {
		obs[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, 6, 0, byte(1 + i)}), Cwnd: 20 + i%30}
	}
	failed := func(p netip.Prefix) bool { return int(p.Addr().As4()[3]) <= failing }
	for _, c := range []struct {
		rebuild, wrapped bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		rebuild := c.rebuild
		inner := &recordingBatchRoutes{recordingRoutes{fail: failed}}
		retry, err := NewRetryingRouteProgrammer(inner, RetryPolicy{Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		var routes RouteProgrammer = retry
		if c.wrapped {
			routes = forwardingRoutes{retry}
		}
		// Round r observes the working 50 and the failing ones from index
		// 2r on: two of them leave each round.
		var rounds [][]Observation
		for r := 0; r < 5+failing/2; r++ {
			rounds = append(rounds, obs[min(2*r, failing):])
		}
		var now time.Duration
		a, err := New(Config{Sampler: &playbackSampler{rounds: rounds}, Routes: routes, Clock: func() time.Duration { return now }})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < len(rounds)+200; r++ {
			now += time.Second
			if rebuild {
				forceRebuild(a)
			}
			_ = a.Tick() // the failing installs surface here
			checkTableInvariants(t, a, fmt.Sprintf("%+v round %d", c, r))
		}
		if n, idx := a.Len(), a.tab.states.size(); n != dests-failing || idx != dests-failing {
			t.Errorf("%+v: %d destinations installed, %d indexed; want %d of each", c, n, idx, dests-failing)
		}
		retry.mu.Lock()
		for p := range retry.failures {
			t.Errorf("%+v: the retry decorator still counts failures of %v", c, p)
		}
		retry.mu.Unlock()
		if s := a.Stats(); s.RouteErrors == 0 || s.RoutesSet != dests-failing {
			t.Errorf("%+v: %d route errors, %d routes set: want failures, and %d set", c, s.RouteErrors, s.RoutesSet, dests-failing)
		}
		_ = a.Close()
	}
}

// forwardingRoutes is a decorator between the agent and the retry decorator
// that forwards ForgetRoute, as the RouteProgrammer contract asks of one.
type forwardingRoutes struct{ inner *RetryingRouteProgrammer }

func (f forwardingRoutes) SetInitCwnd(p netip.Prefix, w int) error { return f.inner.SetInitCwnd(p, w) }
func (f forwardingRoutes) ClearInitCwnd(p netip.Prefix) error      { return f.inner.ClearInitCwnd(p) }
func (f forwardingRoutes) ForgetRoute(p netip.Prefix)              { f.inner.ForgetRoute(p) }
