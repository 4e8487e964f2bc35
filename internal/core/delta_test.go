package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the plan stage's one incremental mechanism: for any observation
// stream, an agent that takes stable rounds wherever it can must produce
// byte-identical route programs, entries, stats, and error text to one whose
// every round is forced to rebuild.

// fixedSampler returns the same backing slice every round, ignoring the
// buffer it is handed.
type fixedSampler []Observation

func (s fixedSampler) SampleConnections([]Observation) ([]Observation, error) {
	return s, nil
}

// modeResult captures everything the determinism contract covers.
type modeResult struct {
	ops      []string
	entries  []Entry
	stats    Stats
	tickErrs []string
	// stable counts the rounds planned on the stable path; it is not part of
	// the contract (the reference never takes that path).
	stable uint64
}

// forceRebuild makes a's next round a rebuild: with no previous stream to
// compare against, nothing of last round's grouping is reused.
func forceRebuild(a *Agent) {
	a.tickMu.Lock()
	a.havePrev = false
	a.tickMu.Unlock()
}

// runModeSchedule drives one agent over the schedule with 30s tick spacing
// (so TTL expiry fires for destinations that churn out) and records its
// complete observable output. rebuild forces every round to rebuild — the
// reference.
func runModeSchedule(t *testing.T, rebuild bool, rounds [][]Observation) modeResult {
	t.Helper()
	return runModeScheduleOn(t, &recordingBatchRoutes{}, nil, rebuild, rounds)
}

// runModeScheduleOn is runModeSchedule over caller-built routes (failure
// injection) and, when non-nil, a caller's last word on the Config.
func runModeScheduleOn(t *testing.T, routes *recordingBatchRoutes, tweak func(*Config), rebuild bool, rounds [][]Observation) modeResult {
	t.Helper()
	var now atomic.Int64
	cfg := Config{
		Sampler:    &playbackSampler{rounds: rounds},
		Routes:     routes,
		Clock:      func() time.Duration { return time.Duration(now.Load()) },
		PrefixBits: 24,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickErrs []string
	for r := range rounds {
		now.Add(int64(30 * time.Second))
		if rebuild {
			forceRebuild(a)
		}
		if err := a.Tick(); err != nil {
			tickErrs = append(tickErrs, err.Error())
		}
		checkTableInvariants(t, a, fmt.Sprintf("round %d (rebuild %v)", r, rebuild))
	}
	return modeResult{
		ops: routes.recorded(), entries: a.Entries(), stats: a.Stats(), tickErrs: tickErrs,
		stable: a.Metrics().Counter("riptide_tick_rounds_stable").Value(),
	}
}

// compareModes diffs the normal run against the forced-rebuild reference.
func compareModes(t *testing.T, label string, full, delta modeResult) {
	t.Helper()
	if !reflect.DeepEqual(delta.ops, full.ops) {
		t.Errorf("%s: route-op stream diverged (delta %d ops, full %d)", label, len(delta.ops), len(full.ops))
		for i := range delta.ops {
			if i < len(full.ops) && delta.ops[i] != full.ops[i] {
				t.Errorf("first divergence at op %d:\n  delta %s\n  full  %s", i, delta.ops[i], full.ops[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(delta.entries, full.entries) {
		t.Errorf("%s: learned table diverged (%d vs %d entries)", label, len(delta.entries), len(full.entries))
	}
	if delta.stats != full.stats {
		t.Errorf("%s: stats diverged:\n  delta %+v\n  full  %+v", label, delta.stats, full.stats)
	}
	if !reflect.DeepEqual(delta.tickErrs, full.tickErrs) {
		t.Errorf("%s: tick errors diverged:\n  delta %q\n  full  %q", label, delta.tickErrs, full.tickErrs)
	}
}

// TestDeltaTickMatchesRebuild drives the standard determinism schedule —
// churn, drifting windows, invalid samples, expiry — through both modes and
// demands identical output.
func TestDeltaTickMatchesRebuild(t *testing.T) {
	rounds := determinismRounds(6, 900)
	full := runModeSchedule(t, true, rounds)
	if len(full.ops) == 0 || len(full.entries) == 0 {
		t.Fatalf("forced-rebuild reference did nothing: %d ops, %d entries", len(full.ops), len(full.entries))
	}
	delta := runModeSchedule(t, false, rounds)
	compareModes(t, "determinism schedule", full, delta)
}

// randomRounds evolves a seeded random observation stream with persistence:
// most observations repeat byte-identically between rounds (the delta fast
// path), a slice mutate their windows, some destinations sit rounds out, and
// a few invalid samples ride along.
func randomRounds(seed int64, roundCount, n int) [][]Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(r.Intn(40)), byte(r.Intn(200)), byte(1 + r.Intn(4))}),
			Cwnd:       10 + r.Intn(90),
			RTT:        time.Duration(20+r.Intn(200)) * time.Millisecond,
			BytesAcked: int64(r.Intn(100)) * 1500,
		}
	}
	out := make([][]Observation, roundCount)
	for round := 0; round < roundCount; round++ {
		next := make([]Observation, 0, n)
		for i := range cur {
			switch {
			case r.Float64() < 0.05: // churn out this round
				continue
			case r.Float64() < 0.10: // window moves
				cur[i].Cwnd = 10 + r.Intn(90)
			case r.Float64() < 0.02: // invalid: must be skipped identically
				o := cur[i]
				o.Cwnd = 0
				next = append(next, o)
				continue
			}
			next = append(next, cur[i])
		}
		out[round] = next
	}
	return out
}

// TestDeltaTickMatchesRebuildRandom repeats the equivalence check over
// randomized streams and seeds.
func TestDeltaTickMatchesRebuildRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rounds := randomRounds(seed, 8, 1200)
		full := runModeSchedule(t, true, rounds)
		delta := runModeSchedule(t, false, rounds)
		compareModes(t, fmt.Sprintf("seed=%d", seed), full, delta)
	}
}

// quiescentRounds evolves a stream whose membership and positions stay
// fixed — the shape the stable-round fast path (planStable) is
// built for. Most rounds mutate a few windows in place (some with large
// swings, some with one-segment nudges, so freeze horizons of every length
// occur); some rounds change nothing at all; a handful shuffle membership
// or inject an invalid sample, forcing a full rebuild in the middle of a
// quiescent run and exercising the lazy-credit settlement either side of it.
func quiescentRounds(seed int64, roundCount, n int) [][]Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(r.Intn(30)), byte(r.Intn(150)), byte(1 + r.Intn(4))}),
			Cwnd:       10 + r.Intn(90),
			RTT:        time.Duration(20+r.Intn(200)) * time.Millisecond,
			BytesAcked: int64(r.Intn(100)) * 1500,
		}
	}
	out := make([][]Observation, roundCount)
	for round := range out {
		switch {
		case round == 0:
			// Seed round: install the table.
		case round%11 == 0:
			// Membership change: drop the tail, add fresh destinations.
			k := 1 + r.Intn(3)
			cur = cur[:len(cur)-k]
			for j := 0; j < k; j++ {
				cur = append(cur, Observation{
					Dst:  netip.AddrFrom4([4]byte{10, 200, byte(round), byte(1 + j)}),
					Cwnd: 10 + r.Intn(90),
				})
			}
		case round%13 == 0:
			// An invalid sample surfaces at a stable position: the validity
			// change must divert to a full rebuild identically in both modes
			// (and the destination, no longer covered, must TTL out on
			// schedule unless a later mutation revives it).
			cur[r.Intn(len(cur))].Cwnd = 0
		case round%7 == 0:
			// Nothing moves: fully stable content on a fresh backing array.
		default:
			for j := 0; j < 1+n/25; j++ {
				i := r.Intn(len(cur))
				if r.Intn(2) == 0 {
					cur[i].Cwnd = 10 + r.Intn(90)
				} else if cur[i].Cwnd < 99 {
					cur[i].Cwnd++
				} else {
					cur[i].Cwnd = 10
				}
			}
		}
		out[round] = append([]Observation(nil), cur...)
	}
	return out
}

// TestQuiescentTickMatchesRebuild pins the stable-round fast path to the
// forced-rebuild reference over positionally-stable streams: byte-identical
// route programs, entries (lazy TTL/sample credit included), stats, and
// errors across seeds, through mid-run rebuilds, invalid injections,
// freeze/park drains and re-dirties.
func TestQuiescentTickMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rounds := quiescentRounds(seed, 42, 600)
		full := runModeSchedule(t, true, rounds)
		if len(full.ops) == 0 || len(full.entries) == 0 {
			t.Fatalf("forced-rebuild reference did nothing: %d ops, %d entries", len(full.ops), len(full.entries))
		}
		delta := runModeSchedule(t, false, rounds)
		compareModes(t, fmt.Sprintf("seed=%d", seed), full, delta)
	}
}

// membershipChurnRounds evolves a stream whose membership changes a little
// every round — the regime the stable path's edits exist for. Every round
// mixes in-place window changes with destination swaps to seen and
// never-seen prefixes (so multi-member /24 groups gain and lose members
// mid-span), validity flips, and destinations that lose their last member
// and regain it before or after their TTL (three rounds at the harness's
// 30 s spacing); the tail grows and shrinks; some rounds change nothing; one
// mid-run round swaps a third of the stream, forcing a rebuild between two
// stable runs. Routes left behind expire while the rounds around them stay
// stable.
func membershipChurnRounds(seed int64, roundCount, n int) [][]Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(r.Intn(20)), byte(r.Intn(100)), byte(1 + r.Intn(4))}),
			Cwnd:       10 + r.Intn(90),
			RTT:        time.Duration(20+r.Intn(200)) * time.Millisecond,
			BytesAcked: int64(r.Intn(100)) * 1500,
		}
	}
	for i := 0; i < 3; i++ {
		cur[i].Dst, cur[i].Cwnd = netip.AddrFrom4([4]byte{10, 250, byte(i), 1}), 12
	}
	freshN := 0
	fresh := func() netip.Addr {
		freshN++
		return netip.AddrFrom4([4]byte{10, byte(100 + freshN/250), byte(freshN % 250), 1})
	}
	later := map[int][]func(){}
	out := make([][]Observation, roundCount)
	for round := range out {
		for _, f := range later[round] {
			f()
		}
		switch {
		case round == 0 || round%9 == 0:
			// Install round, and rounds where nothing moves.
		case round == roundCount/2:
			for i := range cur {
				if r.Intn(3) == 0 {
					cur[i].Dst = cur[r.Intn(len(cur))].Dst
				}
			}
			// Sockets 0-2 each own a destination that went dirty last round
			// (still converging, on the active list). It misses the rebuild
			// and comes back one round later — by a join edit — with a far
			// window it needs many more rounds to converge on.
			for i := 0; i < 3; i++ {
				i, home := i, cur[i].Dst
				cur[i].Dst = fresh()
				later[round+1] = append(later[round+1], func() { cur[i].Dst, cur[i].Cwnd = home, 97 })
			}
		default:
			for j := 0; j < n/50; j++ {
				cur[3+r.Intn(len(cur)-3)].Cwnd = 10 + r.Intn(90)
			}
			if round == roundCount/2-1 {
				cur[0].Cwnd, cur[1].Cwnd, cur[2].Cwnd = 60, 70, 80
			}
			for j := 0; j < 4; j++ {
				cur[r.Intn(len(cur))].Dst = cur[r.Intn(len(cur))].Dst
			}
			for j := 0; j < 3; j++ {
				cur[r.Intn(len(cur))].Dst = fresh()
			}
			for j := 0; j < 2; j++ {
				i, back := r.Intn(len(cur)), round+1+r.Intn(5)
				cur[i].Cwnd = 0
				later[back] = append(later[back], func() {
					if i < len(cur) {
						cur[i].Cwnd = 10 + i%90
					}
				})
			}
			for j := 0; j < 2; j++ {
				// Away for one round (back before the TTL) or five (after).
				i, back := r.Intn(len(cur)), round+1+4*r.Intn(2)
				home := cur[i].Dst
				cur[i].Dst = fresh()
				later[back] = append(later[back], func() {
					if i < len(cur) {
						cur[i].Dst = home
					}
				})
			}
			switch round % 5 {
			case 2:
				cur = append(cur,
					Observation{Dst: fresh(), Cwnd: 10 + r.Intn(90)},
					Observation{Dst: cur[r.Intn(len(cur))].Dst, Cwnd: 10 + r.Intn(90)},
					Observation{Dst: fresh(), Cwnd: 0})
			case 4:
				cur = cur[:len(cur)-2]
			}
		}
		out[round] = append([]Observation(nil), cur...)
	}
	return out
}

// TestDeltaTickMatchesRebuildMembershipChurn pins the stable path's
// membership edits to the forced-rebuild reference over generated churn, with
// failing installs and failing withdrawals mixed in: byte-identical route
// programs, entries, stats and error text — and the rounds must really have
// been planned on the stable path.
func TestDeltaTickMatchesRebuildMembershipChurn(t *testing.T) {
	newRoutes := func() *recordingBatchRoutes {
		rt := &recordingBatchRoutes{}
		rt.fail = func(p netip.Prefix) bool { return p.Addr().As4()[2]%23 == 7 }
		rt.failClear = func(p netip.Prefix) bool { return p.Addr().As4()[2]%29 == 11 }
		return rt
	}
	for seed := int64(1); seed <= 2; seed++ {
		rounds := membershipChurnRounds(seed, 48, 1600)
		label := fmt.Sprintf("seed=%d", seed)
		full := runModeScheduleOn(t, newRoutes(), nil, true, rounds)
		if full.stats.EntriesExpired == 0 || full.stats.RouteErrors == 0 || len(full.tickErrs) == 0 {
			t.Fatalf("%s: reference saw no expiry or no failure: %+v", label, full.stats)
		}
		delta := runModeScheduleOn(t, newRoutes(), nil, false, rounds)
		compareModes(t, label, full, delta)
		// All but the install round, the mid-run mass swap and the odd
		// compacting rebuild.
		if least := uint64(len(rounds) - 6); delta.stable < least {
			t.Errorf("%s: %d rounds on the stable path, want at least %d", label, delta.stable, least)
		}
	}
}

// withTraffic gives the sockets of one destination /24 in three moving
// cumulative segment counters (the rest idle, so most positions still repeat
// byte-identically between rounds) and one in eleven of those a 10 % loss
// episode from round 5 to round 25 — what a loss-feedback governor needs to
// throttle, quarantine, probe and recover destinations that stay observed.
func withTraffic(rounds [][]Observation) [][]Observation {
	for r, obs := range rounds {
		for i := range obs {
			o := &obs[i]
			if !o.Dst.Is4() || o.Dst.As4()[2]%3 != 0 {
				continue
			}
			o.SegsOut = int64(2000 * (r + 1))
			if o.Dst.As4()[2]%11 == 3 {
				o.Retrans = int64(200 * min(max(r-4, 0), 20))
			}
		}
	}
	return rounds
}

// withOtherFamilies moves two of the schedule's IPv4 /16s into other address
// families, keeping every socket's membership history: 10.1.x.y becomes the
// IPv6 2001:db8:1::x:y and 10.2.x.y the 4-in-6 ::ffff:10.2.x.y, each one
// destination at /24 granularity, which the table keys outside its packed
// IPv4 half.
func withOtherFamilies(rounds [][]Observation) [][]Observation {
	for _, obs := range rounds {
		for i := range obs {
			o := &obs[i]
			if !o.Dst.Is4() {
				continue
			}
			switch b := o.Dst.As4(); b[1] {
			case 1:
				o.Dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 13: b[2], 15: b[3]})
			case 2:
				o.Dst = netip.AddrFrom16(o.Dst.As16())
			}
		}
	}
	return rounds
}

// withBusyCounters makes every socket busy: each round it has acknowledged
// more bytes and sent more segments, a few of them retransmitted (0.1 %),
// and its RTT moved, while its destination and window follow the schedule.
// It so moves every field a window-only Combiner ignores.
func withBusyCounters(rounds [][]Observation) [][]Observation {
	for r, obs := range rounds {
		for i := range obs {
			o := &obs[i]
			o.BytesAcked += int64(1448 * (r + 1) * (1 + i%7))
			o.SegsOut += int64(1000 * (r + 1))
			o.Retrans += int64(r + 1)
			o.RTT += time.Duration((r+i)%5) * time.Millisecond
		}
	}
	return rounds
}

// churnSchedule is stableVsRebuild's schedule: membership churn over IPv4,
// IPv6 and 4-in-6 destinations, some of them with traffic counters and loss.
func churnSchedule() [][]Observation {
	return withOtherFamilies(withTraffic(membershipChurnRounds(1, 48, 1600)))
}

// busySchedule is churnSchedule with every socket's counters advancing every
// round.
func busySchedule() [][]Observation {
	return withBusyCounters(churnSchedule())
}

// stableVsRebuild runs the membership-churn schedule, with traffic counters,
// failing installs and withdrawals that fail (some for good, some once), under
// the hook install puts into the Config — once taking stable rounds, once with
// every round forced to rebuild — and demands identical route programs,
// entries, stats, error text and hook status (install's return value, probed
// after the run), with the rounds really planned on the stable path.
func stableVsRebuild(t *testing.T, install func(*Config) (status func() any)) {
	t.Helper()
	rounds := churnSchedule()
	stableVsRebuildOn(t, rounds, len(rounds)-6, install)
}

// stableVsRebuildOn is stableVsRebuild over the given schedule, of whose
// rounds at least minStable must be planned on the stable path.
func stableVsRebuildOn(t *testing.T, rounds [][]Observation, minStable int, install func(*Config) (status func() any)) {
	t.Helper()
	newRoutes := func() *recordingBatchRoutes {
		rt := &recordingBatchRoutes{}
		failedOnce := map[netip.Prefix]bool{}
		rt.fail = func(p netip.Prefix) bool { return p.Addr().As16()[14]%23 == 7 }
		rt.failClear = func(p netip.Prefix) bool {
			if p.Addr().As16()[14]%29 == 11 {
				return true
			}
			first := !failedOnce[p]
			failedOnce[p] = true
			return first
		}
		return rt
	}
	var fullStatus, deltaStatus func() any
	full := runModeScheduleOn(t, newRoutes(), func(c *Config) { fullStatus = install(c) }, true, rounds)
	if full.stats.EntriesExpired == 0 || full.stats.RouteErrors == 0 || len(full.tickErrs) == 0 {
		t.Fatalf("reference saw no expiry or no failure: %+v", full.stats)
	}
	others := 0
	for _, e := range full.entries {
		if !e.Prefix.Addr().Is4() {
			others++
		}
	}
	if others != 2 {
		t.Fatalf("reference holds %d IPv6 and 4-in-6 entries, want 2", others)
	}
	delta := runModeScheduleOn(t, newRoutes(), func(c *Config) { deltaStatus = install(c) }, false, rounds)
	compareModes(t, "stable vs rebuild", full, delta)
	if want, got := fullStatus(), deltaStatus(); !reflect.DeepEqual(got, want) {
		t.Errorf("hook status diverged:\n  delta %+v\n  full  %+v", got, want)
	}
	if delta.stable < uint64(minStable) {
		t.Errorf("%d rounds on the stable path, want at least %d", delta.stable, minStable)
	}
}

// TestCounterOnlyRoundsMatchRebuild: sockets whose counters advance every
// round but whose windows hold are no edit to a combiner that reads only
// windows (average, max), so those rounds stay stable, and the output is the
// rebuild's; the traffic-weighted combiner is compared on the whole
// observation, so its busy rounds may rebuild, with the same output. TestCounterOnlyRoundsMatchRebuildGuard
// runs the schedule under a governor.
func TestCounterOnlyRoundsMatchRebuild(t *testing.T) {
	rounds := busySchedule()
	for _, tc := range []struct {
		combiner  Combiner
		minStable int
	}{
		{AverageCombiner{}, len(rounds) - 6},
		{MaxCombiner{}, len(rounds) - 6},
		{TrafficWeightedCombiner{}, 0},
	} {
		t.Run(tc.combiner.Name(), func(t *testing.T) {
			stableVsRebuildOn(t, rounds, tc.minStable, func(c *Config) func() any {
				c.Combiner = tc.combiner
				return func() any { return nil }
			})
		})
	}
}

// TestCounterOnlyRoundsDirtyNothing: on a host whose every socket advances
// its counters each round while no window moves, a stable round dirties no
// group under a combiner that reads only windows, and every group under the
// traffic-weighted one, which is compared on the whole observation.
func TestCounterOnlyRoundsDirtyNothing(t *testing.T) {
	const n, groups = 600, 150
	for _, tc := range []struct {
		combiner Combiner
		dirty    int
	}{
		{AverageCombiner{}, 0},
		{MaxCombiner{}, 0},
		{TrafficWeightedCombiner{}, groups},
	} {
		t.Run(tc.combiner.Name(), func(t *testing.T) {
			rounds := make([][]Observation, 12)
			for r := range rounds {
				rounds[r] = make([]Observation, n)
				for i := range rounds[r] {
					rounds[r][i] = Observation{
						Dst:  netip.AddrFrom4([4]byte{10, 5, byte(i % groups), 1}),
						Cwnd: 10 + i%40, RTT: 20 * time.Millisecond,
					}
				}
			}
			withBusyCounters(rounds)
			var now time.Duration
			a, err := New(Config{Sampler: &playbackSampler{rounds: rounds}, Routes: nopRoutes{}, Combiner: tc.combiner,
				Clock: func() time.Duration { return now }})
			if err != nil {
				t.Fatal(err)
			}
			for r := range rounds {
				now += time.Second
				if err := a.Tick(); err != nil {
					t.Fatal(err)
				}
				if got := len(a.tab.dirtyList); r > 0 && got != tc.dirty {
					t.Fatalf("round %d dirtied %d groups, want %d", r, got, tc.dirty)
				}
			}
			if got := a.mStable.Value(); got != uint64(len(rounds)-1) {
				t.Errorf("%d of %d rounds stable", got, len(rounds)-1)
			}
		})
	}
}

// TestStableRoundsEngageQuiescentPath guards the fast path against silent
// rot: a positionally-stable schedule must actually be planned by
// planStable (observable as the table's clean-round counter advancing), not fall back to full rebuilds — equivalence alone would hold
// either way.
func TestStableRoundsEngageQuiescentPath(t *testing.T) {
	base := make([]Observation, 400)
	for i := range base {
		base[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 3, byte(i / 200), byte(1 + i%200)}),
			Cwnd: 10 + i%90,
			RTT:  50 * time.Millisecond,
		}
	}
	rounds := make([][]Observation, 9)
	for r := range rounds {
		rounds[r] = append([]Observation(nil), base...)
		if r > 0 {
			// In-place window mutations only: positions and membership fixed.
			for j := 0; j < 4; j++ {
				rounds[r][(r*37+j*101)%len(base)].Cwnd = 10 + (r*13+j)%90
			}
		}
	}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: &playbackSampler{rounds: rounds},
		Routes:  nopRoutes{},
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	for range rounds {
		now.Add(int64(time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Round 0 installs; all 8 subsequent rounds are positionally stable.
	if clean, want := a.tab.cleanRounds, uint32(8); clean != want {
		t.Fatalf("clean-round counter is %d, want %d: stable rounds fell back to full rebuilds", clean, want)
	}
}

// nanOn13 is the average, except that a group holding a 13-segment window
// has no finite value.
type nanOn13 struct{ AverageCombiner }

func (c nanOn13) Combine(obs []Observation) float64 {
	for _, o := range obs {
		if o.Cwnd == 13 {
			return math.NaN()
		}
	}
	return c.AverageCombiner.Combine(obs)
}

// TestDeltaTickMatchesRebuildGroupedDrop covers state deletion under a
// group that is still observed, on the stable path: a destination whose
// Combine value turns NaN stops being refreshed and expires while its sockets
// stay in the stream, and a route the programmer reports withdrawn
// (ErrFallbackCleared) is dropped mid-round. A rebuild re-creates either state
// from nothing on the next round; the stable path must too, without leaving
// the path.
func TestDeltaTickMatchesRebuildGroupedDrop(t *testing.T) {
	const n, roundCount = 400, 30
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, 9, byte(i % 250), byte(1 + i/250)}), Cwnd: 20 + i%60, RTT: 30 * time.Millisecond}
	}
	rounds := make([][]Observation, roundCount)
	for r := range rounds {
		for j := 0; r > 0 && j < n/30; j++ {
			cur[(r*53+j*17)%n].Cwnd = 20 + (r*7+j*11)%60
		}
		for i := 5; i < 8; i++ { // NaN for seven rounds: more than the three-round TTL
			if r >= 8 && r < 15 {
				cur[i].Cwnd = 13
			} else if cur[i].Cwnd == 13 {
				cur[i].Cwnd = 40
			}
		}
		rounds[r] = append([]Observation(nil), cur...)
	}
	newRoutes := func() *recordingBatchRoutes {
		rt := &recordingBatchRoutes{}
		rt.failWith = func(op RouteOp) error {
			if !op.Clear && op.Prefix.Addr().As4()[2]%7 == 0 && op.Window%4 == 1 {
				return fmt.Errorf("budget spent: %w", ErrFallbackCleared)
			}
			return nil
		}
		return rt
	}
	nan := func(c *Config) { c.Combiner = nanOn13{} }
	full := runModeScheduleOn(t, newRoutes(), nan, true, rounds)
	if st := full.stats; st.CombinerRejects == 0 || st.EntriesExpired == 0 || st.RoutesCleared <= st.EntriesExpired {
		t.Fatalf("reference saw no NaN expiry or no fallback clear: %+v", st)
	}
	delta := runModeScheduleOn(t, newRoutes(), nan, false, rounds)
	compareModes(t, "grouped drop", full, delta)
	if delta.stable != roundCount-1 {
		t.Errorf("%d rounds on the stable path, want %d", delta.stable, roundCount-1)
	}
}

// outageSampler fails the rounds down names and replays inner otherwise.
type outageSampler struct {
	inner ConnectionSampler
	down  func(round int) bool
	round int
}

func (s *outageSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	s.round++
	if s.down(s.round - 1) {
		return nil, errors.New("sampler down")
	}
	return s.inner.SampleConnections(buf)
}

// TestDeltaTickMatchesRebuildSamplerOutage pins what happens to lazily
// credited routes when the rounds that refresh them stop: through a one-round
// outage nothing may expire, through an outage longer than the TTL (which
// also opens the breaker) every route must — the credited ones included,
// though no stable round is there to settle them — and the table must come
// back identically afterwards.
func TestDeltaTickMatchesRebuildSamplerOutage(t *testing.T) {
	const n, roundCount = 300, 24
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, 8, byte(i % 250), byte(1 + i/250)}), Cwnd: 20 + i%60}
	}
	rounds := make([][]Observation, roundCount)
	for r := range rounds {
		for j := 0; r > 0 && j < 6; j++ {
			cur[(r*53+j*17)%n].Cwnd = 20 + (r*7+j*11)%60
		}
		rounds[r] = append([]Observation(nil), cur...)
	}
	outage := func(c *Config) {
		c.Sampler = &outageSampler{inner: c.Sampler, down: func(r int) bool { return r == 4 || (r >= 9 && r < 16) }}
	}
	full := runModeScheduleOn(t, &recordingBatchRoutes{}, outage, true, rounds)
	if st := full.stats; st.EntriesExpired < n/2 || st.BreakerOpens == 0 || len(full.entries) < n/2 {
		t.Fatalf("reference did not lose and regain its table: %+v", st)
	}
	delta := runModeScheduleOn(t, &recordingBatchRoutes{}, outage, false, rounds)
	compareModes(t, "sampler outage", full, delta)
}

// staysOnStablePath is the engagement guard for membership edits: 2 000
// sockets of which 0.1 % move to a never-seen destination every round, run
// past one TTL so the routes left behind expire mid-run, must be planned on
// the stable path after the install round under the config tweak leaves —
// equivalence alone would hold either way. The registry counters are what an
// operator would read off a daemon that has fallen back to rebuilding. It
// returns the agent and the schedule's dimensions for further checks.
func staysOnStablePath(t *testing.T, tweak func(*Config)) (a *Agent, n, roundCount int) {
	t.Helper()
	n, roundCount = 2000, 110
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 3, byte(i / 200), byte(1 + i%200)}),
			Cwnd: 10 + i%90,
			RTT:  50 * time.Millisecond,
		}
	}
	rounds := make([][]Observation, roundCount)
	for r := range rounds {
		if r > 0 {
			for j := 0; j < n/1000; j++ {
				cur[(r*131+j*977)%n].Dst = netip.AddrFrom4([4]byte{10, 4, byte(r), byte(1 + j)})
			}
			for j := 0; j < n/100; j++ {
				cur[(r*37+j*101)%n].Cwnd = 10 + (r*13+j)%90
			}
		}
		rounds[r] = append([]Observation(nil), cur...)
	}
	var now atomic.Int64
	cfg := Config{
		Sampler: &playbackSampler{rounds: rounds},
		Routes:  nopRoutes{},
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
	}
	if tweak != nil {
		tweak(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	for range rounds {
		now.Add(int64(time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	stable := a.Metrics().Counter("riptide_tick_rounds_stable").Value()
	rebuild := a.Metrics().Counter("riptide_tick_rounds_rebuild").Value()
	if stable != uint64(roundCount-1) || rebuild != 1 {
		t.Errorf("rounds: %d stable, %d rebuilt; want %d and 1", stable, rebuild, roundCount-1)
	}
	return a, n, roundCount
}

func TestMembershipChurnStaysOnStablePath(t *testing.T) {
	a, n, roundCount := staysOnStablePath(t, nil)
	if a.tab.cleanRounds != uint32(roundCount-1) {
		t.Errorf("%d clean rounds, want %d", a.tab.cleanRounds, roundCount-1)
	}
	// Moved-away routes lapse one TTL (90 rounds) after their last refresh.
	st := a.Stats()
	if want := uint64((roundCount - 90) * n / 1000); st.EntriesExpired != want {
		t.Errorf("EntriesExpired = %d, want %d", st.EntriesExpired, want)
	}
	// One route per socket, plus the routes left behind and not yet lapsed.
	if got, want := a.Len(), n+(roundCount-1)*n/1000-int(st.EntriesExpired); got != want {
		t.Errorf("Len = %d, want %d live routes", got, want)
	}
}

// TestIdentStreamRefreshesTTL: a sampler that returns its own backing slice
// every round changes nothing its records hold, so every round after the
// first is stable, but smoothing, TTL refresh, and guard review must still
// run — otherwise entries would expire mid-stream here.
func TestIdentStreamRefreshesTTL(t *testing.T) {
	obs := make([]Observation, 300)
	for i := range obs {
		obs[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(1 + i%200)}),
			Cwnd: 40,
			RTT:  50 * time.Millisecond,
		}
	}
	routes := &recordingRoutes{}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: fixedSampler(obs),
		Routes:  routes,
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// 10 ticks spaced at half the default 90s TTL: every destination is
	// re-observed each round, so nothing may expire.
	for i := 0; i < 10; i++ {
		now.Add(int64(45 * time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.Entries()); got != 300 {
		t.Fatalf("entries = %d after identical-stream ticks, want 300", got)
	}
	if got := a.mStable.Value(); got != 9 {
		t.Errorf("%d of 9 rounds after the first were stable", got)
	}
	st := a.Stats()
	if st.EntriesExpired != 0 {
		t.Errorf("EntriesExpired = %d, want 0", st.EntriesExpired)
	}
	// Steady state programs each route exactly once.
	if got := len(routes.recorded()); got != 300 {
		t.Errorf("route ops = %d, want 300 (one install per destination)", got)
	}
	if w, ok := a.Lookup(obs[0].Dst); !ok || w != 40 {
		t.Errorf("Lookup = %d,%v want 40,true", w, ok)
	}
}

// TestExpiryFiresUnderDelta verifies the next-expiry index does not sit on
// lapsed TTLs: a destination that stops being observed is withdrawn once its
// TTL passes, even though later rounds never mark its group dirty.
func TestExpiryFiresUnderDelta(t *testing.T) {
	keep := Observation{Dst: netip.MustParseAddr("10.1.0.1"), Cwnd: 30, RTT: 40 * time.Millisecond}
	gone := Observation{Dst: netip.MustParseAddr("10.2.0.1"), Cwnd: 30, RTT: 40 * time.Millisecond}
	rounds := [][]Observation{
		{keep, gone},
		{keep},
		{keep},
		{keep},
	}
	routes := &recordingRoutes{}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: &playbackSampler{rounds: rounds},
		Routes:  routes,
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	for range rounds {
		now.Add(int64(30 * time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// gone was last refreshed at t=30s; with the default 90s TTL it lapses
	// at t=120s, the final tick.
	if _, ok := a.Lookup(gone.Dst); ok {
		t.Error("expired destination still resolves")
	}
	if _, ok := a.Lookup(keep.Dst); !ok {
		t.Error("refreshed destination lost")
	}
	if st := a.Stats(); st.EntriesExpired != 1 {
		t.Errorf("EntriesExpired = %d, want 1", st.EntriesExpired)
	}
	want := fmt.Sprintf("clear %v", netip.PrefixFrom(gone.Dst, 32))
	found := false
	for _, op := range routes.recorded() {
		if op == want {
			found = true
		}
	}
	if !found {
		t.Errorf("ops %q missing %q", routes.recorded(), want)
	}
}

// BenchmarkExpirePassNoop is the regression guard for the next-expiry index:
// an expiry round where no TTL can have fired must cost O(1), not a scan of
// every state under the table lock.
func BenchmarkExpirePassNoop(b *testing.B) {
	const conns = 100_000
	obs := make([]Observation, conns)
	for i := range obs {
		obs[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd: 10 + i%90,
			RTT:  50 * time.Millisecond,
		}
	}
	a, err := New(Config{
		Sampler: fixedSampler(obs),
		Routes:  nopRoutes{},
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Tick(); err != nil { // install the table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clock is pinned at 0 and every TTL is 90s out: nothing can fire.
		if err := a.expirePass(time.Nanosecond); err != nil {
			b.Fatal(err)
		}
	}
}
