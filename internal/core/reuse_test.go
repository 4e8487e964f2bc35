package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// reuseRun is everything an agent's outputs showed over a reuse schedule,
// and how many of its slots were recarved for another destination.
type reuseRun struct {
	ops      []string
	entries  []Entry
	stats    Stats
	tickErrs []string
	// exports holds, per round, the whole export and the delta since the
	// previous round's table version; tokens the round's ContentToken.
	exports  [][]SnapshotEntry
	tokens   [][2]uint64
	recarved int
}

// runReuseSchedule drives one agent, whose slots are reused as reuse says,
// over membership churn with every way a state is deleted mixed in: TTL
// expiry of departed destinations (30 s rounds, 90 s TTL), installs that
// keep failing and expire uninstalled, withdrawals that fail and retry,
// governor vetoes that clear routes, a programmer that answers some
// reprograms ErrFallbackCleared, a sampler outage longer than the TTL (the
// grouping is disbanded and the table expires), and fleet merges every other
// round whose entries expire and are merged again. It checks the table's
// invariants after every step.
func runReuseSchedule(t *testing.T, reuse slotReuse, rounds [][]Observation) reuseRun {
	t.Helper()
	var now time.Duration
	round := 0
	routes := &recordingBatchRoutes{}
	routes.fail = func(p netip.Prefix) bool { return p.Addr().As4()[2]%23 == 7 }
	routes.failClear = func(p netip.Prefix) bool { return p.Addr().As4()[2]%29 == 11 }
	routes.failWith = func(op RouteOp) error {
		if !op.Clear && round%3 == 1 && op.Prefix.Addr().As4()[2]%17 == 5 {
			return fmt.Errorf("retry budget spent: %w", ErrFallbackCleared)
		}
		return nil
	}
	gov := newScriptedGovernor()
	a, err := New(Config{
		Sampler:    &outageSampler{inner: &playbackSampler{rounds: rounds}, down: func(r int) bool { return r >= 30 && r < 34 }},
		Routes:     routes,
		Guard:      gov,
		Clock:      func() time.Duration { return now },
		PrefixBits: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.tab.reuse = reuse
	defer a.Close()

	// The merge pool: 240 destinations no socket reaches, merged 60 at a
	// time with a minute of their TTL spent, so each expires a round or two
	// after its merge and is merged again four rounds on; and ten the
	// sampler observes, which the local table wins.
	pool := make([]SnapshotEntry, 240)
	for i := range pool {
		pool[i] = SnapshotEntry{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, byte(i / 60), 0}), 24),
			Window: 20 + i%70, Samples: 3, Age: time.Minute,
		}
	}
	for i := range 10 {
		o := rounds[0][i*7]
		pool = append(pool, SnapshotEntry{Prefix: netip.PrefixFrom(o.Dst, 24).Masked(), Window: 50, Samples: 3, Age: time.Second})
	}

	var run reuseRun
	var prevVersion uint64
	slots := map[*destState]netip.Prefix{}
	for ; round < len(rounds); round++ {
		now += 30 * time.Second
		// Vetoes withdraw a rotating set of observed destinations, grouped
		// ones included (dropState's reset in place), and lift again.
		for i := range 8 {
			p := netip.PrefixFrom(rounds[0][(round*13+i*101)%len(rounds[0])].Dst, 24).Masked()
			action := GuardVeto
			if round%4 == 3 {
				action = GuardAllow
			}
			gov.set(p, action, 0)
		}
		if err := a.Tick(); err != nil {
			run.tickErrs = append(run.tickErrs, err.Error())
		}
		checkTableInvariants(t, a, fmt.Sprintf("reuse %d, round %d", reuse, round))
		if round%2 == 0 {
			batch := pool[(round/2%4)*60 : (round/2%4+1)*60]
			if _, err := a.MergeSnapshot(append(batch, pool[240:]...), MergePolicy{}); err != nil {
				run.tickErrs = append(run.tickErrs, err.Error())
			}
			checkTableInvariants(t, a, fmt.Sprintf("reuse %d, merge after round %d", reuse, round))
		}
		all, _ := a.ExportDeltaAppend(nil, 0)
		delta, version := a.ExportDeltaAppend(nil, prevVersion)
		prevVersion = version
		v, markers := a.ContentToken()
		run.exports = append(run.exports, all, delta)
		run.tokens = append(run.tokens, [2]uint64{v, markers})

		a.tab.mu.Lock()
		a.tab.states.each(func(p netip.Prefix, st *destState) {
			if was, ok := slots[st]; ok && was != p {
				run.recarved++
			}
			slots[st] = p
		})
		a.tab.mu.Unlock()
	}
	run.ops, run.entries, run.stats = routes.recorded(), a.Entries(), a.Stats()
	return run
}

// TestSlotReuseMatchesNoReuse: an agent that frees every deleted state's slot
// at the end of the round that deleted it, so later states are carved into
// it at once, produces exactly the outputs of one that never reuses a slot —
// route ops, entries, stats, tick errors, every round's export and delta
// bodies and content tokens — over churn that deletes states every way the
// agent does. The first must really have recarved slots; the second never
// does.
func TestSlotReuseMatchesNoReuse(t *testing.T) {
	rounds := membershipChurnRounds(3, 48, 1200)
	never := runReuseSchedule(t, reuseNever, rounds)
	eager := runReuseSchedule(t, reuseEager, rounds)
	s := never.stats
	if s.EntriesExpired == 0 || s.GuardCleared == 0 || s.RoutesCleared <= s.EntriesExpired+s.GuardCleared || s.FleetMerged == 0 || s.DegradedTicks+s.SampleErrors == 0 {
		t.Fatalf("the schedule missed a way to delete a state: %+v", s)
	}
	if never.recarved != 0 || eager.recarved == 0 {
		t.Fatalf("%d slots recarved with reuse, %d without", eager.recarved, never.recarved)
	}
	t.Logf("%d slots recarved", eager.recarved)
	if !reflect.DeepEqual(eager.ops, never.ops) {
		for i := range min(len(eager.ops), len(never.ops)) {
			if eager.ops[i] != never.ops[i] {
				t.Fatalf("route ops diverge at %d:\n  reuse    %s\n  no reuse %s", i, eager.ops[i], never.ops[i])
			}
		}
		t.Fatalf("%d route-op batches with reuse, %d without", len(eager.ops), len(never.ops))
	}
	if !reflect.DeepEqual(eager.entries, never.entries) || eager.stats != never.stats || !reflect.DeepEqual(eager.tickErrs, never.tickErrs) {
		t.Errorf("entries, stats or errors diverge:\n  reuse    %+v %q\n  no reuse %+v %q", eager.stats, eager.tickErrs, never.stats, never.tickErrs)
	}
	for i := range never.exports {
		if !reflect.DeepEqual(eager.exports[i], never.exports[i]) {
			t.Errorf("export %d of round %d diverges: %d entries with reuse, %d without", i%2, i/2, len(eager.exports[i]), len(never.exports[i]))
		}
	}
	if !reflect.DeepEqual(eager.tokens, never.tokens) {
		t.Errorf("content tokens diverge")
	}
}
