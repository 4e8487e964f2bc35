package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deltaByRescan is the delta export as it was before the export log: range
// every state of the table and keep the installed ones stamped after the
// cursor. It is the reference the log walk is pinned against.
func deltaByRescan(a *Agent, since uint64) []SnapshotEntry {
	now := a.cfg.Clock()
	var out []SnapshotEntry
	tb := &a.tab
	tb.mu.Lock()
	tb.states.each(func(p netip.Prefix, st *destState) {
		if !st.installed || st.version <= since {
			return
		}
		a.materializeLocked(st)
		age := now - st.updated
		if age < 0 {
			age = 0
		}
		out = append(out, SnapshotEntry{
			Prefix:  p,
			Window:  int(st.window),
			Samples: st.samples,
			Age:     age + st.mergedAge,
			Version: st.version,
		})
	})
	tb.mu.Unlock()
	slices.SortFunc(out, func(x, y SnapshotEntry) int { return comparePrefix(x.Prefix, y.Prefix) })
	return out
}

// checkExportLog compares the log walk with the rescan at cursors before,
// inside, at and past the table version, and checks the log's own invariant:
// versions ascend, the live refs are exactly the installed states, and the
// stale count is the rest.
func checkExportLog(t *testing.T, a *Agent, stage string, cursors ...uint64) {
	t.Helper()
	cur := a.TableVersion()
	for _, since := range append(cursors, 0, cur/2, cur, cur+1) {
		got, _ := a.ExportDelta(since)
		want := deltaByRescan(a, since)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: since=%d (table version %d): log walk has %d entries, rescan %d; first difference at %d: %+v vs %+v",
				stage, since, cur, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
	}
	tb := &a.tab
	tb.mu.Lock()
	defer tb.mu.Unlock()
	checkLogLocked(t, tb, stage)
}

// checkLogLocked checks the export log's own invariant under the table lock:
// versions ascend, every live ref is an indexed, installed state stamped with
// the ref's version, there are as many live refs as installed states, and the
// stale count is the rest. Since versions ascend and a state carries one
// version, the live refs are then exactly the installed states, one each.
func checkLogLocked(t *testing.T, tb *destTable, stage string) {
	t.Helper()
	live := 0
	for i := range tb.log {
		if i > 0 && tb.log[i-1].version >= tb.log[i].version {
			t.Errorf("%s: log out of order at %d: %d then %d", stage, i, tb.log[i-1].version, tb.log[i].version)
		}
		if r := &tb.log[i]; r.live() {
			live++
			if !r.st.installed || r.st.dead || r.st.version != r.version || tb.states.get(r.st.key) != r.st {
				t.Errorf("%s: live ref %v@%d is not the installed state", stage, r.st.key, r.version)
			}
		}
	}
	if live != tb.installed || tb.logStale != len(tb.log)-live {
		t.Errorf("%s: log holds %d refs, %d live, %d counted stale; %d states installed",
			stage, len(tb.log), live, tb.logStale, tb.installed)
	}
}

// TestExportLogMatchesRescan drives every kind of commit that stamps, restamps
// or withdraws an entry and pins the version-ordered log walk to the full
// rescan after each, across a forced compaction, with readers exporting
// throughout (run under -race in CI's stress step), at GOMAXPROCS 1/2/4/8:
// from 2 on, the readers run beside Tick rather than between its steps.
func TestExportLogMatchesRescan(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			const n = 320
			var now atomic.Int64
			sampler := &fakeSampler{}
			gov := newScriptedGovernor()
			routes := &recordingBatchRoutes{}
			var fallback sync.Map // prefix → struct{}: sets answered ErrFallbackCleared
			routes.failWith = func(op RouteOp) error {
				if _, hit := fallback.Load(op.Prefix); hit && !op.Clear {
					return fmt.Errorf("budget spent: %w", ErrFallbackCleared)
				}
				return nil
			}
			a, err := New(Config{
				Sampler: sampler,
				Routes:  routes,
				Guard:   gov,
				TTL:     10 * time.Second,
				Clock:   func() time.Duration { return time.Duration(now.Load()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			stream := make([]Observation, n)
			for i := range stream {
				stream[i] = Observation{Dst: netip.AddrFrom4([4]byte{10, 7, byte(i / 250), byte(1 + i%250)}), Cwnd: 20 + i%50, RTT: 20 * time.Millisecond}
			}
			key := func(i int) netip.Prefix { return netip.PrefixFrom(stream[i].Dst, 32) }
			round := func(stage string, wantErr bool, cursors ...uint64) {
				t.Helper()
				now.Add(int64(time.Second))
				sampler.rounds, sampler.i = [][]Observation{slices.Clone(stream)}, 0
				if err := a.Tick(); (err != nil) != wantErr {
					t.Fatalf("%s: Tick error %v, want one: %v", stage, err, wantErr)
				}
				checkExportLog(t, a, stage, cursors...)
			}

			// Readers export at moving cursors while every commit below runs. A
			// state has one live ref, so no export may name a prefix twice.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						var since uint64
						if (i+g)%2 == 1 {
							since = a.TableVersion() * uint64(i%4) / 4
						}
						got, _ := a.ExportDelta(since)
						for j := 1; j < len(got); j++ {
							if comparePrefix(got[j-1].Prefix, got[j].Prefix) >= 0 {
								t.Errorf("concurrent export since=%d: %v then %v", since, got[j-1].Prefix, got[j].Prefix)
								return
							}
						}
					}
				}(g)
			}
			defer func() { close(stop); wg.Wait() }()

			round("program", false)
			installed := a.TableVersion()

			for i := 0; i < n/3; i++ {
				stream[i].Cwnd = 95
			}
			round("re-program", false, installed)

			seeds := make([]SnapshotEntry, 60)
			for i := range seeds {
				seeds[i] = SnapshotEntry{
					Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i)}), 32),
					Window: 30 + i%20, Samples: 4, Age: time.Second,
				}
			}
			seeds = append(seeds, SnapshotEntry{Prefix: key(0), Window: 77, Samples: 9}) // local wins
			beforeMerge := a.TableVersion()
			if st, err := a.MergeSnapshot(seeds, MergePolicy{}); err != nil || st.Merged != 60 || st.SkippedLocal != 1 {
				t.Fatalf("MergeSnapshot = %+v, %v", st, err)
			}
			checkExportLog(t, a, "merge seed", installed, beforeMerge)

			// A veto withdraws a route whose sockets stay in the stream: the
			// state is reset in place (dropState's grouped branch) and, once
			// the veto lifts, reinstalled under a new version.
			stateOf := func(p netip.Prefix) *destState {
				a.tab.mu.Lock()
				defer a.tab.mu.Unlock()
				return a.tab.states.get(p)
			}
			vetoed := stateOf(key(5))
			gov.set(key(5), GuardVeto, 0)
			round("guard clear", false, beforeMerge)
			if _, ok := a.Lookup(stream[5].Dst); ok {
				t.Fatal("vetoed destination still installed")
			}
			gov.set(key(5), GuardAllow, 0)
			round("reinstall after guard clear", false)
			if _, ok := a.Lookup(stream[5].Dst); !ok || stateOf(key(5)) != vetoed {
				t.Fatalf("destination not reinstalled in place after the veto lifted (present %v)", ok)
			}

			// The programmer reports a reprogram as withdrawn: dropped
			// mid-commit, reinstalled next round.
			fallback.Store(key(9), struct{}{})
			stream[9].Cwnd = 11
			round("fallback cleared", true)
			if _, ok := a.Lookup(stream[9].Dst); ok {
				t.Fatal("fallback-cleared destination still installed")
			}
			fallback.Delete(key(9))
			round("reinstall after fallback", false)

			// TTL expiry: the merged seeds were never observed, and a tenth of
			// the stream stops being observed.
			gone := stream[n-n/10:]
			stream = stream[:n-n/10]
			beforeExpiry := a.TableVersion()
			for i := 0; i < 12; i++ {
				round(fmt.Sprintf("expiry round %d", i), false, beforeExpiry)
			}
			if _, ok := a.Lookup(gone[0].Dst); ok || a.Len() != len(stream) {
				t.Fatalf("after expiry: %d entries, want %d; unobserved %v present: %v", a.Len(), len(stream), gone[0].Dst, ok)
			}

			// Restamp the whole table until the log has compacted: it then
			// holds fewer refs than last round's plus one per stamp since.
			// (Nothing is withdrawn meanwhile, so every version is a stamp.)
			prevLen := 0
			for r := 0; ; r++ {
				if r == 40 {
					t.Fatalf("no compaction after %d restamp rounds", r)
				}
				for i := range stream {
					stream[i].Cwnd = 15 + 80*(r%2)
				}
				before := a.TableVersion()
				round(fmt.Sprintf("restamp round %d", r), false, before)
				a.tab.mu.Lock()
				n := len(a.tab.log)
				a.tab.mu.Unlock()
				if r > 0 && n < prevLen+int(a.TableVersion()-before) {
					break
				}
				prevLen = n
			}
		})
	}
}
