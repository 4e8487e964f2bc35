package gossip

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
)

// scriptedGovernor is a Governor test double whose quarantine set is driven
// by the test: Review quarantines exactly the scripted prefixes, and
// Quarantines reports them as markers. Lifting a prefix out of the set
// models the time-based quarantine→probing transition, which changes digest
// content without any agent commit.
type scriptedGovernor struct {
	mu          sync.Mutex
	quarantined map[netip.Prefix]bool
}

func newScriptedGovernor() *scriptedGovernor {
	return &scriptedGovernor{quarantined: make(map[netip.Prefix]bool)}
}

func (g *scriptedGovernor) set(p netip.Prefix, on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if on {
		g.quarantined[p] = true
	} else {
		delete(g.quarantined, p)
	}
}

func (g *scriptedGovernor) ObserveSample(netip.Prefix, core.Observation) {}
func (g *scriptedGovernor) ObserveTick(time.Duration)                    {}

func (g *scriptedGovernor) Review(dst netip.Prefix, window int) (int, core.GuardAction) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.quarantined[dst] {
		return 0, core.GuardQuarantine
	}
	return window, core.GuardAllow
}

func (g *scriptedGovernor) Quarantines() []core.Quarantine {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]core.Quarantine, 0, len(g.quarantined))
	for p := range g.quarantined {
		out = append(out, core.Quarantine{Prefix: p})
	}
	return out
}

// requireDigestMatch pins the incremental digest (TableDigest, fed by the
// agent's per-commit XOR patches) byte-identical to the full rescan
// (Compute over ExportDelta(0)) — encoded bytes and all.
func requireDigestMatch(t *testing.T, a *core.Agent, stage string) {
	t.Helper()
	got := TableDigest(a, "src", "inst")
	entries, version := a.ExportDelta(0)
	want := Compute(FromCore(entries), "src", "inst", version)
	gb, err := EncodeDigest(got)
	if err != nil {
		t.Fatalf("%s: encode incremental digest: %v", stage, err)
	}
	wb, err := EncodeDigest(want)
	if err != nil {
		t.Fatalf("%s: encode rescan digest: %v", stage, err)
	}
	if !bytes.Equal(gb, wb) {
		if got.Count != want.Count {
			t.Fatalf("%s: incremental count %d, rescan count %d", stage, got.Count, want.Count)
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Fatalf("%s: bucket %d incremental %#x, rescan %#x", stage, i, got.Buckets[i], want.Buckets[i])
			}
		}
		t.Fatalf("%s: digests differ:\n  incremental %s\n  rescan      %s", stage, gb, wb)
	}
}

// TestIncrementalDigestMatchesRescan drives every commit kind that can move
// digest content — tick route programs (install + window change), fleet
// merge seeds, TTL expiry, and guard quarantine transitions (both the
// route-clearing onset and the commit-free recovery) — at shard counts
// 1/2/4/8, comparing the incremental digest against a full rescan after
// each, with a concurrent digest reader racing the churn (run under -race
// in CI's race-stress step).
func TestIncrementalDigestMatchesRescan(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var clockMu sync.Mutex
			now := time.Duration(0)
			sampler := &stubSampler{}
			gov := newScriptedGovernor()
			a, err := core.New(core.Config{
				Sampler: sampler,
				Routes:  newMemRoutes(),
				Shards:  shards,
				Guard:   gov,
				TTL:     time.Minute,
				Clock: func() time.Duration {
					clockMu.Lock()
					defer clockMu.Unlock()
					return now
				},
			})
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			defer a.Close()
			advance := func(d time.Duration) {
				clockMu.Lock()
				now += d
				clockMu.Unlock()
			}
			feed := func(observations []core.Observation) {
				sampler.mu.Lock()
				sampler.obs = observations
				sampler.mu.Unlock()
				if err := a.Tick(); err != nil {
					t.Fatalf("Tick: %v", err)
				}
			}
			dst := func(i int) string {
				return fmt.Sprintf("10.1.%d.%d", i/250, i%250+1)
			}

			// A reader hammers the incremental digest throughout, so -race
			// exercises the accumulator against every patch site.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = TableDigest(a, "src", "inst")
					}
				}
			}()

			// Commit kind: tick route programs (fresh installs).
			install := make([]core.Observation, 0, 300)
			for i := 0; i < 300; i++ {
				install = append(install, obs(t, dst(i), 12+i%30))
			}
			feed(install)
			requireDigestMatch(t, a, "program-install")

			// Commit kind: tick route programs (window changes on installed
			// routes; the EWMA moves, so a subset reprograms).
			changed := make([]core.Observation, 0, 100)
			for i := 0; i < 100; i++ {
				changed = append(changed, obs(t, dst(i), 60))
			}
			advance(time.Second)
			feed(changed)
			requireDigestMatch(t, a, "program-change")

			// Commit kind: fleet merge seeds (prefixes this agent has not
			// observed itself).
			seeds := make([]core.SnapshotEntry, 0, 50)
			for i := 0; i < 50; i++ {
				p := netip.MustParsePrefix(fmt.Sprintf("192.0.%d.%d/32", i/200, i%200+1))
				seeds = append(seeds, core.SnapshotEntry{
					Prefix: p, Window: 20 + i%10, Samples: 5, Age: time.Second,
				})
			}
			if _, err := a.MergeSnapshot(seeds, core.MergePolicy{}); err != nil {
				t.Fatalf("MergeSnapshot: %v", err)
			}
			requireDigestMatch(t, a, "merge-seed")

			// Commit kind: quarantine onset — the governor's verdict clears
			// the installed route and a marker appears in exports.
			qKey := netip.MustParsePrefix(dst(3) + "/32")
			gov.set(qKey, true)
			advance(time.Second)
			feed([]core.Observation{obs(t, dst(3), 40)})
			requireDigestMatch(t, a, "quarantine-onset")

			// Governor-clock transition: the quarantine lapses with no agent
			// commit at all; only the read-time marker overlay can see it.
			gov.set(qKey, false)
			requireDigestMatch(t, a, "quarantine-recovery")

			// Commit kind: TTL expiry (nothing refreshed for a full TTL).
			advance(2 * time.Minute)
			feed(nil)
			requireDigestMatch(t, a, "expiry")

			// Re-install after the wipe, racing the reader the whole way.
			reinstall := make([]core.Observation, 0, 120)
			for i := 0; i < 120; i++ {
				reinstall = append(reinstall, obs(t, dst(i), 8+i%20))
			}
			feed(reinstall)
			requireDigestMatch(t, a, "reinstall")

			close(stop)
			wg.Wait()
			requireDigestMatch(t, a, "quiesced")
		})
	}
}
