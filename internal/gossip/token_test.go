package gossip

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
)

// scriptedGovernor is a Governor test double whose quarantine set is driven
// by the test: Review quarantines exactly the scripted prefixes, and
// Quarantines reports them as markers. Lifting a prefix out of the set
// models the time-based quarantine→probing transition, which changes the
// export without any agent commit.
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

// tokenTracker follows an agent's ETag from stage to stage of a script in
// which every stage changes what the agent exports.
type tokenTracker struct {
	a    *core.Agent
	last string
}

// moved requires the ETag to differ from the previous stage's — a peer
// holding the old one must not be told 304 — and to be stable while the
// agent stands still.
func (tt *tokenTracker) moved(t *testing.T, stage string) {
	t.Helper()
	version, markers := tt.a.ContentToken()
	etag := ETag("inst", version, markers)
	if etag == tt.last {
		t.Fatalf("%s: the export changed but the ETag stayed %s", stage, etag)
	}
	if v, m := tt.a.ContentToken(); v != version || m != markers {
		t.Fatalf("%s: token %d/%#x then %d/%#x with nothing committed", stage, version, markers, v, m)
	}
	exported, _ := tt.a.ExportDelta(0)
	hasMarker := false
	for _, e := range exported {
		hasMarker = hasMarker || e.Quarantined
	}
	if hasMarker != (markers != 0) {
		t.Fatalf("%s: marker fold %#x with a marker exported: %v", stage, markers, hasMarker)
	}
	tt.last = etag
}

// TestContentTokenTracksEveryCommit drives every change that can move an
// agent's export — tick route programs (install + window change), fleet
// merge seeds, TTL expiry, and guard quarantine transitions (both the
// route-clearing onset and the commit-free recovery) — with the agent's
// socket scans fanned out over 1/2/4/8 workers (its width follows
// GOMAXPROCS), and requires the ETag built from ContentToken to move at each,
// with a concurrent reader racing the churn (run under -race in CI's
// race-stress step). A change the ETag missed would be answered 304 and
// never reach a peer.
func TestContentTokenTracksEveryCommit(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			var clockMu sync.Mutex
			now := time.Duration(0)
			sampler := &stubSampler{}
			gov := newScriptedGovernor()
			a, err := core.New(core.Config{
				Sampler: sampler,
				Routes:  newMemRoutes(),
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

			// A reader hammers the token throughout, so -race exercises it
			// against every commit site.
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
						_, _ = a.ContentToken()
					}
				}
			}()

			// Commit kind: tick route programs (fresh installs).
			install := make([]core.Observation, 0, 300)
			for i := 0; i < 300; i++ {
				install = append(install, obs(t, dst(i), 12+i%30))
			}
			tt := &tokenTracker{a: a}
			tt.moved(t, "empty")
			feed(install)
			tt.moved(t, "program-install")

			// Commit kind: tick route programs (window changes on installed
			// routes; the EWMA moves, so a subset reprograms).
			changed := make([]core.Observation, 0, 100)
			for i := 0; i < 100; i++ {
				changed = append(changed, obs(t, dst(i), 60))
			}
			advance(time.Second)
			feed(changed)
			tt.moved(t, "program-change")

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
			tt.moved(t, "merge-seed")

			// Commit kind: quarantine onset — the governor's verdict clears
			// the installed route and a marker appears in exports.
			qKey := netip.MustParsePrefix(dst(3) + "/32")
			gov.set(qKey, true)
			advance(time.Second)
			feed([]core.Observation{obs(t, dst(3), 40)})
			tt.moved(t, "quarantine-onset")

			// Governor-clock transition: the quarantine lapses with no agent
			// commit at all; only the token's marker fold can see it.
			gov.set(qKey, false)
			tt.moved(t, "quarantine-recovery")

			// Commit kind: TTL expiry (nothing refreshed for a full TTL).
			advance(2 * time.Minute)
			feed(nil)
			tt.moved(t, "expiry")

			// Re-install after the wipe, racing the reader the whole way.
			reinstall := make([]core.Observation, 0, 120)
			for i := 0; i < 120; i++ {
				reinstall = append(reinstall, obs(t, dst(i), 8+i%20))
			}
			feed(reinstall)
			tt.moved(t, "reinstall")

			close(stop)
			wg.Wait()
		})
	}
}
