package cdn

import (
	"bytes"
	"compress/gzip"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/gossip"
)

func newGossipCluster(t *testing.T, mode GossipMode) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		PoPs:        smallTopology(),
		HostsPerPoP: 2,
		Seed:        1,
		LossRate:    0.001,
		Riptide:     RiptideOptions{Enabled: true, TTL: 10 * time.Minute},
		Traffic: TrafficOptions{
			ProbeInterval: 30 * time.Second,
			IdleTimeout:   time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode != "" {
		if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, mode); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestEnableGossipSharingValidation(t *testing.T) {
	c := newGossipCluster(t, "")
	defer c.Stop()
	if err := c.EnableGossipSharing(0, core.MergePolicy{}, GossipLadder); err == nil {
		t.Error("zero interval accepted")
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, "telepathy"); err == nil {
		t.Error("unknown mode accepted")
	}

	noRiptide, err := NewCluster(Config{PoPs: smallTopology(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer noRiptide.Stop()
	if err := noRiptide.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder); err == nil {
		t.Error("gossip sharing without riptide accepted")
	}
}

// TestGossipLadderConverges: with ladder gossip on, agents hold entries
// beyond their own observations (cross-PoP dissemination works), and once
// the fleet is converged the rounds are overwhelmingly digest-only.
func TestGossipLadderConverges(t *testing.T) {
	c := newGossipCluster(t, GossipLadder)
	defer c.Stop()
	c.Run(5 * time.Minute)

	if s := c.AgentAt("lhr", 0).Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0 (gossip delivered entries)", s)
	}
	gs := c.GossipStats()
	if gs.Rounds == 0 || gs.BytesOnWire == 0 {
		t.Fatalf("stats = %+v, want accounted rounds and bytes", gs)
	}
	if gs.DigestRounds == 0 {
		t.Fatalf("stats = %+v: the ladder never had a digest-only round", gs)
	}
	if gs.FullRounds == 0 {
		t.Fatalf("stats = %+v: first contact should have been a full round", gs)
	}
	if got := gs.DigestRounds + gs.DeltaRounds + gs.BucketRounds + gs.FullRounds; got != gs.Rounds {
		t.Fatalf("per-mode rounds sum to %d, total says %d", got, gs.Rounds)
	}
	// Probes refresh entries constantly, but refreshes do not bump versions:
	// converged edges must dominate between real table changes.
	if gs.DigestRounds < gs.Rounds/2 {
		t.Errorf("stats = %+v: digest-only rounds are not the steady state", gs)
	}
}

// TestGossipLadderBeatsFullOnBytes is the cost claim: same fleet, same
// schedule, the ladder moves far fewer bytes than full-table rounds. The
// fleets carry a realistically sized warm table (a long-lived back-office
// fleet accumulates hundreds of destinations) — that is the regime the
// ladder is built for: digests are O(1) in table size, full snapshots are
// O(n), and on a freshly started toy table the two costs are comparable.
func TestGossipLadderBeatsFullOnBytes(t *testing.T) {
	ladder := newGossipCluster(t, GossipLadder)
	defer ladder.Stop()
	full := newGossipCluster(t, GossipFull)
	defer full.Stop()
	for _, c := range []*Cluster{ladder, full} {
		if err := c.SeedWarmEntries(400, core.MergePolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	ladder.Run(5 * time.Minute)
	full.Run(5 * time.Minute)

	lb, fb := ladder.GossipStats().BytesOnWire, full.GossipStats().BytesOnWire
	if lb == 0 || fb == 0 {
		t.Fatalf("bytes ladder=%d full=%d, want both accounted", lb, fb)
	}
	if lb*2 >= fb {
		t.Errorf("ladder moved %d bytes vs full %d — expected well under half", lb, fb)
	}
	if ladder.GossipStats().EntriesMoved >= full.GossipStats().EntriesMoved {
		t.Errorf("ladder moved %d entries vs full %d — deltas should carry less",
			ladder.GossipStats().EntriesMoved, full.GossipStats().EntriesMoved)
	}
}

// TestGossipSeedsRebootedHost: a rebooted machine regains entries from
// gossip within a couple of intervals, and its peers' restart detection
// (instance change + cursor drop) keeps the edges flowing rather than
// reading stale cursors as "converged".
func TestGossipSeedsRebootedHost(t *testing.T) {
	c := newGossipCluster(t, GossipLadder)
	defer c.Stop()
	c.Run(5 * time.Minute)

	if got := len(c.AgentAt("lhr", 0).Entries()); got == 0 {
		t.Fatal("no steady-state entries")
	}
	preBuckets := c.GossipStats().BucketRounds
	if _, err := c.RebootHost("lhr", 0); err != nil {
		t.Fatal(err)
	}

	// Two gossip intervals, well inside the 30 s probe cadence.
	c.Run(10 * time.Second)
	agent := c.AgentAt("lhr", 0)
	if got := len(agent.Entries()); got == 0 {
		t.Fatal("gossip did not seed the rebooted agent")
	}
	if s := agent.Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0", s)
	}
	// Peers of the rebooted machine saw its instance change and resynced
	// divergent buckets instead of re-pulling whole tables.
	if got := c.GossipStats().BucketRounds; got <= preBuckets {
		t.Errorf("bucket rounds %d -> %d: restart did not trigger a bucket resync", preBuckets, got)
	}
}

// TestGossipBytesOnWireMatchesFreshWriters pins the shared gzip writer:
// BytesOnWire after a gossip run must equal the sum of what a fresh writer
// per message would have produced, so a writer that carries dictionary or
// header state across Reset fails. The run is driven edge by edge so the
// test can see each message: a ladder pass (every edge a first contact: a
// small digest, then the peer's full table) and a full-table pass over
// tables the first pass has grown.
func TestGossipBytesOnWireMatchesFreshWriters(t *testing.T) {
	c := newGossipCluster(t, "")
	defer c.Stop()
	if err := c.SeedWarmEntries(50, core.MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute) // probes: every machine learns a different table

	var want, messages int64
	fresh := func(data []byte, err error) { // what accountWire charged before it shared a writer
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		_, _ = zw.Write(data)
		_ = zw.Close()
		want += int64(buf.Len())
		messages++
	}
	for _, mode := range []GossipMode{GossipLadder, GossipFull} {
		for _, pr := range c.gossipPairs() {
			peer, src := c.agents[pr.peer], pr.peer.String()
			if mode == GossipLadder {
				fresh(gossip.EncodeDigest(gossip.TableDigest(peer.agent, src, peer.instance)))
			}
			fresh(gossip.EncodeDelta(gossip.TableDelta(peer.agent, src, peer.instance, 0)))
			c.gossipExchange(pr, core.MergePolicy{}, mode)
		}
	}
	gs := c.GossipStats()
	if gs.FullRounds != gs.Rounds || gs.EntriesMoved == 0 {
		t.Fatalf("stats = %+v: every exchange should have shipped a full table", gs)
	}
	if gs.BytesOnWire != want {
		t.Fatalf("BytesOnWire = %d over %d messages, fresh writers sum to %d", gs.BytesOnWire, messages, want)
	}
}
