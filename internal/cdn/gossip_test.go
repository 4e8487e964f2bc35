package cdn

import (
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
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
		if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, mode, GossipPeersAll); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestEnableGossipSharingValidation(t *testing.T) {
	c := newGossipCluster(t, "")
	defer c.Stop()
	if err := c.EnableGossipSharing(0, core.MergePolicy{}, GossipLadder, GossipPeersAll); err == nil {
		t.Error("zero interval accepted")
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, "telepathy", GossipPeersAll); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, "everyone"); err == nil {
		t.Error("unknown peer set accepted")
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, GossipPeersPoP); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, GossipPeersAll); err == nil {
		t.Error("second enable accepted")
	}

	// Enabling restarts every agent, so a seeded or running fleet would
	// lose what it holds.
	seeded := newGossipCluster(t, "")
	defer seeded.Stop()
	if err := seeded.SeedWarmEntries(10, core.MergePolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := seeded.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, GossipPeersAll); err == nil {
		t.Error("gossip sharing enabled over seeded agents")
	}
	running := newGossipCluster(t, "")
	defer running.Stop()
	running.Run(time.Second)
	if err := running.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, GossipPeersAll); err == nil {
		t.Error("gossip sharing enabled after Run")
	}

	noRiptide, err := NewCluster(Config{PoPs: smallTopology(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer noRiptide.Stop()
	if err := noRiptide.EnableGossipSharing(5*time.Second, core.MergePolicy{}, GossipLadder, GossipPeersAll); err == nil {
		t.Error("gossip sharing without riptide accepted")
	}
}

// TestGossipLadderConverges: with conditional gossip on, agents hold entries
// beyond their own observations (cross-PoP dissemination works), and once
// the fleet is converged the rounds are overwhelmingly 304s.
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
	if gs.NotModifiedRounds == 0 {
		t.Fatalf("stats = %+v: no round was ever a 304", gs)
	}
	if gs.FullRounds == 0 {
		t.Fatalf("stats = %+v: first contact should have been a full round", gs)
	}
	if got := gs.NotModifiedRounds + gs.DeltaRounds + gs.FullRounds; got != gs.Rounds {
		t.Fatalf("per-mode rounds sum to %d, total says %d", got, gs.Rounds)
	}
	// Probes refresh entries constantly, but refreshes do not bump versions:
	// converged edges must dominate between real table changes.
	if gs.NotModifiedRounds < gs.Rounds/2 {
		t.Errorf("stats = %+v: 304 rounds are not the steady state", gs)
	}
}

// TestGossipLadderBeatsFullOnBytes is the cost claim: same fleet, same
// schedule, conditional deltas end in the same tables as full-table rounds
// (every machine holds the same prefixes at the same windows) and move far
// fewer bytes. The fleets carry a realistically sized warm table (a
// long-lived back-office fleet accumulates hundreds of destinations) — that
// is the regime deltas are built for: a 304 is O(1) in table size, a full
// table is O(n), and on a freshly started toy table the two costs are
// comparable.
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

	type route struct {
		prefix netip.Prefix
		window int
	}
	routes := func(a *core.Agent) []route {
		var out []route
		for _, e := range a.Entries() {
			out = append(out, route{e.Prefix, e.Window})
		}
		return out
	}
	for _, p := range ladder.PoPs() {
		l, f := ladder.Agents(p.Name), full.Agents(p.Name)
		for i := range l {
			if lr, fr := routes(l[i]), routes(f[i]); !slices.Equal(lr, fr) {
				t.Errorf("%s[%d]: ladder holds %d routes, full %d, and they differ", p.Name, i, len(lr), len(fr))
			}
		}
	}

	ls, fs := ladder.GossipStats(), full.GossipStats()
	if ls.Rounds != fs.Rounds || fs.FullRounds != fs.Rounds {
		t.Errorf("rounds ladder=%+v full=%+v: want the same schedule, every control round full", ls, fs)
	}
	if ls.BytesOnWire == 0 || fs.BytesOnWire == 0 {
		t.Fatalf("bytes ladder=%d full=%d, want both accounted", ls.BytesOnWire, fs.BytesOnWire)
	}
	if ls.BytesOnWire*2 >= fs.BytesOnWire {
		t.Errorf("ladder moved %d bytes vs full %d — expected well under half", ls.BytesOnWire, fs.BytesOnWire)
	}
	t.Logf("%d rounds each; ladder %d B, full %d B", ls.Rounds, ls.BytesOnWire, fs.BytesOnWire)
}

// TestGossipSeedsRebootedHost: a rebooted machine regains entries from
// gossip within a couple of intervals, and its peers' restart detection
// (instance change + cursor drop) keeps the edges flowing rather than
// reading stale cursors as "converged": each peer's cursor on the old boot
// is unusable, so it pulls the new boot's whole table. The reboot is the
// daemon's stop, New and start: the kernel keeps no route of the old agent,
// the new daemon serves a new fleet instance, and the retired puller's pulls
// stay counted.
func TestGossipSeedsRebootedHost(t *testing.T) {
	c := newGossipCluster(t, GossipLadder)
	defer c.Stop()
	c.Run(5 * time.Minute)

	if got := len(c.AgentAt("lhr", 0).Entries()); got == 0 {
		t.Fatal("no steady-state entries")
	}
	host, _ := c.Host("lhr")
	url := "http://" + host.Addr().String()
	// instance reads the boot identity the machine's fleet server scopes its
	// ETags to: "<instance>/<version>".
	instance := func() string {
		rec := httptest.NewRecorder()
		c.agents[host.Addr()].d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url+fleet.DeltaPath, nil))
		etag := strings.Trim(rec.Header().Get("ETag"), `"`)
		i := strings.LastIndexByte(etag, '/')
		if rec.Code != 200 || i < 0 {
			t.Fatalf("GET %s: %d, ETag %q", fleet.DeltaPath, rec.Code, etag)
		}
		return etag[:i]
	}
	// pullsOf sums the pulls and full pulls every peer made of the machine.
	pullsOf := func() (pulls, full uint64, peers int) {
		for addr, slot := range c.agents {
			for _, h := range slot.d.PeerHealth() {
				if h.URL == url && addr != host.Addr() {
					pulls, full, peers = pulls+h.Pulls, full+h.FullPulls, peers+1
				}
			}
		}
		return pulls, full, peers
	}
	oldInstance := instance()
	pre := c.GossipStats()
	prePulls, preFullPulls, peers := pullsOf()
	if peers == 0 {
		t.Fatalf("no machine pulls %s", url)
	}
	if _, err := c.RebootHost("lhr", 0); err != nil {
		t.Fatal(err)
	}
	if left := host.Routes(); len(left) != 0 {
		t.Errorf("the rebooted kernel holds %d routes, want none: %+v", len(left), left)
	}
	if got := c.GossipStats(); got != pre {
		t.Errorf("gossip stats %+v after the reboot, want %+v: the retired puller's pulls went uncounted", got, pre)
	}
	if got := instance(); got == oldInstance {
		t.Errorf("the rebooted machine serves its old instance %q", got)
	}

	// One gossip interval: every peer pulls the new boot once, in full.
	c.Run(5 * time.Second)
	pulls, fullPulls, _ := pullsOf()
	if pulls != prePulls+uint64(peers) || fullPulls != preFullPulls+uint64(peers) {
		t.Errorf("%d peers pulled the rebooted machine %d times, %d of them full; want one full pull each",
			peers, pulls-prePulls, fullPulls-preFullPulls)
	}

	// Two gossip intervals, well inside the 30 s probe cadence.
	c.Run(5 * time.Second)
	agent := c.AgentAt("lhr", 0)
	if got := len(agent.Entries()); got == 0 {
		t.Fatal("gossip did not seed the rebooted agent")
	}
	if s := agent.Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0", s)
	}
	// The rebooted machine pulled every peer afresh, and its peers saw its
	// instance change: both directions of each edge resynced in full.
	if got := c.GossipStats().FullRounds; got <= pre.FullRounds {
		t.Errorf("full rounds %d -> %d: the restart did not trigger a resync", pre.FullRounds, got)
	}
}

// TestGossipPartitionFailsCrossEdges: a peer partition reaches the fleet
// exchange. While lhr and nrt are split, exactly the edges between them fail,
// and each backs off on simulated time: the puller's interval doubled per
// failure, capped at its MaxBackoff (8× the interval). So each crossing edge's
// lifetime failure count is exactly the pulls that schedule puts inside the
// split, every other edge's is zero, and the cluster's gossip accounting
// carries their sum. Once the partition heals, every edge is healthy again
// within MaxBackoff plus one interval.
func TestGossipPartitionFailsCrossEdges(t *testing.T) {
	const interval, maxBackoff = 5 * time.Second, 40 * time.Second
	c := newGossipCluster(t, GossipLadder)
	defer c.Stop()
	split, heal := 62*time.Second, 242*time.Second
	if err := (PeerPartition{A: "lhr", B: "nrt", At: split, For: heal - split}).Apply(c); err != nil {
		t.Fatal(err)
	}
	type edge struct {
		receiver netip.Addr
		peer     string
	}
	cross := make(map[edge]bool)
	lhr, _ := c.Hosts("lhr")
	nrt, _ := c.Hosts("nrt")
	for i := range lhr {
		cross[edge{lhr[i].Addr(), "http://" + nrt[i].Addr().String()}] = true
		cross[edge{nrt[i].Addr(), "http://" + lhr[i].Addr().String()}] = true
	}
	// Pulls run every interval; a crossing edge first fails at the first
	// one after the split and retries after each backoff until the heal.
	perEdge := 0
	for at, i := (split/interval+1)*interval, 0; at < heal; i++ {
		perEdge++
		at += min(interval<<i, maxBackoff)
	}

	c.Run(heal + maxBackoff + interval)
	var total uint64
	edges := 0
	for addr, slot := range c.agents {
		for _, h := range slot.d.PeerHealth() {
			e := edge{addr, h.URL}
			want := uint64(0)
			if cross[e] {
				want = uint64(perEdge)
				edges++
			}
			if h.FailedPulls != want {
				t.Errorf("%v -> %s failed %d pulls, want %d (last error %q)", addr, h.URL, h.FailedPulls, want, h.LastError)
			}
			if !h.Healthy {
				t.Errorf("%v -> %s still failing %v after the heal: %s", addr, h.URL, c.Engine().Now()-heal, h.LastError)
			}
			total += h.FailedPulls
		}
	}
	if edges != len(cross) {
		t.Fatalf("%d crossing edges pulled, want %d", edges, len(cross))
	}
	if got := c.GossipStats().FailedRounds; got != int64(total) || total != uint64(perEdge*len(cross)) {
		t.Errorf("gossip stats count %d failed rounds, the pullers %d; want %d", got, total, perEdge*len(cross))
	}
}
