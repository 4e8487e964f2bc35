package cdn

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"time"

	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/fleet"
)

// GossipMode selects how EnableGossipSharing moves tables between peers.
type GossipMode string

const (
	// GossipLadder syncs the way riptided's puller does: one conditional
	// ?since= request per round, answered 304 while the receiver's ETag
	// still names the peer's table, with a delta when its cursor is usable,
	// and with the full table otherwise.
	GossipLadder GossipMode = "ladder"
	// GossipFull is the control arm: every request reaches the peer with no
	// cursor and no validator, so every round ships the peer's whole table,
	// the cost of a puller that never keeps a cursor.
	GossipFull GossipMode = "full"
)

// GossipPeers selects which machines each machine pulls from.
type GossipPeers string

const (
	// GossipPeersAll: every other machine of its PoP, and the machine of the
	// same index (modulo the PoP's size) of every other PoP.
	GossipPeersAll GossipPeers = "all"
	// GossipPeersPoP: only the other machines of its own PoP, which serve the
	// same destinations over the same WAN paths.
	GossipPeersPoP GossipPeers = "pop"
)

// GossipStats aggregates fleet gossip across the cluster. Rounds counts the
// successful pulls of every (receiver, peer) edge; exactly one of the
// per-mode counters (NotModifiedRounds, DeltaRounds, FullRounds) increments
// per round. They are the pullers' own counts (fleet.PeerHealth), a rebooted
// machine's retired puller included. BytesOnWire is the response body bytes
// the simulated wire carried: what riptided counts as
// riptide_gossip_bytes_received — the binary delta wire, nothing for a
// 304 — and the number conditional deltas exist to shrink.
type GossipStats struct {
	Rounds      int64
	DeltaRounds int64
	FullRounds  int64
	BytesOnWire int64
	// NotModifiedRounds counts the rounds whose validator (the ETag of the
	// receiver's last answer) still matched: an HTTP 304, headers only.
	NotModifiedRounds int64
	// FailedRounds counts the pulls that failed (a partitioned edge, a
	// down peer); they are not among Rounds.
	FailedRounds int64
}

// add folds one puller's per-peer counts into s.
func (s *GossipStats) add(health []fleet.PeerHealth) {
	for _, h := range health {
		s.Rounds += int64(h.Pulls)
		s.FailedRounds += int64(h.FailedPulls)
		s.NotModifiedRounds += int64(h.NotModified)
		s.DeltaRounds += int64(h.DeltaPulls)
		s.FullRounds += int64(h.FullPulls)
	}
}

// sharing is the fleet exchange EnableGossipSharing runs: every machine's
// daemon serves its agent through its fleet.Server and pulls its peers
// through its fleet.Puller, over an in-process wire (wire) on simulated time.
type sharing struct {
	interval time.Duration
	policy   core.MergePolicy
	full     bool
	// peers lists each machine's peer URLs in topology order.
	peers map[netip.Addr][]string
	// stats holds the body bytes the wire carried and the round counts of
	// the pullers reboots retired.
	stats GossipStats
}

// EnableGossipSharing starts periodic table sync over a deterministic peer
// topology (GossipPeers). Each machine runs riptided's own exchange: it
// restarts its daemon with its peers configured, so its agent is served by
// the daemon's fleet server and pulled from by the daemon's puller every
// interval, in topology order, over an in-process wire that crosses no
// partitioned path. Merged entries are stamped by the receiver's own version
// counter, so they ride its next delta to its peers: epidemic dissemination.
// Call at most once, before Run and before SeedWarmEntries, while the
// restarted agents lose nothing; requires Riptide to be enabled.
func (c *Cluster) EnableGossipSharing(interval time.Duration, policy core.MergePolicy, mode GossipMode, peers GossipPeers) error {
	switch {
	case interval <= 0:
		return fmt.Errorf("cdn: gossip interval %v must be positive", interval)
	case !c.cfg.Riptide.Enabled:
		return errors.New("cdn: gossip sharing requires Riptide to be enabled")
	case mode != GossipLadder && mode != GossipFull:
		return fmt.Errorf("cdn: unknown gossip mode %q (want %q or %q)", mode, GossipLadder, GossipFull)
	case peers != GossipPeersAll && peers != GossipPeersPoP:
		return fmt.Errorf("cdn: unknown gossip peer set %q (want %q or %q)", peers, GossipPeersAll, GossipPeersPoP)
	case c.sharing != nil:
		return errors.New("cdn: gossip sharing is already enabled")
	case c.engine.Now() > 0 || c.TotalRoutes() > 0:
		return errors.New("cdn: gossip sharing must be enabled before the cluster runs or is seeded")
	}
	c.sharing = &sharing{interval: interval, policy: policy, full: mode == GossipFull, peers: c.peerURLs(peers)}
	for _, p := range c.pops {
		for _, h := range c.hosts[p.Name] {
			if err := c.restart(h, c.agents[h.Addr()]); err != nil {
				return fmt.Errorf("cdn: restart agent for %v: %w", h.Addr(), err)
			}
		}
	}
	tk, err := eventsim.NewTicker(c.engine, interval, func(time.Duration) {
		for _, p := range c.pops {
			for _, h := range c.hosts[p.Name] {
				c.agents[h.Addr()].d.Pull(context.Background())
			}
		}
	})
	if err != nil {
		return err
	}
	c.tickers = append(c.tickers, tk)
	return nil
}

// GossipStats returns the cumulative gossip accounting.
func (c *Cluster) GossipStats() GossipStats {
	s := c.sharing
	if s == nil {
		return GossipStats{}
	}
	out := s.stats
	for _, slot := range c.agents {
		out.add(slot.d.PeerHealth())
	}
	return out
}

// wire is the simulated network between fleet peers, as one machine's
// puller sees it: a request to http://<addr> is answered in-process by that
// machine's fleet server. A request fails while the path either way between
// the two machines is blocked (a peer partition), so the puller's own
// backoff runs on simulated time.
type wire struct {
	c    *Cluster
	from netip.Addr
}

// RoundTrip implements http.RoundTripper.
func (w wire) RoundTrip(req *http.Request) (*http.Response, error) {
	c := w.c
	to, err := netip.ParseAddr(req.URL.Host)
	if err != nil {
		return nil, err
	}
	if c.net.PathBlocked(w.from, to) || c.net.PathBlocked(to, w.from) {
		return nil, fmt.Errorf("cdn: %v -> %v is partitioned", w.from, to)
	}
	if c.sharing.full {
		// The control arm's puller keeps no cursor and no validator.
		req = req.Clone(req.Context())
		req.URL.RawQuery = ""
		req.Header.Del("If-None-Match")
	}
	rec := httptest.NewRecorder()
	c.agents[to].d.Handler().ServeHTTP(rec, req)
	c.sharing.stats.BytesOnWire += int64(rec.Body.Len())
	return rec.Result(), nil
}

// SeedWarmEntries pre-populates every agent's table with n synthetic warm
// destinations, modeling a long-lived back-office fleet whose accumulated
// table dwarfs what a short simulation's own probes can learn. The table
// size is what conditional deltas' byte economics hinge on: a 304 is O(1)
// in table size while a full table is O(n), so a freshly started toy fleet
// understates their advantage badly. Call before
// Run; requires Riptide to be enabled.
func (c *Cluster) SeedWarmEntries(n int, policy core.MergePolicy) error {
	if n <= 0 {
		return fmt.Errorf("cdn: seed entry count %d must be positive", n)
	}
	if !c.cfg.Riptide.Enabled {
		return fmt.Errorf("cdn: seeding warm entries requires Riptide to be enabled")
	}
	seed := make([]core.SnapshotEntry, n)
	for i := range seed {
		// 198.18.0.0/15 (RFC 2544 benchmarking range) cannot collide with
		// the 10.0.0.0/8 addresses the simulated PoPs probe.
		seed[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + i/65536), byte(i / 256 % 256), byte(i % 256)}), 32),
			Window:  10 + i%20,
			Samples: 50,
		}
	}
	for _, p := range c.pops {
		for _, h := range c.hosts[p.Name] {
			if _, err := c.agents[h.Addr()].d.Agent.MergeSnapshot(seed, policy); err != nil {
				return fmt.Errorf("cdn: seed %s: %w", h.Addr(), err)
			}
		}
	}
	return nil
}

// peerURLs builds each machine's peer list in topology order (map
// iteration would break run reproducibility): machine i of each PoP pulls
// from every other machine of its PoP and, unless set is GossipPeersPoP, from
// machine i (modulo the PoP's size) of every other PoP.
func (c *Cluster) peerURLs(set GossipPeers) map[netip.Addr][]string {
	out := make(map[netip.Addr][]string)
	for pi, p := range c.pops {
		hs := c.hosts[p.Name]
		for i, h := range hs {
			var urls []string
			for j, peer := range hs {
				if j != i {
					urls = append(urls, "http://"+peer.Addr().String())
				}
			}
			for qi, q := range c.pops {
				if qi != pi && set == GossipPeersAll {
					qh := c.hosts[q.Name]
					urls = append(urls, "http://"+qh[i%len(qh)].Addr().String())
				}
			}
			out[h.Addr()] = urls
		}
	}
	return out
}
