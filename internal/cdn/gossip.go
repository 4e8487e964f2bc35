package cdn

import (
	"fmt"
	"net/netip"
	"time"

	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/gossip"
)

// GossipMode selects how EnableGossipSharing moves tables between peers.
type GossipMode string

const (
	// GossipLadder syncs via the anti-entropy ladder: a fixed-size digest
	// every round, a versioned delta (or divergent-bucket pull after a peer
	// restart) only when the digest shows divergence.
	GossipLadder GossipMode = "ladder"
	// GossipFull is the control arm: every round ships the peer's whole
	// table, the cost model of riptided's legacy full-snapshot pulls.
	GossipFull GossipMode = "full"
)

// GossipStats aggregates the wire cost of fleet gossip across the cluster.
// Rounds counts (receiver, peer) exchanges; exactly one of the per-mode
// counters increments per round. BytesOnWire is the gzip-compressed size of
// everything exchanged — the number the anti-entropy ladder exists to
// shrink.
type GossipStats struct {
	Rounds       int64
	DigestRounds int64
	DeltaRounds  int64
	BucketRounds int64
	FullRounds   int64
	BytesOnWire  int64
	EntriesMoved int64
	// NotModifiedRounds counts the digest rounds where the receiver's
	// validator (its cursor's instance+version+content) matched server-side
	// and the exchange was an HTTP 304 — headers only, not even the digest
	// body. Always a subset of DigestRounds.
	NotModifiedRounds int64
}

// notModifiedWireBytes is the modeled wire cost of a 304 exchange: the
// request's If-None-Match plus the response's status line and ETag — headers
// only, no body. Matches the order of magnitude of riptided's real headers;
// the exact constant matters less than being charged per round instead of
// per table size.
const notModifiedWireBytes = 120

// gossipPair is one directed sync edge: receiver pulls from peer.
type gossipPair struct{ receiver, peer netip.Addr }

// gossipCursor is what a receiver remembers about one peer between rounds:
// the peer's boot identity, its table version, and its last served digest.
type gossipCursor struct {
	instance string
	version  uint64
	digest   gossip.Digest
}

// EnableGossipSharing starts periodic anti-entropy table sync over a
// deterministic peer topology: every machine pulls from its same-PoP peers
// and from one machine of every other PoP, so a cold region re-learns the
// fleet's table without waiting for its own probes. Unlike
// EnableFleetSharing (same-PoP full-table merges with no cost model), every
// exchange here is encoded to its real gzip wire size and accounted in
// GossipStats, and GossipLadder spends only a fixed-size digest per round on
// converged peers. Call before Run; requires Riptide to be enabled.
func (c *Cluster) EnableGossipSharing(interval time.Duration, policy core.MergePolicy, mode GossipMode) error {
	if interval <= 0 {
		return fmt.Errorf("cdn: gossip interval %v must be positive", interval)
	}
	if !c.cfg.Riptide.Enabled {
		return fmt.Errorf("cdn: gossip sharing requires Riptide to be enabled")
	}
	if mode != GossipLadder && mode != GossipFull {
		return fmt.Errorf("cdn: unknown gossip mode %q (want %q or %q)", mode, GossipLadder, GossipFull)
	}
	pairs := c.gossipPairs()
	tk, err := eventsim.NewTicker(c.engine, interval, func(time.Duration) {
		for _, pr := range pairs {
			c.gossipExchange(pr, policy, mode)
		}
	})
	if err != nil {
		return err
	}
	c.tickers = append(c.tickers, tk)
	return nil
}

// GossipStats returns the cumulative gossip wire accounting.
func (c *Cluster) GossipStats() GossipStats { return c.gossipStats }

// SeedWarmEntries pre-populates every agent's table with n synthetic warm
// destinations, modeling a long-lived back-office fleet whose accumulated
// table dwarfs what a short simulation's own probes can learn. The table
// size is what the anti-entropy ladder's byte economics hinge on: a digest
// is O(1) in table size while a full snapshot is O(n), so a freshly
// started toy fleet understates the ladder's advantage badly. Call before
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
			slot, ok := c.agents[h.Addr()]
			if !ok || slot.agent == nil {
				continue
			}
			if _, err := slot.agent.MergeSnapshot(seed, policy); err != nil {
				return fmt.Errorf("cdn: seed %s: %w", h.Addr(), err)
			}
		}
	}
	return nil
}

// gossipPairs builds the sync topology in topology order (map iteration
// would break run reproducibility): machine i of each PoP pulls from every
// other machine of its PoP and from machine i of every other PoP.
func (c *Cluster) gossipPairs() []gossipPair {
	var out []gossipPair
	for pi, p := range c.pops {
		hs := c.hosts[p.Name]
		for i, h := range hs {
			for j, peer := range hs {
				if j != i {
					out = append(out, gossipPair{h.Addr(), peer.Addr()})
				}
			}
			for qi, q := range c.pops {
				if qi == pi {
					continue
				}
				qh := c.hosts[q.Name]
				out = append(out, gossipPair{h.Addr(), qh[i%len(qh)].Addr()})
			}
		}
	}
	return out
}

// gossipExchange runs one receiver<-peer sync round, walking the ladder in
// GossipLadder mode and shipping the full table in GossipFull mode. Entries
// merged here are stamped by the receiver's own version counter, so they
// ride the receiver's next delta to its peers — epidemic dissemination.
func (c *Cluster) gossipExchange(pr gossipPair, policy core.MergePolicy, mode GossipMode) {
	recv, ok := c.agents[pr.receiver]
	peer, ok2 := c.agents[pr.peer]
	if !ok || !ok2 || recv.agent == nil || peer.agent == nil {
		return
	}
	src := pr.peer.String()
	c.gossipStats.Rounds++

	if mode == GossipFull {
		delta := gossip.TableDelta(peer.agent, src, peer.instance, 0)
		c.gossipStats.FullRounds++
		c.accountDelta(delta)
		c.mergeDelta(recv.agent, delta, policy)
		return
	}

	d := gossip.TableDigest(peer.agent, src, peer.instance)
	cur, haveCur := c.gossipCursors[pr]
	if haveCur && cur.instance == d.Instance && cur.version == d.TableVersion &&
		gossip.ContentEqual(d, cur.digest) {
		// The receiver's validator (cursor instance+version, which is what
		// riptided's ETag encodes) matches server-side: the exchange is an
		// HTTP 304 and not even the digest body crosses the wire.
		c.gossipStats.DigestRounds++
		c.gossipStats.NotModifiedRounds++
		c.gossipStats.BytesOnWire += notModifiedWireBytes
		return
	}
	c.accountWire(gossip.EncodeDigest(d))
	if haveCur && gossip.ContentEqual(d, cur.digest) {
		// Converged content under a moved counter (or across an instance
		// change): the validator missed, so the digest body was served —
		// and it was the whole round's traffic. The cursor fast-forwards.
		c.gossipStats.DigestRounds++
		c.gossipCursors[pr] = gossipCursor{instance: d.Instance, version: d.TableVersion, digest: d}
		return
	}

	var delta gossip.Delta
	switch {
	case haveCur && cur.instance == d.Instance && cur.version > 0:
		// Same boot: pull only entries committed since our cursor.
		delta = gossip.TableDelta(peer.agent, src, peer.instance, cur.version)
		if delta.Full {
			c.gossipStats.FullRounds++
		} else {
			c.gossipStats.DeltaRounds++
		}
	case haveCur:
		// Peer restarted (version counter reset): pull only the buckets
		// whose content hash diverged from what we remember.
		delta = gossip.TableBuckets(peer.agent, src, peer.instance, gossip.DiffBuckets(d, cur.digest))
		c.gossipStats.BucketRounds++
	default:
		// First contact: full table.
		delta = gossip.TableDelta(peer.agent, src, peer.instance, 0)
		c.gossipStats.FullRounds++
	}
	c.accountDelta(delta)
	c.mergeDelta(recv.agent, delta, policy)
	// The exchange is synchronous in simulated time, so the served digest
	// exactly describes the state the delta brought us to.
	c.gossipCursors[pr] = gossipCursor{instance: d.Instance, version: d.TableVersion, digest: d}
}

// accountDelta adds a delta's gzip wire size and entry count to the stats.
func (c *Cluster) accountDelta(d gossip.Delta) {
	c.accountWire(gossip.EncodeDelta(d))
	c.gossipStats.EntriesMoved += int64(len(d.Entries))
}

// accountWire counts one encoded message at its gzip-compressed size, the
// transfer encoding riptided's fleet endpoints negotiate. Nothing reads the
// compressed bytes, so one writer (≈800 KB of state, far more than a message)
// serves every message, Reset onto a counter each time.
func (c *Cluster) accountWire(data []byte, err error) {
	if err != nil {
		return // encoding our own structs cannot fail; keep the stats honest
	}
	c.wireGzip.Reset((*byteCounter)(&c.gossipStats.BytesOnWire))
	_, _ = c.wireGzip.Write(data)
	_ = c.wireGzip.Close()
}

// byteCounter is an io.Writer that only counts what it is given.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// mergeDelta folds a delta into the receiving agent. The simulated kernel
// cannot fail route programming; merges against a just-rebooted (closed)
// agent are rejected by the agent itself.
func (c *Cluster) mergeDelta(a *core.Agent, d gossip.Delta, policy core.MergePolicy) {
	if len(d.Entries) == 0 {
		return
	}
	_, _ = a.MergeSnapshot(gossip.ToCore(d.Entries), policy)
}

// nextInstance mints a fresh gossip boot identity for a machine. Instances
// must change across reboots — peers use the change to fall back from their
// stale delta cursor to a bucket resync.
func (c *Cluster) nextInstance(addr netip.Addr) string {
	c.instanceSeq++
	return fmt.Sprintf("%v#%d", addr, c.instanceSeq)
}

// dropGossipCursors forgets everything a rebooted receiver remembered about
// its peers. Its merged table is gone with the old agent; keeping the
// cursors would let a matching digest read as "converged" and skip the
// re-merge forever.
func (c *Cluster) dropGossipCursors(receiver netip.Addr) {
	for pr := range c.gossipCursors {
		if pr.receiver == receiver {
			delete(c.gossipCursors, pr)
		}
	}
}
