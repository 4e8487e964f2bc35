package cdn

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"slices"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/eventsim"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/kernel"
	"riptide/internal/netsim"
	"riptide/internal/workload"
)

// hostSampler adapts a simulated kernel's connection table to the agent's
// ConnectionSampler — the `ss` of the simulated world. The snapshot buffer
// is reused across ticks and each connection writes its slot in place, so a
// steady connection set samples without allocating; each observation is
// written field by field into its slot of the caller's buffer rather than
// copied in as a composite literal.
type hostSampler struct {
	host  *kernel.Host
	snaps []kernel.ConnSnapshot
}

// SampleConnections implements core.ConnectionSampler.
func (s *hostSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	s.snaps = s.host.AppendConnections(s.snaps[:0])
	n := len(buf)
	buf = slices.Grow(buf, len(s.snaps))[:n+len(s.snaps)]
	for i := range s.snaps {
		c, o := &s.snaps[i], &buf[n+i]
		o.Dst = c.Dst
		o.Cwnd = c.Cwnd
		o.RTT = c.RTT
		o.BytesAcked = c.BytesAcked
		o.Retrans = c.Retrans
		o.SegsOut = c.SegsOut
	}
	return buf, nil
}

// hostRoutes adapts a simulated kernel's route table to the agent's
// RouteProgrammer — the `ip route` of the simulated world. The update
// buffer backs the batched path and is reused across ticks.
type hostRoutes struct {
	host    *kernel.Host
	updates []kernel.RouteUpdate
}

// SetInitCwnd implements core.RouteProgrammer.
func (r *hostRoutes) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	return r.host.AddRoute(kernel.Route{Prefix: prefix, InitCwnd: cwnd, Proto: "static"})
}

// ClearInitCwnd implements core.RouteProgrammer.
func (r *hostRoutes) ClearInitCwnd(prefix netip.Prefix) error {
	r.host.DelRoute(prefix)
	return nil
}

// ProgramRoutes implements core.BatchRouteProgrammer: the whole route set
// lands in the simulated kernel under one lock acquisition.
func (r *hostRoutes) ProgramRoutes(ops []core.RouteOp) []error {
	r.updates = r.updates[:0]
	for _, op := range ops {
		r.updates = append(r.updates, kernel.RouteUpdate{
			Route:  kernel.Route{Prefix: op.Prefix, InitCwnd: op.Window, Proto: "static"},
			Delete: op.Clear,
		})
	}
	return r.host.ApplyRoutes(r.updates)
}

// RiptideOptions tunes the per-host agents.
type RiptideOptions struct {
	// Enabled turns Riptide on; when false the cluster is the paper's
	// control group.
	Enabled bool
	// CMax / CMin clamp programmed windows (paper sweeps CMax 50..250).
	CMax, CMin int
	// Alpha is the EWMA history weight.
	Alpha float64
	// UpdateInterval is i_u; defaults to the paper's 1 s.
	UpdateInterval time.Duration
	// TTL is t; defaults to the paper's 90 s.
	TTL time.Duration
	// PrefixBits is route granularity (32 = per host, 24 = per PoP).
	PrefixBits int
	// Combiner overrides the paper's average for ablations.
	Combiner core.Combiner
	// History names the history policy (core.HistoryByName, with Alpha);
	// empty is the paper's EWMA. Every agent builds its own.
	History string
	// Advised names the PoPs whose agents get a core.LoadBalanceAdvisor,
	// which a ShiftWarning warns; other agents run without one.
	Advised []string
	// Guard, when set, gives every host's agent a closed-loop safety
	// governor built from this configuration (the daemon sets its Clock
	// and Metrics). A host reboot rebuilds the governor empty, like the
	// rest of the agent's learned state.
	Guard *guard.Config
}

// TrafficOptions shapes the synthetic workload.
type TrafficOptions struct {
	// ProbeInterval is how often each machine probes every other PoP. The
	// paper probes hourly from many machines per PoP; simulated runs
	// compress the interval (default 60 s) to preserve the observation
	// density Riptide sees.
	ProbeInterval time.Duration
	// ProbeSizes are the probe payloads (default 10/50/100 KB).
	ProbeSizes []int
	// CloseAfterTransferProb is the chance a connection closes once its
	// transfer completes — the paper's application restarts, errors, and
	// load-balancer churn that force fresh connections. Default 0.5.
	CloseAfterTransferProb float64
	// IdleTimeout closes pooled connections idle this long. Default 5 m.
	IdleTimeout time.Duration
	// OrganicRates gives selected PoPs background traffic: transfers per
	// second sent from each machine of that PoP to other PoPs
	// (Figure 11's "busy" profile). PoPs absent from the map carry probe
	// traffic only.
	OrganicRates map[string]float64
	// OrganicSizes draws organic object sizes; defaults to the Figure 2
	// distribution.
	OrganicSizes workload.Sampler
}

// Config assembles a Cluster.
type Config struct {
	// PoPs lists the deployment; defaults to DefaultTopology().
	PoPs []PoP
	// HostsPerPoP is how many machines each PoP runs (default 1). Each
	// machine gets its own kernel, its own Riptide agent, and its own
	// probe schedule, like the paper's deployment.
	HostsPerPoP int
	// Seed drives all randomness.
	Seed int64
	// LossRate is the baseline random per-segment loss on WAN paths.
	LossRate float64
	// RTTJitter adds per-round queueing-delay variation on WAN paths
	// (netsim.PathConfig.RTTJitter). Zero keeps rounds exact.
	RTTJitter float64
	// CapacitySegments bounds each path's per-RTT load; 0 = unlimited.
	CapacitySegments int
	// Riptide configures the agents.
	Riptide RiptideOptions
	// Traffic shapes probes and organic load.
	Traffic TrafficOptions
}

// ProbeRecord is one completed diagnostic probe.
type ProbeRecord struct {
	// Src and Dst are PoP names; SrcHost/DstHost the machine addresses.
	Src, Dst         string
	SrcHost, DstHost netip.Addr
	SizeBytes        int
	RTT              time.Duration
	Bucket           RTTBucket
	Elapsed          time.Duration
	Rounds           int
	InitCwnd         int
	// FreshConn reports whether the probe opened a new connection (the
	// population Riptide affects) rather than reusing an idle one.
	FreshConn bool
	// At is the simulated completion time.
	At time.Duration
}

// ProbeFailure records one probe that could not even open its connection —
// the fingerprint of a partition or a torn-down path.
type ProbeFailure struct {
	// Src and Dst are PoP names.
	Src, Dst string
	// At is the simulated time the open failed.
	At time.Duration
}

// CwndSample is one periodic `ss` observation of a live connection.
type CwndSample struct {
	// Src is the sampling machine's PoP; Host its address.
	Src  string
	Host netip.Addr
	Dst  string
	Cwnd int
	// OpenedAfterStart reports whether the connection was created after
	// the measurement epoch began (the paper only counts those).
	OpenedAfterStart bool
	At               time.Duration
}

// Cluster is the simulated CDN.
type Cluster struct {
	cfg    Config
	engine *eventsim.Engine
	net    *netsim.Network
	rng    *rand.Rand

	pops    []PoP
	byName  map[string]PoP
	hosts   map[string][]*kernel.Host // per PoP, in machine order
	agents  map[netip.Addr]*agentSlot
	tickers []*eventsim.Ticker
	// organic holds each machine's background-traffic source, so Stop can
	// cancel its pending arrival; stopped records that Stop ran.
	organic []*organicSource
	stopped bool

	// sharing is the fleet exchange, nil until EnableGossipSharing.
	sharing *sharing

	pools map[poolKey][]pooledConn
	// poolOrder lists the keys of pools in the order they were created, the
	// order the sweeper walks them in.
	poolOrder []poolKey

	probes      []ProbeRecord
	probeFailed []ProbeFailure
	cwndSamples []CwndSample
	epoch       time.Duration
}

// agentSlot indirects access to a machine's Riptide daemon, so a reboot can
// swap in a fresh one while the per-host ticker keeps firing. advisor is the
// machine's advisor when its PoP is advised (nil otherwise): it carries the
// orchestrator's warnings, not learned state, so the rebooted daemon keeps
// it.
type agentSlot struct {
	d       *daemon.Daemon
	advisor *core.LoadBalanceAdvisor
}

type poolKey struct{ src, dst netip.Addr }

type pooledConn struct {
	conn     *netsim.Conn
	idleFrom time.Duration
}

// NewCluster builds the simulated CDN: hosts, full-mesh paths, traffic
// processes, samplers, and (optionally) a Riptide agent per host.
func NewCluster(cfg Config) (*Cluster, error) {
	if len(cfg.PoPs) == 0 {
		cfg.PoPs = DefaultTopology()
	}
	if len(cfg.PoPs) < 2 {
		return nil, errors.New("cdn: need at least two PoPs")
	}
	if cfg.HostsPerPoP == 0 {
		cfg.HostsPerPoP = 1
	}
	if cfg.HostsPerPoP < 1 || cfg.HostsPerPoP > 200 {
		return nil, fmt.Errorf("cdn: hosts per PoP %d out of [1,200]", cfg.HostsPerPoP)
	}
	if cfg.Traffic.ProbeInterval == 0 {
		cfg.Traffic.ProbeInterval = 60 * time.Second
	}
	if cfg.Traffic.ProbeInterval < 0 {
		return nil, fmt.Errorf("cdn: probe interval %v must be positive", cfg.Traffic.ProbeInterval)
	}
	if len(cfg.Traffic.ProbeSizes) == 0 {
		cfg.Traffic.ProbeSizes = append([]int(nil), workload.ProbeSizes...)
	}
	if cfg.Traffic.CloseAfterTransferProb == 0 {
		cfg.Traffic.CloseAfterTransferProb = 0.5
	}
	if cfg.Traffic.CloseAfterTransferProb < 0 || cfg.Traffic.CloseAfterTransferProb > 1 {
		return nil, fmt.Errorf("cdn: close probability %v out of [0,1]", cfg.Traffic.CloseAfterTransferProb)
	}
	if cfg.Traffic.IdleTimeout == 0 {
		cfg.Traffic.IdleTimeout = 5 * time.Minute
	}
	if cfg.Traffic.OrganicSizes == nil {
		cfg.Traffic.OrganicSizes = workload.CDNFileSizes()
	}

	engine := eventsim.NewEngine()
	net, err := netsim.NewNetwork(netsim.Config{Engine: engine, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		engine: engine,
		net:    net,
		rng:    workload.NewRand(cfg.Seed + 1),
		pops:   cfg.PoPs,
		byName: make(map[string]PoP, len(cfg.PoPs)),
		hosts:  make(map[string][]*kernel.Host, len(cfg.PoPs)),
		agents: make(map[netip.Addr]*agentSlot),
		pools:  make(map[poolKey][]pooledConn),
	}

	for _, p := range cfg.PoPs {
		if _, dup := c.byName[p.Name]; dup {
			return nil, fmt.Errorf("cdn: duplicate PoP name %q", p.Name)
		}
		c.byName[p.Name] = p
		for i := 0; i < cfg.HostsPerPoP; i++ {
			addr, err := hostAddr(p, i)
			if err != nil {
				return nil, err
			}
			h, err := net.AddHost(addr)
			if err != nil {
				return nil, fmt.Errorf("cdn: add host %s[%d]: %w", p.Name, i, err)
			}
			c.hosts[p.Name] = append(c.hosts[p.Name], h)
		}
	}

	for i := range cfg.PoPs {
		for j := i + 1; j < len(cfg.PoPs); j++ {
			a, b := cfg.PoPs[i], cfg.PoPs[j]
			pc := netsim.PathConfig{
				RTT:              RTTBetween(a, b),
				LossRate:         cfg.LossRate,
				RTTJitter:        cfg.RTTJitter,
				CapacitySegments: cfg.CapacitySegments,
			}
			for _, ha := range c.hosts[a.Name] {
				for _, hb := range c.hosts[b.Name] {
					if err := net.SetBidiPath(ha.Addr(), hb.Addr(), pc); err != nil {
						return nil, fmt.Errorf("cdn: path %s<->%s: %w", a.Name, b.Name, err)
					}
				}
			}
		}
	}

	if cfg.Riptide.Enabled {
		if err := c.startRiptide(); err != nil {
			return nil, err
		}
	}
	c.startProbes()
	c.startOrganic()
	c.startPoolSweeper()
	return c, nil
}

// hostAddr assigns machine i of a PoP the address base+i within the PoP's
// /24 (base is conventionally .1).
func hostAddr(p PoP, i int) (netip.Addr, error) {
	if !p.Addr.Is4() {
		return netip.Addr{}, fmt.Errorf("cdn: PoP %s address %v must be IPv4", p.Name, p.Addr)
	}
	b := p.Addr.As4()
	host := int(b[3]) + i
	if host > 254 {
		return netip.Addr{}, fmt.Errorf("cdn: PoP %s cannot host machine %d in a /24", p.Name, i)
	}
	b[3] = byte(host)
	return netip.AddrFrom4(b), nil
}

// boot starts riptided's daemon on machine h, over h's simulated kernel and
// the engine clock; with gossip sharing on, it pulls its peers over the wire.
func (c *Cluster) boot(h *kernel.Host, slot *agentSlot) error {
	r := c.cfg.Riptide
	hist, err := core.HistoryByName(cmp.Or(r.History, "ewma"), r.Alpha)
	if err != nil {
		return fmt.Errorf("cdn: %w", err)
	}
	// A nil *LoadBalanceAdvisor must stay a nil Advisor: an agent with any
	// Advisor visits every destination every round.
	var adv core.Advisor
	if slot.advisor != nil {
		adv = slot.advisor
	}
	cfg := daemon.Config{
		Agent: core.Config{
			Sampler:        &hostSampler{host: h},
			Routes:         &hostRoutes{host: h},
			UpdateInterval: r.UpdateInterval,
			TTL:            r.TTL,
			Alpha:          r.Alpha,
			CMax:           r.CMax,
			CMin:           r.CMin,
			PrefixBits:     r.PrefixBits,
			Combiner:       r.Combiner,
			History:        hist,
			Advisor:        adv,
		},
		Guard:  r.Guard,
		Source: h.Addr().String(),
		Now:    func() time.Time { return time.Unix(0, 0).Add(c.engine.Now()) },
		Logf:   func(string, ...any) {},
	}
	if s := c.sharing; s != nil {
		cfg.Puller = fleet.PullerConfig{
			Peers:    s.peers[h.Addr()],
			Interval: s.interval,
			Policy:   s.policy,
			Client:   &http.Client{Transport: wire{c, h.Addr()}},
			Jitter:   -1, // runs replay per seed
		}
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	slot.d = d
	return nil
}

// restart stops machine h's daemon and boots a fresh one in its place: empty
// learned state, a new fleet instance, and a puller holding no cursor. The
// retired puller's pulls stay counted in GossipStats.
func (c *Cluster) restart(h *kernel.Host, slot *agentSlot) error {
	if c.sharing != nil {
		c.sharing.stats.add(slot.d.PeerHealth())
	}
	_ = slot.d.Stop()
	return c.boot(h, slot)
}

func (c *Cluster) startRiptide() error {
	// Iterate in topology order: ticker creation order decides event
	// ordering at equal timestamps, and map iteration would make runs
	// irreproducible across identical seeds.
	for _, p := range c.pops {
		advised := slices.Contains(c.cfg.Riptide.Advised, p.Name)
		for _, h := range c.hosts[p.Name] {
			slot := &agentSlot{}
			if advised {
				slot.advisor = core.NewLoadBalanceAdvisor()
			}
			if err := c.boot(h, slot); err != nil {
				return fmt.Errorf("cdn: riptide agent for %s/%v: %w", p.Name, h.Addr(), err)
			}
			c.agents[h.Addr()] = slot
			interval := slot.d.Agent.Config().UpdateInterval
			tk, err := eventsim.NewTicker(c.engine, interval, func(time.Duration) {
				// Route programming against the simulated kernel
				// cannot fail; sampling likewise. Read through the
				// slot: a reboot may have swapped the daemon.
				_ = slot.d.Tick()
			})
			if err != nil {
				return err
			}
			c.tickers = append(c.tickers, tk)
		}
	}
	return nil
}

// RebootPoP simulates the paper's Section II-A maintenance event: every
// machine of the PoP reboots, killing all connections to and from it (both
// ends lose their learned-window feedstock), wiping its kernel route table,
// and restarting its Riptide agent with empty state. It returns the number
// of connections that died.
func (c *Cluster) RebootPoP(name string) (int, error) {
	hs, ok := c.hosts[name]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", name)
	}
	closed := 0
	for idx := range hs {
		n, err := c.RebootHost(name, idx)
		closed += n
		if err != nil {
			return closed, err
		}
	}
	return closed, nil
}

// RebootHost simulates a single-machine maintenance reboot: machine idx of
// the named PoP loses all its connections (both ends), its kernel route
// table, and its Riptide agent's learned state, while the PoP's other
// machines keep running — the scenario fleet sharing exists to absorb. It
// returns the number of connections that died.
func (c *Cluster) RebootHost(name string, idx int) (int, error) {
	hs, ok := c.hosts[name]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", name)
	}
	if idx < 0 || idx >= len(hs) {
		return 0, fmt.Errorf("cdn: PoP %s has no machine %d", name, idx)
	}
	h := hs[idx]
	closed := c.net.CloseConnsInvolving(h.Addr())
	for _, r := range h.Routes() {
		h.DelRoute(r.Prefix)
	}
	if slot, ok := c.agents[h.Addr()]; ok {
		if err := c.restart(h, slot); err != nil {
			return closed, fmt.Errorf("cdn: restart agent for %s[%d]: %w", name, idx, err)
		}
	}
	return closed, nil
}

// startProbes schedules the measurement infrastructure: every ProbeInterval,
// every machine sends each probe size to (one machine of) every other PoP,
// reusing an idle connection when one exists (Section IV-A).
func (c *Cluster) startProbes() {
	if c.cfg.Traffic.ProbeInterval == 0 {
		return
	}
	tk, err := eventsim.NewTicker(c.engine, c.cfg.Traffic.ProbeInterval, func(time.Duration) {
		for _, src := range c.pops {
			for _, srcHost := range c.hosts[src.Name] {
				for _, dst := range c.pops {
					if src.Name == dst.Name {
						continue
					}
					dstHost := c.pickHost(dst.Name)
					for _, size := range c.cfg.Traffic.ProbeSizes {
						c.sendProbe(src.Name, dst.Name, srcHost.Addr(), dstHost.Addr(), size)
					}
				}
			}
		}
	})
	if err != nil {
		// Interval was validated in NewCluster; a failure here is a bug.
		panic(err)
	}
	c.tickers = append(c.tickers, tk)
}

// pickHost selects a machine of the named destination PoP, uniformly — the
// paper's front-end load balancing.
func (c *Cluster) pickHost(pop string) *kernel.Host {
	hs := c.hosts[pop]
	if len(hs) == 1 {
		return hs[0]
	}
	return hs[c.rng.Intn(len(hs))]
}

// sendProbe transfers size bytes from machine srcHost of PoP src to machine
// dstHost of PoP dst and records the result. The completion closure holds
// names and addresses only: it is allocated once per probe.
func (c *Cluster) sendProbe(src, dst string, srcHost, dstHost netip.Addr, size int) {
	conn, fresh, err := c.grabConn(srcHost, dstHost)
	if err != nil {
		c.probeFailed = append(c.probeFailed, ProbeFailure{
			Src: src, Dst: dst, At: c.engine.Now(),
		})
		return
	}
	rtt, _ := c.net.PathRTT(srcHost, dstHost)
	err = conn.Transfer(int64(size), func(r netsim.TransferResult) {
		// A probe is a request/response exchange: one RTT to deliver the
		// GET, then the data rounds. Both the Riptide and control groups
		// pay the request round, as in the paper's measurement.
		c.probes = append(c.probes, ProbeRecord{
			Src:       src,
			Dst:       dst,
			SrcHost:   srcHost,
			DstHost:   dstHost,
			SizeBytes: size,
			RTT:       rtt,
			Bucket:    BucketFor(rtt),
			Elapsed:   r.Elapsed + rtt,
			Rounds:    r.Rounds,
			InitCwnd:  r.InitCwnd,
			FreshConn: fresh,
			At:        c.engine.Now(),
		})
		c.releaseConn(conn)
	})
	if err != nil {
		conn.Close()
	}
}

// startOrganic schedules background transfers for busy PoPs, in topology
// order for reproducibility.
func (c *Cluster) startOrganic() {
	for _, src := range c.pops {
		rate, ok := c.cfg.Traffic.OrganicRates[src.Name]
		if !ok || rate <= 0 {
			continue
		}
		for _, h := range c.hosts[src.Name] {
			o := &organicSource{c: c, src: src.Name, host: h.Addr(), rate: rate}
			o.ev = eventsim.NewEvent(o.arrive)
			c.organic = append(c.organic, o)
			o.arm()
		}
	}
}

// organicSource is one machine's background traffic: a Poisson process with
// exponential gaps of mean 1/rate, each arrival a transfer to a uniformly
// chosen PoP. It owns one event, re-armed after every arrival.
type organicSource struct {
	c    *Cluster
	src  string
	host netip.Addr
	rate float64
	ev   *eventsim.Event
}

// arm draws the gap to the next arrival and queues it.
func (o *organicSource) arm() {
	gap := time.Duration(o.c.rng.ExpFloat64() / o.rate * float64(time.Second))
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	o.c.engine.Reschedule(o.ev, gap)
}

// arrive starts one transfer, then draws the next gap: the draw follows the
// arrival's own draws, as it always has, so every seed replays unchanged.
func (o *organicSource) arrive() {
	c := o.c
	if dst := c.pops[c.rng.Intn(len(c.pops))].Name; dst != o.src {
		dstHost := c.pickHost(dst)
		size := int64(c.cfg.Traffic.OrganicSizes.Sample(c.rng))
		if conn, _, err := c.grabConn(o.host, dstHost.Addr()); err == nil {
			err = conn.Transfer(size, func(netsim.TransferResult) {
				c.releaseConn(conn)
			})
			if err != nil {
				conn.Close()
			}
		}
	}
	o.arm()
}

// startPoolSweeper closes pooled connections idle beyond IdleTimeout and
// drops the pools that empty, so a sweep walks the pairs that hold a pool now,
// not every pair ever used. It walks them in the order the pools were created:
// map order would make the close order differ between runs of one seed.
func (c *Cluster) startPoolSweeper() {
	tk, err := eventsim.NewTicker(c.engine, 30*time.Second, func(now time.Duration) {
		live := c.poolOrder[:0]
		for _, key := range c.poolOrder {
			pool := c.pools[key]
			kept := pool[:0]
			for _, pc := range pool {
				if now-pc.idleFrom >= c.cfg.Traffic.IdleTimeout {
					pc.conn.Close()
					continue
				}
				kept = append(kept, pc)
			}
			if len(kept) == 0 {
				delete(c.pools, key)
				continue
			}
			c.pools[key] = kept
			live = append(live, key)
		}
		c.poolOrder = live
	})
	if err != nil {
		panic(err)
	}
	c.tickers = append(c.tickers, tk)
}

// grabConn returns an idle pooled connection src->dst or opens a fresh one.
func (c *Cluster) grabConn(src, dst netip.Addr) (conn *netsim.Conn, fresh bool, err error) {
	key := poolKey{src, dst}
	pool := c.pools[key]
	for len(pool) > 0 {
		pc := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		c.pools[key] = pool
		if !pc.conn.Closed() {
			return pc.conn, false, nil
		}
	}
	cn, err := c.net.Open(src, dst)
	if err != nil {
		return nil, false, err
	}
	return cn, true, nil
}

// releaseConn returns a connection to the pool or closes it, modelling
// application churn.
func (c *Cluster) releaseConn(conn *netsim.Conn) {
	if conn.Closed() {
		return
	}
	if c.rng.Float64() < c.cfg.Traffic.CloseAfterTransferProb {
		conn.Close()
		return
	}
	key := poolKey{conn.Src(), conn.Dst()}
	pool, ok := c.pools[key]
	if !ok {
		c.poolOrder = append(c.poolOrder, key)
	}
	c.pools[key] = append(pool, pooledConn{conn: conn, idleFrom: c.engine.Now()})
}

// StartCwndSampling begins periodic `ss`-style sampling of every host's
// connections (Section IV-B1 samples each minute). Connections opened
// before the first call are marked accordingly so experiments can exclude
// them, as the paper does.
func (c *Cluster) StartCwndSampling(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("cdn: sampling interval %v must be positive", interval)
	}
	c.epoch = c.engine.Now()
	tk, err := eventsim.NewTicker(c.engine, interval, func(now time.Duration) {
		for _, p := range c.pops {
			for _, h := range c.hosts[p.Name] {
				for _, snap := range h.Connections() {
					c.cwndSamples = append(c.cwndSamples, CwndSample{
						Src:              p.Name,
						Host:             h.Addr(),
						Dst:              snap.Dst.String(),
						Cwnd:             snap.Cwnd,
						OpenedAfterStart: snap.Opened >= c.epoch,
						At:               now,
					})
				}
			}
		}
	})
	if err != nil {
		return err
	}
	c.tickers = append(c.tickers, tk)
	return nil
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) {
	c.reserveProbes(c.engine.Now() + d)
	c.engine.RunUntil(c.engine.Now() + d)
}

// reserveProbes sizes the probe records once for every probe the schedule
// can complete by until: each probe tick (one per ProbeInterval since the
// cluster was built at time zero) sends every size from every machine to
// every other PoP. Appending instead would copy the records ~5 times over as
// the slice grows.
func (c *Cluster) reserveProbes(until time.Duration) {
	if c.stopped {
		return
	}
	ticks := int(until / c.cfg.Traffic.ProbeInterval)
	perTick := len(c.pops) * c.cfg.HostsPerPoP * (len(c.pops) - 1) * len(c.cfg.Traffic.ProbeSizes)
	if need := ticks*perTick - len(c.probes); need > 0 {
		c.probes = slices.Grow(c.probes, need)
	}
}

// Stop cancels all periodic activity (probes, organic traffic, agents,
// samplers, sweepers) and stops the daemons, withdrawing their routes.
// Transfers already in flight still complete.
func (c *Cluster) Stop() {
	c.stopped = true
	for _, tk := range c.tickers {
		tk.Stop()
	}
	for _, o := range c.organic {
		o.ev.Cancel()
	}
	for _, slot := range c.agents {
		_ = slot.d.Stop()
	}
}

// Engine exposes the simulation clock.
func (c *Cluster) Engine() *eventsim.Engine { return c.engine }

// PoPs returns the deployment.
func (c *Cluster) PoPs() []PoP { return c.pops }

// HostsPerPoP reports the configured machines per PoP.
func (c *Cluster) HostsPerPoP() int { return c.cfg.HostsPerPoP }

// Host returns the named PoP's first machine.
func (c *Cluster) Host(name string) (*kernel.Host, error) {
	hs, ok := c.hosts[name]
	if !ok || len(hs) == 0 {
		return nil, fmt.Errorf("cdn: unknown PoP %q", name)
	}
	return hs[0], nil
}

// Hosts returns all machines of the named PoP.
func (c *Cluster) Hosts(name string) ([]*kernel.Host, error) {
	hs, ok := c.hosts[name]
	if !ok {
		return nil, fmt.Errorf("cdn: unknown PoP %q", name)
	}
	out := make([]*kernel.Host, len(hs))
	copy(out, hs)
	return out, nil
}

// Agent returns the Riptide agent of the named PoP's first machine (nil
// when Riptide is disabled).
func (c *Cluster) Agent(name string) *core.Agent {
	hs := c.hosts[name]
	if len(hs) == 0 {
		return nil
	}
	slot, ok := c.agents[hs[0].Addr()]
	if !ok {
		return nil
	}
	return slot.d.Agent
}

// AgentAt returns the Riptide agent of machine idx of the named PoP (nil
// when Riptide is disabled or the index is out of range).
func (c *Cluster) AgentAt(name string, idx int) *core.Agent {
	hs := c.hosts[name]
	if idx < 0 || idx >= len(hs) {
		return nil
	}
	slot, ok := c.agents[hs[idx].Addr()]
	if !ok {
		return nil
	}
	return slot.d.Agent
}

// Agents returns every Riptide agent of the named PoP, in machine order.
func (c *Cluster) Agents(name string) []*core.Agent {
	hs := c.hosts[name]
	out := make([]*core.Agent, 0, len(hs))
	for _, h := range hs {
		if slot, ok := c.agents[h.Addr()]; ok {
			out = append(out, slot.d.Agent)
		}
	}
	return out
}

// ProbeRecords returns all completed probes so far.
func (c *Cluster) ProbeRecords() []ProbeRecord {
	out := make([]ProbeRecord, len(c.probes))
	copy(out, c.probes)
	return out
}

// CwndSamples returns all collected samples so far.
func (c *Cluster) CwndSamples() []CwndSample {
	out := make([]CwndSample, len(c.cwndSamples))
	copy(out, c.cwndSamples)
	return out
}

// ProbeFailures returns every probe that failed to open a connection so far.
func (c *Cluster) ProbeFailures() []ProbeFailure {
	out := make([]ProbeFailure, len(c.probeFailed))
	copy(out, c.probeFailed)
	return out
}

// TotalRetransmits reports the cumulative segments retransmitted across the
// whole network since construction. Sampled at phase boundaries it yields a
// deterministic per-window retransmit count.
func (c *Cluster) TotalRetransmits() int64 { return c.net.Retransmitted() }

// TotalRoutes sums the learned route entries of every live agent, in
// topology order — the fleet's programmed-route footprint.
func (c *Cluster) TotalRoutes() int {
	n := 0
	for _, p := range c.pops {
		for _, h := range c.hosts[p.Name] {
			if slot, ok := c.agents[h.Addr()]; ok {
				n += slot.d.Agent.Len()
			}
		}
	}
	return n
}

// QuarantineCount sums the currently quarantined destinations across every
// agent's safety governor. It is zero when RiptideOptions.Guard is unset.
func (c *Cluster) QuarantineCount() int {
	n := 0
	for _, p := range c.pops {
		for _, h := range c.hosts[p.Name] {
			if slot, ok := c.agents[h.Addr()]; ok {
				if g, ok := slot.d.Agent.Config().Guard.(*guard.Governor); ok {
					n += len(g.Quarantines())
				}
			}
		}
	}
	return n
}
