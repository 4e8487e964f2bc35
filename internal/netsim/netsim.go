// Package netsim is the WAN simulator: hosts with simulated kernels
// (internal/kernel), directed paths with RTT, random loss, and bottleneck
// capacity, and TCP connections whose windows evolve per internal/tcpsim —
// all driven deterministically by an internal/eventsim engine.
//
// A transfer progresses in ACK-clocked rounds: each round the connection
// sends min(cwnd, remaining) segments, the path loses some of them (random
// loss plus congestion-induced loss when the path's aggregate in-flight load
// exceeds its capacity), and one RTT later the window reacts — growth on a
// clean round, multiplicative decrease on loss. Lost segments are
// retransmitted in later rounds.
//
// Every segment a path carries is lost independently with the path's current
// loss probability p. The path realises that law with a gap counter — how
// many segments pass before the next loss, a geometric draw — so it costs one
// random draw per lost segment rather than one per segment sent.
//
// Crucially for Riptide, a new connection's starting window comes from the
// source host's route table (kernel.Host.InitCwndFor), which is exactly the
// surface the Riptide agent programs.
package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"riptide/internal/eventsim"
	"riptide/internal/kernel"
	"riptide/internal/tcpsim"
	"riptide/internal/workload"
)

// Common errors.
var (
	ErrUnknownHost = errors.New("netsim: unknown host")
	ErrNoPath      = errors.New("netsim: no path between hosts")
	ErrConnClosed  = errors.New("netsim: connection closed")
)

// PathConfig describes one direction of a WAN path.
type PathConfig struct {
	// RTT is the round-trip time of the path. Must be positive.
	RTT time.Duration
	// LossRate is the random per-segment loss probability in [0, 1).
	LossRate float64
	// CapacitySegments is the number of segments the path sustains per
	// RTT across all flows before congestion loss kicks in. Zero means
	// effectively unconstrained.
	CapacitySegments int
	// CongestionLossFactor scales how aggressively overload converts to
	// loss: extra loss probability = factor * max(0, load/capacity - 1),
	// capped at 0.5. Defaults to 0.25 when zero.
	CongestionLossFactor float64
	// RTTJitter adds per-round delay variation: each round's RTT is
	// RTT * (1 + |N(0, RTTJitter)|), modelling queueing delay that only
	// ever lengthens a round. Zero (the default) keeps rounds exact.
	RTTJitter float64
}

func (pc PathConfig) validate() error {
	if pc.RTT <= 0 {
		return fmt.Errorf("netsim: path RTT %v must be positive", pc.RTT)
	}
	if pc.LossRate < 0 || pc.LossRate >= 1 {
		return fmt.Errorf("netsim: path loss rate %v must be in [0,1)", pc.LossRate)
	}
	if pc.CapacitySegments < 0 {
		return fmt.Errorf("netsim: path capacity %d must be >= 0", pc.CapacitySegments)
	}
	if pc.CongestionLossFactor < 0 {
		return fmt.Errorf("netsim: congestion loss factor %v must be >= 0", pc.CongestionLossFactor)
	}
	if pc.RTTJitter < 0 || pc.RTTJitter > 1 {
		return fmt.Errorf("netsim: RTT jitter %v must be in [0,1]", pc.RTTJitter)
	}
	return nil
}

// roundRTT samples this round's effective RTT, applying queueing jitter.
func (p *path) roundRTT(rng *rand.Rand) time.Duration {
	if p.cfg.RTTJitter == 0 {
		return p.cfg.RTT
	}
	extra := math.Abs(rng.NormFloat64()) * p.cfg.RTTJitter
	return time.Duration(float64(p.cfg.RTT) * (1 + extra))
}

type pathKey struct{ src, dst netip.Addr }

// path is the live state of one directed path.
type path struct {
	cfg  PathConfig
	load int // segments currently inside one RTT window
	// blocked marks the path administratively down (a peer partition):
	// Open fails and in-flight rounds lose every segment.
	blocked bool
	// gap is how many more segments the path delivers before it loses one,
	// drawn for the loss probability gapProb. By memorylessness the count
	// left over from one round is an exact draw for the next, so it carries
	// across rounds and connections, and is redrawn only when p changes.
	gap     int64
	gapProb float64
}

// lose reports how many of send segments the path drops when each is lost
// independently with probability prob: it walks the gap counter through the
// burst, drawing a fresh gap after every loss.
func (p *path) lose(send int64, prob float64, rng *rand.Rand) int64 {
	switch {
	case prob <= 0:
		return 0
	case prob >= 1:
		return send // loss rate plus congestion loss can exceed 1
	}
	if prob != p.gapProb {
		p.gap, p.gapProb = lossGap(prob, rng), prob
	}
	lost := int64(0)
	for rem := send; ; {
		if p.gap >= rem {
			p.gap -= rem
			return lost
		}
		rem -= p.gap + 1 // the delivered run, then the lost segment
		lost++
		p.gap = lossGap(prob, rng)
	}
}

// maxGap caps a gap drawn for a vanishing loss probability, where the draw
// would not fit an int64; no path carries that many segments.
const maxGap = 1 << 62

// lossGap draws the number of segments delivered before the next loss, each
// lost with probability prob in (0, 1): Geometric(prob) on {0, 1, ...},
// floor(ln U / ln(1−prob)) for U uniform on (0, 1].
func lossGap(prob float64, rng *rand.Rand) int64 {
	g := math.Floor(math.Log(1-rng.Float64()) / math.Log1p(-prob))
	if g >= maxGap {
		return maxGap
	}
	return int64(g)
}

// extraCongestionLoss returns the additional loss probability the current
// load imposes.
func (p *path) extraCongestionLoss() float64 {
	if p.cfg.CapacitySegments == 0 || p.load <= p.cfg.CapacitySegments {
		return 0
	}
	factor := p.cfg.CongestionLossFactor
	if factor == 0 {
		factor = 0.25
	}
	over := float64(p.load)/float64(p.cfg.CapacitySegments) - 1
	loss := factor * over
	if loss > 0.5 {
		loss = 0.5
	}
	return loss
}

// Config configures a Network.
type Config struct {
	// Engine drives all simulated time. Required.
	Engine *eventsim.Engine
	// Seed makes loss draws reproducible.
	Seed int64
	// MSS is the segment payload size; defaults to workload.DefaultMSS.
	MSS int
	// Algorithm is the congestion control used by every connection;
	// defaults to CUBIC, like the paper's Linux deployment.
	Algorithm tcpsim.Algorithm
	// DisableIdleRestart turns off RFC 2861 congestion-window validation.
	// By default (like Linux's tcp_slow_start_after_idle=1) a connection
	// idle for longer than its RTO restarts from the route's current
	// initial window instead of bursting a stale window.
	DisableIdleRestart bool
}

// Network is the simulated WAN.
type Network struct {
	engine *eventsim.Engine
	rng    *rand.Rand
	mss    int
	alg    tcpsim.Algorithm

	hosts map[netip.Addr]*kernel.Host
	paths map[pathKey]*path
	conns map[*Conn]struct{}
	// freeTransfers holds completed transfers for the next Transfer call to
	// reuse. Only the owning connection's queue ever references a transfer,
	// and a transfer enters this list only once it has left that queue, so
	// no reuse can be observed. A closed connection's unfinished transfers
	// stay where they are.
	freeTransfers []*transfer

	disableIdleRestart bool

	opened        uint64
	completed     uint64
	retransmitted int64
}

// NewNetwork constructs an empty Network.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Engine == nil {
		return nil, errors.New("netsim: nil engine")
	}
	mss := cfg.MSS
	if mss == 0 {
		mss = workload.DefaultMSS
	}
	if mss < 1 {
		return nil, fmt.Errorf("netsim: MSS %d must be >= 1", mss)
	}
	alg := cfg.Algorithm
	if alg == nil {
		alg = tcpsim.NewCubic()
	}
	return &Network{
		engine:             cfg.Engine,
		rng:                workload.NewRand(cfg.Seed),
		mss:                mss,
		alg:                alg,
		hosts:              make(map[netip.Addr]*kernel.Host),
		paths:              make(map[pathKey]*path),
		conns:              make(map[*Conn]struct{}),
		disableIdleRestart: cfg.DisableIdleRestart,
	}, nil
}

// Engine returns the driving event engine.
func (n *Network) Engine() *eventsim.Engine { return n.engine }

// MSS returns the configured segment size.
func (n *Network) MSS() int { return n.mss }

// AddHost creates a host with the given address.
func (n *Network) AddHost(addr netip.Addr) (*kernel.Host, error) {
	if _, ok := n.hosts[addr]; ok {
		return nil, fmt.Errorf("netsim: host %v already exists", addr)
	}
	h, err := kernel.NewHost(addr)
	if err != nil {
		return nil, err
	}
	n.hosts[addr] = h
	return h, nil
}

// Host returns the host with the given address.
func (n *Network) Host(addr netip.Addr) (*kernel.Host, error) {
	h, ok := n.hosts[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownHost, addr)
	}
	return h, nil
}

// SetPath installs the directed path src -> dst.
func (n *Network) SetPath(src, dst netip.Addr, cfg PathConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if _, ok := n.hosts[src]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownHost, src)
	}
	if _, ok := n.hosts[dst]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownHost, dst)
	}
	n.paths[pathKey{src, dst}] = &path{cfg: cfg}
	return nil
}

// SetBidiPath installs the same path configuration in both directions.
func (n *Network) SetBidiPath(a, b netip.Addr, cfg PathConfig) error {
	if err := n.SetPath(a, b, cfg); err != nil {
		return err
	}
	return n.SetPath(b, a, cfg)
}

// SetPathLoss changes the random loss rate of the live path src -> dst,
// affecting existing connections as well as future ones — a mid-run
// congestion or degradation event.
func (n *Network) SetPathLoss(src, dst netip.Addr, lossRate float64) error {
	if lossRate < 0 || lossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v must be in [0,1)", lossRate)
	}
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	p.cfg.LossRate = lossRate
	return nil
}

// SetPathCapacity changes the bottleneck capacity (segments per RTT) of the
// live path src -> dst, affecting existing connections as well as future
// ones — a mid-run capacity cut such as a failed link in a LAG or a rerouted
// backbone. Zero means effectively unconstrained.
func (n *Network) SetPathCapacity(src, dst netip.Addr, segments int) error {
	if segments < 0 {
		return fmt.Errorf("netsim: path capacity %d must be >= 0", segments)
	}
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	p.cfg.CapacitySegments = segments
	return nil
}

// SetPathRTT changes the round-trip time of the live path src -> dst,
// affecting existing connections as well as future ones — a route flap that
// moves traffic onto a longer (or shorter) backbone path. Rounds already in
// flight complete at the old RTT; the next round uses the new one.
func (n *Network) SetPathRTT(src, dst netip.Addr, rtt time.Duration) error {
	if rtt <= 0 {
		return fmt.Errorf("netsim: path RTT %v must be positive", rtt)
	}
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	p.cfg.RTT = rtt
	return nil
}

// SetPathBlocked marks the live path src -> dst administratively down (or up
// again) — a peer partition. While blocked, Open fails with ErrNoPath and any
// round sent over the path loses every segment. Existing connections are left
// to the caller (see CloseConnsBetween), matching how a real partition kills
// some flows instantly and leaves others to time out.
func (n *Network) SetPathBlocked(src, dst netip.Addr, blocked bool) error {
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	p.blocked = blocked
	return nil
}

// PathBlocked reports whether the path src -> dst is administratively down
// (SetPathBlocked). Two hosts with no path between them, such as machines of
// one PoP, are never blocked.
func (n *Network) PathBlocked(src, dst netip.Addr) bool {
	p, ok := n.paths[pathKey{src, dst}]
	return ok && p.blocked
}

// PathRTT reports the configured RTT from src to dst.
func (n *Network) PathRTT(src, dst netip.Addr) (time.Duration, error) {
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return 0, fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	return p.cfg.RTT, nil
}

// Opened reports how many connections have been opened.
func (n *Network) Opened() uint64 { return n.opened }

// CompletedTransfers reports how many transfers have finished.
func (n *Network) CompletedTransfers() uint64 { return n.completed }

// Retransmitted reports the cumulative number of segments retransmitted
// across every connection since the network was built. Sampling it at phase
// boundaries gives a deterministic per-window retransmit count — the scenario
// engine's loss ledger.
func (n *Network) Retransmitted() int64 { return n.retransmitted }

// TransferResult describes one finished transfer.
type TransferResult struct {
	Bytes   int64
	Elapsed time.Duration
	Rounds  int
	// Retransmits is the number of segments that had to be resent.
	Retransmits int64
	// InitCwnd is the window the connection started with — what Riptide
	// chose (or the kernel default).
	InitCwnd int
}

// transfer is one queued send on a connection.
type transfer struct {
	remaining int64 // segments
	total     int64
	started   time.Duration
	rounds    int
	retrans   int64
	done      func(TransferResult)
}

// Conn is one simulated TCP connection. All methods must be called from
// within the owning engine's event loop (the simulation is single-threaded).
type Conn struct {
	network  *Network
	id       uint64
	src, dst netip.Addr
	srcPort  uint16
	dstPort  uint16
	win      *tcpsim.Window
	path     *path
	opened   time.Duration
	serial   uint64 // network-wide open order

	queue      []*transfer
	sending    bool
	closed     bool
	bytesAcked int64
	// Cumulative loss telemetry surfaced through SnapshotTo, mirroring what
	// `ss -tin` exposes on Linux (retrans totals, segs_out) so the Riptide
	// governor sees the same signal in simulation as in production.
	segsOut int64 // segments sent, incl. retransmissions
	retrans int64 // segments retransmitted (lost and resent)
	// lastActive is the last simulated time the connection sent or
	// received; it drives RFC 2861 idle-restart.
	lastActive time.Duration

	// The round in flight. A connection sends one transfer at a time, one
	// round per RTT, so it owns a single event (bound to roundDone) and
	// re-arms it every round instead of allocating a closure and an event.
	roundEv   *eventsim.Event
	roundSent int64 // segments the round sent
	roundLost int64 // of those, segments the path dropped
}

var _ kernel.Snapshotter = (*Conn)(nil)

// Open establishes a connection from src to dst. The initial congestion
// window is resolved through the source host's route table — the Riptide
// integration point.
func (n *Network) Open(src, dst netip.Addr) (*Conn, error) {
	srcHost, ok := n.hosts[src]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownHost, src)
	}
	if _, ok := n.hosts[dst]; !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownHost, dst)
	}
	p, ok := n.paths[pathKey{src, dst}]
	if !ok {
		return nil, fmt.Errorf("%w: %v -> %v", ErrNoPath, src, dst)
	}
	if p.blocked {
		return nil, fmt.Errorf("%w: %v -> %v (partitioned)", ErrNoPath, src, dst)
	}
	iw := srcHost.InitCwndFor(dst)
	win, err := tcpsim.NewWindow(tcpsim.Config{InitCwnd: iw, Algorithm: n.alg})
	if err != nil {
		return nil, err
	}
	c := &Conn{
		network:    n,
		src:        src,
		dst:        dst,
		srcPort:    uint16(40000 + n.rng.Intn(20000)),
		dstPort:    443,
		win:        win,
		path:       p,
		opened:     n.engine.Now(),
		lastActive: n.engine.Now(),
	}
	c.roundEv = eventsim.NewEvent(c.roundDone)
	id, err := srcHost.Register(c)
	if err != nil {
		return nil, err
	}
	c.id = id
	n.opened++
	c.serial = n.opened
	n.conns[c] = struct{}{}
	return c, nil
}

// OpenConns reports the number of live connections in the network.
func (n *Network) OpenConns() int { return len(n.conns) }

// CloseConnsInvolving force-closes every connection whose source or
// destination is addr — the blast radius of a host reboot (paper
// Section II-A: a reboot loses the local state and the remote ends'
// connections to that node alike). It returns how many connections closed.
func (n *Network) CloseConnsInvolving(addr netip.Addr) int {
	return n.closeConns(func(c *Conn) bool { return c.src == addr || c.dst == addr })
}

// closeConns closes every live connection doomed selects, in the order they
// were opened (not in map order, so that a Close which one day schedules or
// draws something cannot make a seed irreproducible), and returns the count.
func (n *Network) closeConns(doomed func(*Conn) bool) int {
	var victims []*Conn
	for c := range n.conns {
		if doomed(c) {
			victims = append(victims, c)
		}
	}
	slices.SortFunc(victims, func(a, b *Conn) int { return cmp.Compare(a.serial, b.serial) })
	for _, c := range victims {
		c.Close()
	}
	return len(victims)
}

// CloseConnsBetween force-closes every connection between a and b, in either
// direction — the flows a peer partition kills outright. It returns how many
// connections closed.
func (n *Network) CloseConnsBetween(a, b netip.Addr) int {
	return n.closeConns(func(c *Conn) bool {
		return (c.src == a && c.dst == b) || (c.src == b && c.dst == a)
	})
}

// SnapshotTo implements kernel.Snapshotter: it writes the `ss -i` view of
// this connection into the caller's slot, field by field.
func (c *Conn) SnapshotTo(s *kernel.ConnSnapshot) {
	s.ID = c.id
	s.Src = c.src
	s.Dst = c.dst
	s.SrcPort = c.srcPort
	s.DstPort = c.dstPort
	s.Cwnd = c.win.Cwnd()
	s.RTT = c.path.cfg.RTT
	s.BytesAcked = c.bytesAcked
	s.Retrans = c.retrans
	s.SegsOut = c.segsOut
	s.Opened = c.opened
}

// Window exposes the connection's congestion window (read-mostly; tests and
// experiments use it).
func (c *Conn) Window() *tcpsim.Window { return c.win }

// Src returns the local address.
func (c *Conn) Src() netip.Addr { return c.src }

// Dst returns the remote address.
func (c *Conn) Dst() netip.Addr { return c.dst }

// Idle reports whether the connection has no transfer in progress or queued.
func (c *Conn) Idle() bool { return !c.sending && len(c.queue) == 0 }

// Closed reports whether Close has been called.
func (c *Conn) Closed() bool { return c.closed }

// Close tears the connection down and removes it from the kernel table.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	delete(c.network.conns, c)
	if h, ok := c.network.hosts[c.src]; ok {
		h.Unregister(c.id)
	}
}

// Transfer queues bytes to send. done (optional) fires inside the engine
// when the transfer completes. Transfers on one connection are serialized in
// FIFO order. A non-positive size completes immediately in zero rounds.
func (c *Conn) Transfer(bytes int64, done func(TransferResult)) error {
	if c.closed {
		return ErrConnClosed
	}
	segs := (bytes + int64(c.network.mss) - 1) / int64(c.network.mss)
	if bytes <= 0 {
		if done != nil {
			done(TransferResult{InitCwnd: c.win.InitCwnd()})
		}
		return nil
	}
	t := c.network.newTransfer()
	*t = transfer{
		remaining: segs,
		total:     segs,
		started:   c.network.engine.Now(),
		done:      done,
	}
	c.queue = append(c.queue, t)
	if !c.sending {
		c.startNext()
	}
	return nil
}

// newTransfer takes a transfer from the free list, or allocates one.
func (n *Network) newTransfer() *transfer {
	if k := len(n.freeTransfers); k > 0 {
		t := n.freeTransfers[k-1]
		n.freeTransfers = n.freeTransfers[:k-1]
		return t
	}
	return new(transfer)
}

// startNext begins the round loop for the transfer at the head of the queue.
func (c *Conn) startNext() {
	if len(c.queue) == 0 || c.closed {
		c.sending = false
		return
	}
	c.sending = true
	t := c.queue[0]
	t.started = c.network.engine.Now()
	c.maybeIdleRestart()
	c.round()
}

// maybeIdleRestart applies RFC 2861 congestion-window validation: when the
// connection has been idle past its RTO estimate, the window restarts from
// the route's *current* initial window — which is how Riptide's learned
// values keep benefitting reused connections, exactly as on Linux.
func (c *Conn) maybeIdleRestart() {
	if c.network.disableIdleRestart {
		return
	}
	now := c.network.engine.Now()
	rto := 2 * c.path.cfg.RTT
	if rto < time.Second {
		rto = time.Second // Linux floors the RTO near 1s for WAN idle checks
	}
	if now-c.lastActive <= rto {
		return
	}
	restart := c.win.InitCwnd()
	if h, ok := c.network.hosts[c.src]; ok {
		restart = h.InitCwndFor(c.dst)
	}
	c.win.RestartAfterIdle(restart)
}

// round sends one window's worth of the head transfer's segments and arms
// the round event to handle the ACKs one RTT later.
func (c *Conn) round() {
	if c.closed {
		c.sending = false
		return
	}
	send := int64(c.win.Cwnd())
	if remaining := c.queue[0].remaining; send > remaining {
		send = remaining
	}
	// Account the burst against the path's per-RTT load window.
	p := c.path
	p.load += int(send)
	c.segsOut += send
	lost := send // a partitioned path delivers nothing
	if !p.blocked {
		lost = p.lose(send, p.cfg.LossRate+p.extraCongestionLoss(), c.network.rng)
	}
	c.roundSent, c.roundLost = send, lost
	c.network.engine.Reschedule(c.roundEv, p.roundRTT(c.network.rng))
}

// roundDone is the round event's callback: the burst leaves the path and the
// window reacts to what was delivered. It fires once per round, also after a
// Close (to release the path load), and then does nothing else.
func (c *Conn) roundDone() {
	send, lost := c.roundSent, c.roundLost
	c.path.load -= int(send)
	if c.closed {
		c.sending = false
		return
	}
	t := c.queue[0]
	now := c.network.engine.Now()
	c.lastActive = now
	delivered := send - lost
	t.remaining -= delivered
	t.rounds++
	t.retrans += lost
	c.retrans += lost
	c.network.retransmitted += lost
	c.bytesAcked += delivered * int64(c.network.mss)
	if lost > 0 {
		c.win.Loss(now)
	} else {
		c.win.Ack(int(delivered), now)
	}
	if t.remaining > 0 {
		c.round()
		return
	}
	// Transfer complete. The queue shifts down rather than reslicing, so it
	// keeps its array for the next Transfer, and the finished transfer is
	// recycled before done runs: done may queue the next one.
	k := copy(c.queue, c.queue[1:])
	c.queue[k] = nil
	c.queue = c.queue[:k]
	c.network.completed++
	done := t.done
	res := TransferResult{
		Bytes:       t.total * int64(c.network.mss),
		Elapsed:     now - t.started,
		Rounds:      t.rounds,
		Retransmits: t.retrans,
		InitCwnd:    c.win.InitCwnd(),
	}
	*t = transfer{}
	c.network.freeTransfers = append(c.network.freeTransfers, t)
	if done != nil {
		done(res)
	}
	c.startNext()
}
