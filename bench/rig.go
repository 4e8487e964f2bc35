package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/gossip"
	"riptide/internal/netlink"
)

// rigSpec sizes one of the three two-box workloads.
type rigSpec struct {
	n         int     // established IPv4 sockets in A's kernel, one per destination
	warm      int     // rounds run in set-up, after the first (cold) round
	cwndShare float64 // share of sockets given a new cwnd each round
	moveShare float64 // share of sockets moved to a never-seen destination each round
	cold      bool    // build fresh boxes every round
}

// oracleDests is how many destinations the spot oracle follows.
const oracleDests = 64

// counter indexes the exact counts the rig accumulates; a phase reports the
// difference between two readings.
type counter int

const (
	cObservations counter = iota
	cRoutesSet
	cRoutesCleared
	cEntriesExpired
	cMerged
	cMergeSkippedLocal
	cSocks
	cProgramOps
	cProgramFailed
	cPeerProgramOps
	cPeerProgramFailed
	cServeRequests
	cServeBodyBytes
	cServeHits
	cServeNotModified
	cRoundsDigest
	cRoundsDelta
	cRoundsBuckets
	cRoundsFull
	cRoundsNotModified
	cWireBytes
	cMutations
	cShadowOps
	cShadowUseful
	cEntriesMoved
	cDecodeNs
	numCounters
)

type counters [numCounters]uint64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// shadowTable is the kernel route table as the recorded RTM_NEWROUTE and
// RTM_DELROUTE messages leave it.
type shadowTable map[netip.Prefix]int

// box is one host: an agent wired to its kernel as cmd/riptided wires it.
type box struct {
	agent  *core.Agent
	conn   *netlink.MemConn
	inner  *tracedRoutes // between the retry decorator and netlink.Routes
	shadow shadowTable
}

// rig is boxes A and B, the bench kernel under A, the loopback HTTP link
// between them, and the correctness gate.
type rig struct {
	spec rigSpec
	rng  *rand.Rand
	tr   *tracer

	clock  atomic.Int64 // fake monotonic time, ns; one second per round
	shards int          // core.Config.Shards for new agents; 0 = default

	kernel  *benchKernel
	dst     []netip.Addr // current destination of socket i
	cwnd    []int        // current cwnd of socket i
	perm    []int32      // all socket indices, partially shuffled per round
	movable []int32      // indices the oracle does not follow
	nextDst uint32       // next never-seen destination
	oracle  []spotOracle
	oracleI []int32 // socket index of each oracle destination

	a, b      *box
	sampler   *tracedSampler
	server    *fleet.Server
	handler   *tracedHandler
	http      *httptest.Server
	transport *tracedTransport
	client    *http.Client
	puller    *fleet.Puller
	lives     int // boxes built so far; names the fleet instance

	maxA map[netip.Prefix]int // largest window A's kernel ever held
	setA []netip.Prefix       // prefixes A programmed this round
	// injected is this round's kernel changes: destinations first seen, and
	// destinations whose socket got a new cwnd.
	injected []netip.Addr

	retired   counters // counts of boxes already closed
	ackFailed uint64   // failed route acks of the current boxes already reported
	loose     counters // counts not owned by a box
	round     int
	// tableEntries is the size of A's table when its last life ended.
	tableEntries int
	violations   []string
	nViolation   int
}

type emptySampler struct{}

func (emptySampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	return buf, nil
}

// benchEpoch anchors the wall clock handed to the fleet server and puller,
// so no input depends on when the benchmark runs.
var benchEpoch = time.Unix(1_700_000_000, 0)

func (r *rig) now() time.Duration { return time.Duration(r.clock.Load()) }
func (r *rig) wallNow() time.Time { return benchEpoch.Add(r.now()) }

// newRig builds the fixture: sockets, bench kernel, HTTP link and boxes.
func newRig(spec rigSpec, seed int64, tr *tracer) (*rig, error) {
	r := &rig{spec: spec, rng: rand.New(rand.NewSource(seed)), tr: tr, maxA: map[netip.Prefix]int{}}
	// Destinations are consecutive from a seed-chosen start inside
	// 10.100.0.0–10.199.255.255: the second octet keeps three digits, so the
	// size of the prefix strings on the wire does not depend on the seed.
	base := uint32(10<<24|100<<16) + uint32(r.rng.Intn(100<<16))
	socks := make([]core.Observation, spec.n)
	r.dst = make([]netip.Addr, spec.n)
	r.cwnd = make([]int, spec.n)
	r.perm = make([]int32, spec.n)
	for i := range socks {
		r.dst[i] = addr4(base + uint32(i))
		r.cwnd[i] = r.drawCwnd()
		r.perm[i] = int32(i)
		socks[i] = core.Observation{Dst: r.dst[i], Cwnd: r.cwnd[i], RTT: 20 * time.Millisecond, SegsOut: 1000}
	}
	r.nextDst = base + uint32(spec.n)
	r.pick(r.perm, min(oracleDests, spec.n))
	r.oracleI = append(r.oracleI, r.perm[:min(oracleDests, spec.n)]...)
	r.oracle = make([]spotOracle, len(r.oracleI))
	followed := make(map[int32]bool, len(r.oracleI))
	for _, i := range r.oracleI {
		followed[i] = true
	}
	for i := int32(0); i < int32(spec.n); i++ {
		if !followed[i] {
			r.movable = append(r.movable, i)
		}
	}
	var err error
	if r.kernel, err = newBenchKernel(socks); err != nil {
		return nil, err
	}
	r.handler = &tracedHandler{t: tr}
	r.http = httptest.NewServer(r.handler)
	r.transport = &tracedTransport{inner: &http.Transport{MaxIdleConnsPerHost: 1}, t: tr}
	r.client = &http.Client{Transport: r.transport}
	if err := r.buildBoxes(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func addr4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// drawCwnd spans both clamps of [c_min,c_max]=[10,100].
func (r *rig) drawCwnd() int { return 2 + r.rng.Intn(159) }

// pick moves k distinct seed-chosen members of idx to its front.
func (r *rig) pick(idx []int32, k int) {
	for j := 0; j < k; j++ {
		s := j + r.rng.Intn(len(idx)-j)
		idx[j], idx[s] = idx[s], idx[j]
	}
}

func (r *rig) newBox(sampler core.ConnectionSampler, innerName, outerName string) (*box, error) {
	b := &box{conn: &netlink.MemConn{}, shadow: shadowTable{}}
	routes, err := netlink.NewRoutes(netlink.RoutesConfig{Dial: b.conn.Dialer()})
	if err != nil {
		return nil, err
	}
	b.inner = &tracedRoutes{inner: routes, t: r.tr, name: innerName}
	retry, err := core.NewRetryingRouteProgrammer(b.inner, core.RetryPolicy{})
	if err != nil {
		return nil, err
	}
	outer := &tracedRoutes{inner: retry, t: r.tr, name: outerName}
	b.agent, err = core.New(core.Config{Sampler: sampler, Routes: outer, Clock: r.now, Shards: r.shards})
	return b, err
}

// buildBoxes gives A and B a new life: empty tables, empty kernels, a new
// fleet instance and a puller with no cursor. Cold rounds swap the mux while
// the listener and its one keep-alive connection stay.
func (r *rig) buildBoxes() error {
	s, err := netlink.NewSampler(netlink.SamplerConfig{
		Dial: func(int) (netlink.Conn, error) { return r.kernel, nil },
	})
	if err != nil {
		return err
	}
	r.sampler = &tracedSampler{inner: s, t: r.tr}
	if r.a, err = r.newBox(r.sampler, spanProgram, spanRetry); err != nil {
		return err
	}
	if r.b, err = r.newBox(emptySampler{}, spanPeerProgram, spanPeerRetry); err != nil {
		return err
	}
	r.lives++
	r.server = fleet.NewServer(r.a.agent, "bench-a", fmt.Sprintf("bench-a-%d", r.lives), r.wallNow)
	mux := http.NewServeMux()
	mux.Handle(fleet.SnapshotPath, r.server.SnapshotHandler())
	mux.Handle(fleet.DigestPath, r.server.DigestHandler())
	mux.Handle(fleet.DeltaPath, r.server.DeltaHandler())
	r.handler.mux.Store(mux)
	r.puller, err = fleet.NewPuller(fleet.PullerConfig{
		Agent:  r.b.agent,
		Peers:  []string{r.http.URL},
		Gossip: true,
		Jitter: -1,
		Client: r.client,
		Now:    r.wallNow,
	})
	for i := range r.oracle {
		r.oracle[i] = spotOracle{}
	}
	clear(r.maxA)
	r.ackFailed = 0
	return err
}

// live reads the counts the current boxes own; none once they are retired.
func (r *rig) live() counters {
	var c counters
	if r.a == nil {
		return c
	}
	a, b := r.a.agent.Stats(), r.b.agent.Stats()
	c[cObservations] = a.Observations
	c[cRoutesSet] = a.RoutesSet
	c[cRoutesCleared] = a.RoutesCleared
	c[cEntriesExpired] = a.EntriesExpired
	c[cMerged] = b.FleetMerged
	c[cMergeSkippedLocal] = b.FleetSkippedLocal
	c[cSocks] = r.sampler.socks
	c[cProgramOps], c[cProgramFailed] = r.a.inner.ops, r.a.inner.failed
	c[cPeerProgramOps], c[cPeerProgramFailed] = r.b.inner.ops, r.b.inner.failed
	ss := r.server.Stats()
	c[cServeHits], c[cServeNotModified] = ss.Hits, ss.NotModified
	h := r.puller.Health()[0]
	c[cRoundsDigest] = h.DigestHits
	c[cRoundsDelta] = h.DeltaPulls
	c[cRoundsBuckets] = h.BucketPulls
	c[cRoundsFull] = h.FullPulls
	c[cRoundsNotModified] = h.NotModified
	return c
}

// counts is every exact count so far.
func (r *rig) counts() counters {
	c := r.live()
	c.add(r.retired)
	c.add(r.loose)
	c[cServeRequests] = r.handler.requests.Load()
	c[cServeBodyBytes] = r.handler.bodyBytes.Load()
	return c
}

func (r *rig) violate(format string, args ...any) {
	r.nViolation++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf("round %d: ", r.round)+fmt.Sprintf(format, args...))
	}
}

// mutate changes the kernel for this round and records what it injected:
// moves first, so a socket that also gets a new cwnd reports it under its new
// destination.
func (r *rig) mutate() {
	r.injected = r.injected[:0]
	m := min(int(r.spec.moveShare*float64(r.spec.n)+0.5), len(r.movable))
	r.pick(r.movable, m)
	for _, i := range r.movable[:m] {
		d := addr4(r.nextDst)
		r.nextDst++
		r.dst[i] = d
		r.kernel.setDst(int(i), d)
		r.injected = append(r.injected, d)
	}
	k := int(r.spec.cwndShare*float64(r.spec.n) + 0.5)
	r.pick(r.perm, k)
	for _, i := range r.perm[:k] {
		c := r.drawCwnd()
		r.cwnd[i] = c
		r.kernel.setCwnd(int(i), c)
		r.injected = append(r.injected, r.dst[i])
	}
	r.loose[cMutations] += uint64(k + m)
}

// roundTimes is one round's three stopwatch readings, in milliseconds.
type roundTimes struct{ local, peer, wall float64 }

func (t roundTimes) localMs() float64 { return t.local }
func (t roundTimes) peerMs() float64  { return t.peer }
func (t roundTimes) wallMs() float64  { return t.wall }

// runRound is the closed loop's one iteration: one client, one goroutine,
// the next round only after this one and its gate finished. It reports the
// timings and whether the round failed.
func (r *rig) runRound(m *meter) (roundTimes, bool) {
	before := r.nViolation
	r.round++
	r.clock.Add(int64(time.Second))
	if r.a == nil {
		if err := r.buildBoxes(); err != nil {
			r.violate("build boxes: %v", err)
			return roundTimes{}, true
		}
	}
	r.mutate()
	r.tr.setRound(r.round)

	m.begin()
	root := r.tr.begin(spanRound)
	t0 := time.Now()
	s := r.tr.begin(spanTick)
	errA := r.a.agent.Tick()
	r.tr.end(s)
	tLocal := time.Now()
	s = r.tr.begin(spanPull)
	r.puller.PullOnce(context.Background())
	r.tr.end(s)
	tPeer := time.Now()
	peerMark := len(r.b.conn.Routes)
	s = r.tr.begin(spanPeerTick)
	errB := r.b.agent.Tick()
	r.tr.end(s)
	tEnd := time.Now()
	r.tr.end(root)
	m.end()

	if errA != nil {
		r.violate("A.Tick: %v", errA)
	}
	if errB != nil {
		r.violate("B.Tick: %v", errB)
	}
	r.gate(peerMark)
	r.redecode()
	if r.spec.cold {
		r.retire()
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return roundTimes{ms(tLocal.Sub(t0)), ms(tPeer.Sub(t0)), ms(tEnd.Sub(t0))}, r.nViolation > before
}

// fold applies recorded route messages to a shadow table and counts the ops
// that changed it.
func (r *rig) fold(t shadowTable, routes []netlink.RecordedRoute, onSet func(netip.Prefix, int)) {
	for _, rt := range routes {
		r.loose[cShadowOps]++
		old, had := t[rt.Prefix]
		if rt.Del {
			if had {
				delete(t, rt.Prefix)
				r.loose[cShadowUseful]++
			}
			continue
		}
		if !had || old != rt.InitCwnd {
			r.loose[cShadowUseful]++
		}
		t[rt.Prefix] = rt.InitCwnd
		if rt.InitCwnd < core.DefaultCMin || rt.InitCwnd > core.DefaultCMax {
			r.violate("route %v initcwnd %d outside [%d,%d]", rt.Prefix, rt.InitCwnd, core.DefaultCMin, core.DefaultCMax)
		}
		if onSet != nil {
			onSet(rt.Prefix, rt.InitCwnd)
		}
	}
}

// gate is the per-round correctness check, run after the timers stopped:
// every injected destination is routed in A's kernel, every route A
// programmed this round is routed in B's kernel by the time the pull
// returned, B never holds a larger window than A ever did, and the spot
// oracle agrees with A. peerMark is how many route messages B's kernel had
// received when the pull returned.
func (r *rig) gate(peerMark int) {
	h := r.puller.Health()[0]
	if !h.Healthy {
		r.violate("pull failed: %s", h.LastError)
	} else {
		r.loose[cWireBytes] += uint64(h.LastBytes)
	}
	if f := r.a.inner.failed + r.b.inner.failed; f > r.ackFailed {
		r.violate("%d route ops acked with an error", f-r.ackFailed)
		r.ackFailed = f
	}

	r.setA = r.setA[:0]
	r.fold(r.a.shadow, r.a.conn.Routes, func(p netip.Prefix, w int) {
		r.setA = append(r.setA, p)
		if w > r.maxA[p] {
			r.maxA[p] = w
		}
	})
	r.a.conn.Routes = r.a.conn.Routes[:0]
	checkB := func(p netip.Prefix, w int) {
		if w > r.maxA[p] {
			r.violate("B programmed %v=%d above A's largest %d", p, w, r.maxA[p])
		}
	}
	r.fold(r.b.shadow, r.b.conn.Routes[:peerMark], checkB)
	for _, d := range r.injected {
		if _, ok := r.a.shadow[netip.PrefixFrom(d, 32)]; !ok {
			r.violate("injected destination %v has no route on A", d)
		}
	}
	for _, p := range r.setA {
		if _, ok := r.b.shadow[p]; !ok {
			r.violate("route %v programmed on A has no route on B after the pull", p)
		}
	}
	r.fold(r.b.shadow, r.b.conn.Routes[peerMark:], checkB)
	r.b.conn.Routes = r.b.conn.Routes[:0]

	for j, i := range r.oracleI {
		want := r.oracle[j].next([]int{r.cwnd[i]})
		if got, ok := r.a.agent.Lookup(r.dst[i]); !ok || got != want {
			r.violate("oracle: %v learned %d (present %v), Algorithm 1 says %d", r.dst[i], got, ok, want)
		}
	}
}

// redecode re-runs the gossip decode on the bodies the transport kept while
// tracing, so decode time is known apart from gunzip and merge.
func (r *rig) redecode() {
	for _, body := range r.transport.teed {
		data := body.data
		if body.gzip {
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err == nil {
				data, err = io.ReadAll(zr)
			}
			if err != nil {
				r.violate("gunzip teed %s body: %v", body.path, err)
				continue
			}
		}
		var err error
		start := time.Now()
		if body.path == fleet.DigestPath {
			_, err = gossip.DecodeDigest(data)
		} else {
			var d gossip.Delta
			d, err = gossip.DecodeDelta(data)
			r.loose[cEntriesMoved] += uint64(len(d.Entries))
		}
		r.loose[cDecodeNs] += uint64(time.Since(start))
		if err != nil {
			r.violate("decode teed %s body: %v", body.path, err)
		}
	}
	r.transport.teed = r.transport.teed[:0]
}

// checkTable compares a box's kernel with its agent's table and returns the
// table's size.
func (r *rig) checkTable(name string, b *box) int {
	entries := b.agent.Entries()
	if len(entries) != len(b.shadow) {
		r.violate("%s: agent holds %d entries, kernel %d routes", name, len(entries), len(b.shadow))
	}
	for _, e := range entries {
		if w, ok := b.shadow[e.Prefix]; !ok || w != e.Window {
			r.violate("%s: entry %v=%d, kernel route %d (present %v)", name, e.Prefix, e.Window, w, ok)
			break
		}
	}
	for p, w := range b.shadow {
		if w < core.DefaultCMin || w > core.DefaultCMax {
			r.violate("%s: kernel route %v=%d outside [%d,%d]", name, p, w, core.DefaultCMin, core.DefaultCMax)
			break
		}
	}
	return len(entries)
}

// retire is the end-of-life check of both boxes: kernel ≡ agent table, and
// Close withdraws every route.
func (r *rig) retire() {
	r.tableEntries = r.checkTable("A", r.a)
	r.checkTable("B", r.b)
	r.retired.add(r.live())
	for _, b := range []*box{r.a, r.b} {
		if err := b.agent.Close(); err != nil {
			r.violate("Close: %v", err)
		}
		r.fold(b.shadow, b.conn.Routes, nil)
		b.conn.Routes = nil
		if len(b.shadow) != 0 {
			r.violate("Close left %d routes in the kernel", len(b.shadow))
		}
	}
	r.a, r.b = nil, nil
}

// close stops the HTTP link.
func (r *rig) close() {
	r.transport.inner.(*http.Transport).CloseIdleConnections()
	r.http.Close()
}
