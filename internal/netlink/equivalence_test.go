package netlink

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"riptide/internal/core"
)

// equivalenceFixture is the socket set both decoders observe, as rounds of
// samples. v4 sockets precede v6 because the netlink sampler dumps per
// family (IPv4 then IPv6) while the ss oracle takes the text in file
// order — same ordering in the fixture means same observation order, which
// matters because the combiner folds observations in order. RTTs are whole
// milliseconds so the ss decimal rendering round-trips exactly; each round
// has destinations with several connections so combining actually runs.
func equivalenceFixture() [][]core.Observation {
	base := []core.Observation{
		{Dst: netip.MustParseAddr("10.1.0.1"), Cwnd: 40, RTT: 12 * time.Millisecond, BytesAcked: 9000, SegsOut: 80},
		{Dst: netip.MustParseAddr("10.1.0.1"), Cwnd: 20, RTT: 14 * time.Millisecond, BytesAcked: 100, SegsOut: 10},
		{Dst: netip.MustParseAddr("10.1.0.2"), Cwnd: 64, RTT: 9 * time.Millisecond, BytesAcked: 50000, Retrans: 2, SegsOut: 400},
		{Dst: netip.MustParseAddr("172.16.5.5"), Cwnd: 12, RTT: 180 * time.Millisecond, BytesAcked: 777, SegsOut: 33},
		{Dst: netip.MustParseAddr("::ffff:192.0.2.7"), Cwnd: 28, RTT: 45 * time.Millisecond, BytesAcked: 1234, SegsOut: 55},
		{Dst: netip.MustParseAddr("2001:db8::9"), Cwnd: 50, RTT: 22 * time.Millisecond, BytesAcked: 31000, SegsOut: 210},
		{Dst: netip.MustParseAddr("2001:db8::9"), Cwnd: 70, RTT: 21 * time.Millisecond, BytesAcked: 64000, Retrans: 1, SegsOut: 500},
	}
	// Round 2 moves some windows so the agents must reprogram; round 3
	// repeats it so the steady state is compared too.
	moved := append([]core.Observation(nil), base...)
	for i := range moved {
		if i%2 == 0 {
			moved[i].Cwnd += 25
			moved[i].BytesAcked += 5000
		}
	}
	return [][]core.Observation{base, moved, moved}
}

// ssSampler samples by parsing canned `ss -tin` text with the oracle.
type ssSampler struct{ out []byte }

func (s ssSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	return append(buf, ParseSS(s.out)...), nil
}

// swapSampler lets the test hand the agent a different sampler each round.
type swapSampler struct{ inner core.ConnectionSampler }

func (s *swapSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	return s.inner.SampleConnections(buf)
}

// planRecorder captures every route batch the agent commits.
type planRecorder struct{ batches [][]core.RouteOp }

func (p *planRecorder) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	p.batches = append(p.batches, []core.RouteOp{{Prefix: prefix, Window: cwnd}})
	return nil
}

func (p *planRecorder) ClearInitCwnd(prefix netip.Prefix) error {
	p.batches = append(p.batches, []core.RouteOp{{Prefix: prefix, Clear: true}})
	return nil
}

func (p *planRecorder) ProgramRoutes(ops []core.RouteOp) []error {
	batch := append([]core.RouteOp(nil), ops...)
	// The batch is one atomic plan; ordering within it is not part of the
	// contract, so normalize before comparing across backends.
	sort.Slice(batch, func(i, j int) bool {
		return batch[i].Prefix.String() < batch[j].Prefix.String()
	})
	p.batches = append(p.batches, batch)
	return nil
}

// TestBackendEquivalence drives two complete agents — one sampling through
// the `ss -tin` text oracle (ss_test.go), one through the netlink binary
// decoder — over the same socket set and requires byte-identical outcomes:
// the same observations, the same committed route plans, the same learned
// tables.
func TestBackendEquivalence(t *testing.T) {
	rounds := equivalenceFixture()

	ssSwap, nlSwap := &swapSampler{}, &swapSampler{}
	ssRec, nlRec := &planRecorder{}, &planRecorder{}
	newAgent := func(s core.ConnectionSampler, r *planRecorder) *core.Agent {
		agent, err := core.New(core.Config{
			Sampler: s,
			Routes:  r,
			Clock:   func() time.Duration { return 0 },
		})
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return agent
	}
	ssAgent := newAgent(ssSwap, ssRec)
	nlAgent := newAgent(nlSwap, nlRec)

	for round, socks := range rounds {
		ssText := ssSampler{out: RenderSS(socks)}
		mem := &MemConn{Sockets: socks}
		nlSampler, err := NewSampler(SamplerConfig{Dial: mem.Dialer()})
		if err != nil {
			t.Fatalf("round %d: netlink.NewSampler: %v", round, err)
		}

		// The samplers themselves must agree before the agents run: same
		// observations, same order, every field.
		fromText, err := ssText.SampleConnections(nil)
		if err != nil {
			t.Fatalf("round %d: ss sample: %v", round, err)
		}
		fromWire, err := nlSampler.SampleConnections(nil)
		if err != nil {
			t.Fatalf("round %d: netlink sample: %v", round, err)
		}
		if !reflect.DeepEqual(fromText, fromWire) {
			t.Fatalf("round %d: observation streams diverge:\n ss      %+v\n netlink %+v", round, fromText, fromWire)
		}

		ssSwap.inner, nlSwap.inner = ssText, nlSampler
		if err := ssAgent.Tick(); err != nil {
			t.Fatalf("round %d: ss tick: %v", round, err)
		}
		if err := nlAgent.Tick(); err != nil {
			t.Fatalf("round %d: netlink tick: %v", round, err)
		}
	}

	if !reflect.DeepEqual(ssRec.batches, nlRec.batches) {
		t.Fatalf("committed plans diverge:\n ss      %+v\n netlink %+v", ssRec.batches, nlRec.batches)
	}
	if len(ssRec.batches) == 0 {
		t.Fatal("fixture produced no route plans; the equivalence check is vacuous")
	}
	ssEntries, nlEntries := ssAgent.Entries(), nlAgent.Entries()
	sortEntries := func(es []core.Entry) {
		sort.Slice(es, func(i, j int) bool { return es[i].Prefix.String() < es[j].Prefix.String() })
	}
	sortEntries(ssEntries)
	sortEntries(nlEntries)
	if !reflect.DeepEqual(ssEntries, nlEntries) {
		t.Fatalf("learned tables diverge:\n ss      %+v\n netlink %+v", ssEntries, nlEntries)
	}
	if len(ssEntries) == 0 {
		t.Fatal("fixture produced no learned entries")
	}
}
