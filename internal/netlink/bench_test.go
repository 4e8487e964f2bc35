package netlink

import (
	"net/netip"
	"testing"
	"time"

	"riptide/internal/allocbudget"
	"riptide/internal/core"
)

// benchSockets is the sample size of a busy production host.
const benchSockets = 10_000

// syntheticSockets builds n established IPv4 sockets over distinct
// destinations with varied windows, RTTs and byte counts.
func syntheticSockets(n int) []core.Observation {
	socks := make([]core.Observation, n)
	for i := range socks {
		socks[i] = core.Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd:       10 + i%90,
			RTT:        time.Duration(20+i%200) * time.Millisecond,
			BytesAcked: int64(i) * 1500,
		}
	}
	return socks
}

// BenchmarkSampler10k samples a 10k-socket table: canned INET_DIAG dumps
// from an in-memory conn, decoded into a reused buffer.
func BenchmarkSampler10k(b *testing.B) {
	mem := &MemConn{Sockets: syntheticSockets(benchSockets)}
	s, err := NewSampler(SamplerConfig{Dial: mem.Dialer()})
	if err != nil {
		b.Fatalf("NewSampler: %v", err)
	}
	var buf []core.Observation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = s.SampleConnections(buf[:0])
		if err != nil {
			b.Fatalf("sample: %v", err)
		}
	}
}

// BenchmarkProgramBatch1024 programs a 1024-route batch: netlink message
// batches acked in memory.
func BenchmarkProgramBatch1024(b *testing.B) {
	ops := make([]core.RouteOp, 1024)
	for i := range ops {
		ops[i] = core.RouteOp{Prefix: prefix24(i), Window: 10 + i%90}
	}
	mem := &MemConn{DiscardRoutes: true}
	r, err := NewRoutes(RoutesConfig{Dial: mem.Dialer(), Gateway: "10.0.0.1"})
	if err != nil {
		b.Fatalf("NewRoutes: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := r.ProgramRoutes(ops); errs != nil {
			b.Fatalf("program: %v", errs)
		}
	}
}

func prefix24(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24)
}

// TestSamplerSteadyStateAllocatesNothing pins the sampler's steady state: a
// 10k-socket sample into a reused buffer allocates nothing.
func TestSamplerSteadyStateAllocatesNothing(t *testing.T) {
	mem := &MemConn{Sockets: syntheticSockets(benchSockets)}
	s, err := NewSampler(SamplerConfig{Dial: mem.Dialer()})
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	var buf []core.Observation
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		buf, err = s.SampleConnections(buf[:0])
		if err != nil {
			t.Fatalf("sample: %v", err)
		}
	})
	if len(buf) != benchSockets {
		t.Fatalf("sampled %d of %d sockets", len(buf), benchSockets)
	}
	if allocs != 0 {
		t.Fatalf("a %d-socket sample into a reused buffer allocates %.0f times, want 0", benchSockets, allocs)
	}
}

// TestFirstDumpAllocs: a first dump — a fresh agent, a rebooted box — fills a
// nil buffer, which doubles as it fills: about twice what it keeps in all.
// append's 1.25× ladder allocated about five times the final buffer.
func TestFirstDumpAllocs(t *testing.T) {
	const n = 20_000
	mem := &MemConn{Sockets: syntheticSockets(n)}
	s, err := NewSampler(SamplerConfig{Dial: mem.Dialer()})
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	// The MemConn encodes its dump datagrams on the first request: not the
	// sampler's cost.
	if _, err := s.SampleConnections(nil); err != nil {
		t.Fatalf("sample: %v", err)
	}
	var obs []core.Observation
	allocbudget.Check(t, 2.5, func() {
		if obs, err = s.SampleConnections(nil); err != nil {
			t.Fatalf("sample: %v", err)
		}
	})
	if len(obs) != n {
		t.Fatalf("sampled %d of %d sockets", len(obs), n)
	}
}
