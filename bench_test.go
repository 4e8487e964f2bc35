// Benchmark harness: the paper's model figures (each reporting the headline
// metric the paper reads off it via b.ReportMetric), the agent's tick and
// route-programming costs, the Section V extensions and the operational
// scenarios. The cluster figures and ablations are scenario files
// (scenarios/paper-*.yaml) that `make report-check` regenerates; the
// simulator's cost is the ledger's sim-34pop workload (`go run ./bench`).
package riptide

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"riptide/internal/experiments"
	"riptide/internal/guard"
	"riptide/internal/kernel"
)

// noteMetric extracts the first number following a marker substring in a
// note, so benchmarks can re-report the experiment's headline figure.
func noteMetric(notes []string, marker string) (float64, bool) {
	for _, n := range notes {
		idx := strings.Index(n, marker)
		if idx < 0 {
			continue
		}
		rest := n[idx+len(marker):]
		var num strings.Builder
		for _, r := range rest {
			if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' {
				num.WriteRune(r)
				continue
			}
			if num.Len() > 0 {
				break
			}
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(num.String(), "+"), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

func BenchmarkFig2FileSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2FileSizes(1, 100000)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, ""); ok && i == b.N-1 {
			b.ReportMetric(v, "%files>IW10")
		}
	}
}

func BenchmarkFig3RTTsCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3RTTsCDF(1, 100000)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "IW50 completes "); ok && i == b.N-1 {
			b.ReportMetric(v, "%more-1RTT@IW50")
		}
	}
}

func BenchmarkFig4TheoreticalGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4TheoreticalGain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5RTTDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5RTTDistribution(nil)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "median inter-PoP RTT "); ok && i == b.N-1 {
			b.ReportMetric(v, "median-rtt-ms")
		}
	}
}

func BenchmarkFig6TransferTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6TransferTime(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PoPCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2Census(nil)
		if len(r.Tables) != 1 {
			b.Fatal("census produced no table")
		}
	}
}

// BenchmarkAgentTick measures the cost of one Riptide poll round over a
// synthetic 1000-connection observed table — the agent's steady-state
// overhead on a busy production host. Kept at its historical shape
// (default configuration, per-op route programming) so the series stays
// comparable across PRs.
func BenchmarkAgentTick(b *testing.B) {
	const conns = 1000
	sampler, routes, clock := newSyntheticBackend(conns)
	agent, err := New(Config{Sampler: sampler, Routes: routes, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conns), "conns/tick")
}

// benchmarkAgentTickSeries is the hot-path scaling series: the sampler modes
// of newModeBackend over the batched route-programming surface at a fixed
// observed-table size.
func benchmarkAgentTickSeries(b *testing.B, conns int) {
	for _, mode := range []string{"delta-steady", "delta-copied", "delta-busy", "delta-churn1pct"} {
		b.Run(mode, func(b *testing.B) {
			sampler, routes, clock := newModeBackend(conns, mode)
			agent, err := New(Config{
				Sampler: sampler,
				Routes:  routes,
				Clock:   clock,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = agent.Close() }()
			warmUp(b, agent)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			// The deferred Close withdraws the whole table: not a tick.
			b.StopTimer()
		})
	}
}

// warmUp ticks agent until its rounds are steady — three in a row that each
// allocate less than steadyTickBytes (a steady round allocates nothing) — so
// that B/op times a steady tick, not the first tick's table or the buffers
// the rounds after it set up once. It gives up after 64 ticks.
func warmUp(b *testing.B, agent *Agent) {
	const steadyTickBytes = 1 << 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i, steady := 0, 0; i < 64 && steady < 3; i++ {
		before := ms.TotalAlloc
		if err := agent.Tick(); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if ms.TotalAlloc-before < steadyTickBytes {
			steady++
		} else {
			steady = 0
		}
	}
}

func BenchmarkAgentTick1k(b *testing.B)   { benchmarkAgentTickSeries(b, 1_000) }
func BenchmarkAgentTick10k(b *testing.B)  { benchmarkAgentTickSeries(b, 10_000) }
func BenchmarkAgentTick100k(b *testing.B) { benchmarkAgentTickSeries(b, 100_000) }

// BenchmarkAgentTick1M is the acceptance point for the delta tick: a
// million-destination table at steady state and under churn. Set-up alone
// takes seconds at this size, so the series sits behind -short.
func BenchmarkAgentTick1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-destination series skipped in -short mode")
	}
	benchmarkAgentTickSeries(b, 1_000_000)
}

// membershipChurnSampler replays a table in which, every round, 1% of the
// sockets report a new window and 0.1% have moved to a never-seen
// destination — moves persist, unlike churnSampler's, whose stream
// never changes membership. It alternates two buffers (the one handed out
// last round stays frozen) and catches the stale one up with last round's
// changes instead of copying the table.
type membershipChurnSampler struct {
	bufs [2][]Observation
	last []int // positions changed last round
	tick int
	next uint32 // next never-seen destination
}

func newMembershipChurnSampler(base []Observation) *membershipChurnSampler {
	s := &membershipChurnSampler{next: 11 << 24}
	s.bufs[0] = append([]Observation(nil), base...)
	s.bufs[1] = append([]Observation(nil), base...)
	return s
}

func (s *membershipChurnSampler) SampleConnections([]Observation) ([]Observation, error) {
	out, prev := s.bufs[s.tick&1], s.bufs[(s.tick+1)&1]
	for _, i := range s.last {
		out[i] = prev[i]
	}
	s.last = s.last[:0]
	s.tick++
	n := len(out)
	for j := 0; j < n/100; j++ {
		i := (j*9973 + s.tick*31337) % n
		out[i].Cwnd = 10 + (out[i].Cwnd+s.tick+j)%90
		s.last = append(s.last, i)
	}
	for j := 0; j < n/1000; j++ {
		i := (j*7919 + s.tick*104729) % n
		out[i].Dst = netip.AddrFrom4([4]byte{byte(s.next >> 24), byte(s.next >> 16), byte(s.next >> 8), byte(s.next)})
		s.next++
		s.last = append(s.last, i)
	}
	return out, nil
}

// BenchmarkAgentTick100kMembershipChurn is the regime the delta-churn series
// above never exercised: 100k destinations with 1% new windows and 0.1% moved
// destinations per round, on a clock that advances one second per tick, so
// every round also expires the routes that sockets moved away from one TTL
// earlier. The warm-up runs past that TTL.
func BenchmarkAgentTick100kMembershipChurn(b *testing.B) {
	var now time.Duration
	agent, err := New(Config{
		Sampler: newMembershipChurnSampler(syntheticObservations(100_000)),
		Routes:  nopBatchRoutes{},
		Clock:   func() time.Duration { return now },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	tick := func() {
		now += time.Second
		if err := agent.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < int(DefaultTTL/time.Second)+5; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if st := agent.Stats(); st.EntriesExpired == 0 {
		b.Fatalf("no entry expired: %+v", st)
	}
}

// dumpShiftSampler replays a table in which, every round, one socket closes
// and one opens. With shift, each lands at a random position and the rows
// after it move, as they do in a real INET_DIAG dump, which walks the
// kernel's hash chains; without it, the new socket takes the closed one's
// position and nothing else moves. The new socket goes to a never-seen
// destination.
type dumpShiftSampler struct {
	rows  []Observation
	rng   *rand.Rand
	shift bool
	next  uint32 // next never-seen destination
}

func (s *dumpShiftSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	opened := Observation{
		Dst:  netip.AddrFrom4([4]byte{byte(s.next >> 24), byte(s.next >> 16), byte(s.next >> 8), byte(s.next)}),
		Cwnd: 10 + int(s.next%90),
		RTT:  50 * time.Millisecond,
	}
	s.next++
	closed := s.rng.Intn(len(s.rows))
	if s.shift {
		s.rows = slices.Delete(s.rows, closed, closed+1)
		s.rows = slices.Insert(s.rows, s.rng.Intn(len(s.rows)+1), opened)
	} else {
		s.rows[closed] = opened
	}
	return append(buf, s.rows...), nil
}

// BenchmarkAgentTick100kDumpShift measures how often the agent's positional
// compare gives up on a 100k-socket table when one socket closes and one
// opens per round. The ledger's churn-100k never moves a row (its kernel
// rewrites a socket's destination in place, the in-place case here); a real
// dump shifts every row after an open or a close, and each shifted row reads
// as a leave plus a join. rebuilds/round is the share of rounds that fell
// back to a full rebuild.
func BenchmarkAgentTick100kDumpShift(b *testing.B) {
	for _, shift := range []bool{true, false} {
		name := "shift"
		if !shift {
			name = "in-place"
		}
		b.Run(name, func(b *testing.B) {
			var now time.Duration
			agent, err := New(Config{
				Sampler: &dumpShiftSampler{rows: syntheticObservations(100_000), rng: rand.New(rand.NewSource(1)), shift: shift, next: 11 << 24},
				Routes:  nopBatchRoutes{},
				Clock:   func() time.Duration { return now },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = agent.Close() }()
			tick := func() {
				now += time.Second
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			tick()
			rebuilds := agent.Metrics().Counter("riptide_tick_rounds_rebuild")
			before := rebuilds.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.StopTimer()
			b.ReportMetric(float64(rebuilds.Value()-before)/float64(b.N), "rebuilds/round")
		})
	}
}

// noAdvice is an Advisor with nothing to say.
type noAdvice struct{}

func (noAdvice) Advise(netip.Prefix) float64 { return 1 }

// BenchmarkAgentTick100kHooks prices a tick under each hook a config can
// install — an Advisor, the safety governor, a caller-supplied History — in
// the working regime: 100k sockets, 1% new windows per round, one second
// per round.
func BenchmarkAgentTick100kHooks(b *testing.B) {
	for _, hook := range []struct {
		name    string
		install func(cfg *Config) error
	}{
		{"advisor", func(cfg *Config) error {
			cfg.Advisor = noAdvice{}
			return nil
		}},
		{"guard", func(cfg *Config) error {
			g, err := guard.New(guard.Config{Clock: cfg.Clock})
			cfg.Guard = g
			return err
		}},
		{"history", func(cfg *Config) error {
			h, err := NewEWMAHistory(DefaultAlpha)
			cfg.History = h
			return err
		}},
	} {
		b.Run(hook.name, func(b *testing.B) {
			var now time.Duration
			cfg := Config{
				Sampler: newChurnSampler(syntheticObservations(100_000), 100),
				Routes:  nopBatchRoutes{},
				Clock:   func() time.Duration { return now },
			}
			if err := hook.install(&cfg); err != nil {
				b.Fatal(err)
			}
			agent, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = agent.Close() }()
			tick := func() {
				now += time.Second
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			tick()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}

// ipv6Observations is syntheticObservations on a host whose peers all reach
// it over IPv6: destination a.b.c.d becomes 2001:db8::a.b.c.d.
func ipv6Observations(n int) []Observation {
	obs := syntheticObservations(n)
	for i := range obs {
		b := obs[i].Dst.As4()
		obs[i].Dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 12: b[0], 13: b[1], 14: b[2], 15: b[3]})
	}
	return obs
}

// BenchmarkAgentTick100kIPv6 prices a tick over IPv6 destinations, which the
// stable compare cannot pack into a record's one word: 100k sockets keyed
// per host, one second per round, sampled three ways — copied unchanged into
// the agent's buffer, with every BytesAcked advancing, and at 1% new windows
// per round under the safety governor.
func BenchmarkAgentTick100kIPv6(b *testing.B) {
	for _, mode := range []string{"copied", "busy", "guard"} {
		b.Run(mode, func(b *testing.B) {
			base := ipv6Observations(100_000)
			var now time.Duration
			cfg := Config{Routes: nopBatchRoutes{}, PrefixBits: 128, Clock: func() time.Duration { return now }}
			switch mode {
			case "copied":
				cfg.Sampler = staticSampler(base)
			case "busy":
				cfg.Sampler = &busySampler{base: base}
			case "guard":
				cfg.Sampler = newChurnSampler(base, 100)
				g, err := guard.New(guard.Config{Clock: cfg.Clock})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Guard = g
			}
			agent, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Closing withdraws all 100k routes: not a tick's cost.
			defer func() {
				b.StopTimer()
				_ = agent.Close()
			}()
			tick := func() {
				now += time.Second
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			tick()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}

// BenchmarkBatchProgram compares per-op route installation against the
// batched ApplyRoutes path on the simulated kernel — the cost model behind
// the agent's BatchRouteProgrammer fast path.
func BenchmarkBatchProgram(b *testing.B) {
	const ops = 1024
	host, err := kernel.NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	routes := make([]kernel.Route, ops)
	updates := make([]kernel.RouteUpdate, ops)
	for i := range routes {
		routes[i] = kernel.Route{
			Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24),
			InitCwnd: 10 + i%90,
			Proto:    "static",
		}
		updates[i] = kernel.RouteUpdate{Route: routes[i]}
	}
	b.Run("individual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range routes {
				if err := host.AddRoute(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if errs := host.ApplyRoutes(updates); errs != nil {
				b.Fatal(errs)
			}
		}
	})
}

func benchmarkScenario(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Scenario(name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioFlashCrowd(b *testing.B)  { benchmarkScenario(b, "flash-crowd") }
func BenchmarkScenarioDegradation(b *testing.B) { benchmarkScenario(b, "regional-degradation") }
func BenchmarkScenarioReboots(b *testing.B)     { benchmarkScenario(b, "rolling-reboots") }
