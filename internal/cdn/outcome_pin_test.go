package cdn

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
)

// simOutcome is everything the sim-34pop harness counts about one run.
type simOutcome struct {
	fired   uint64 // Engine().Fired()
	ticks   uint64 // agent ticks, summed over every host
	probes  int    // completed probes
	routes  int    // TotalRoutes() at the end
	retrans int64  // TotalRetransmits()
}

// pinConfig is the sim-34pop configuration (bench/sim.go) for one seed.
func pinConfig(seed int64) Config {
	busy := map[string]bool{"lhr": true, "fra": true, "jfk": true, "lax": true, "nrt": true}
	pops := DefaultTopology()
	organic := make(map[string]float64, len(pops))
	for _, p := range pops {
		organic[p.Name] = 1
		if busy[p.Name] {
			organic[p.Name] = 4
		}
	}
	return Config{
		PoPs:     pops,
		Seed:     seed,
		LossRate: 0.002,
		Riptide:  RiptideOptions{Enabled: true},
		Traffic: TrafficOptions{
			ProbeInterval: 4 * time.Minute,
			IdleTimeout:   2 * time.Minute,
			OrganicRates:  organic,
		},
	}
}

// probeDigest is an FNV-64a hash over every field of every record, in record
// order: two runs digest equal only if each probe matches field for field.
func probeDigest(records []ProbeRecord) uint64 {
	h := fnv.New64a()
	var buf []byte
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	num := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for _, r := range records {
		buf = buf[:0]
		str(r.Src)
		str(r.Dst)
		buf = r.SrcHost.AppendTo(buf)
		buf = r.DstHost.AppendTo(buf)
		num(int64(r.SizeBytes))
		num(int64(r.RTT))
		num(int64(r.Bucket))
		num(int64(r.Elapsed))
		num(int64(r.Rounds))
		num(int64(r.InitCwnd))
		if r.FreshConn {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		num(int64(r.At))
		h.Write(buf)
	}
	return h.Sum64()
}

// TestSim34PoPOutcomePin runs the configuration bench/sim.go drives as the
// sim-34pop workload (DefaultTopology, loss 0.002, five busy PoPs at 4/s and
// the rest at 1/s, probes every 4 m, idle timeout 2 m) for five simulated
// minutes and compares the counts with constants recorded before PR 16
// replaced the connection table, the route lookup and the event queue. A
// substrate change that reorders events, draws from an RNG in a different
// order or drops a tick moves at least one of them. The digest covers every
// field of every probe record, so a change that shifts one probe's Elapsed or
// InitCwnd without moving a count fails too.
//
// The constants were re-recorded when netsim's loss draw became a per-path
// geometric gap counter: each segment still sees the same Bernoulli(p) law,
// but the RNG is drawn once per lost segment instead of once per segment
// sent, so every seed's realisation moved (fired, retrans and the digests;
// ticks, probes and routes did not).
func TestSim34PoPOutcomePin(t *testing.T) {
	want := map[int64]simOutcome{
		1: {fired: 87936, ticks: 10200, probes: 3366, routes: 1122, retrans: 5237},
		2: {fired: 105407, ticks: 10200, probes: 3366, routes: 1122, retrans: 5430},
		3: {fired: 88454, ticks: 10200, probes: 3366, routes: 1122, retrans: 5439},
	}
	wantDigest := map[int64]uint64{
		1: 0x979d8135c56b79e0,
		2: 0x41dc7b12083b25a5,
		3: 0x4b0a32b04b773890,
	}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := NewCluster(pinConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Minute)
		records := c.ProbeRecords()
		if d := probeDigest(records); d != wantDigest[seed] {
			t.Errorf("seed %d: probe digest %#x, want %#x", seed, d, wantDigest[seed])
		}
		got := simOutcome{
			fired:   c.Engine().Fired(),
			probes:  len(records),
			routes:  c.TotalRoutes(),
			retrans: c.TotalRetransmits(),
		}
		for _, p := range c.PoPs() {
			for _, a := range c.Agents(p.Name) {
				got.ticks += a.Stats().Ticks
			}
		}
		c.Stop()
		if got != want[seed] {
			t.Errorf("seed %d: outcome %+v, want %+v", seed, got, want[seed])
		}
	}
}

// TestSim34PoPTicksStayStable: a simulated agent's tick compares this
// round's sample with last round's position by position, and falls back to a
// full rebuild when more positions changed than its edit budget allows. The
// simulated kernel closes a connection by moving the table's last row into
// the hole, so a close changes one position, not every position after it.
// Over five minutes of the sim-34pop configuration at most 5 % of all ticks
// may rebuild; a table that shifted every later row on a close rebuilt more
// than a fifth of them.
func TestSim34PoPTicksStayStable(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c, err := NewCluster(pinConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Minute)
		var ticks, rebuilds uint64
		for _, p := range c.PoPs() {
			for _, a := range c.Agents(p.Name) {
				ticks += a.Stats().Ticks
				rebuilds += a.Metrics().Counter("riptide_tick_rounds_rebuild").Value()
			}
		}
		c.Stop()
		share := float64(rebuilds) / float64(ticks)
		t.Logf("seed %d: %d of %d ticks rebuilt (%.1f %%)", seed, rebuilds, ticks, 100*share)
		if ticks == 0 || share > 0.05 {
			t.Errorf("seed %d: %d of %d ticks rebuilt (%.1f %%), want at most 5 %%", seed, rebuilds, ticks, 100*share)
		}
	}
}

// BenchmarkSimCluster5Min builds and runs the outcome pin's configuration
// (seed 1) for five simulated minutes per iteration, reporting what a run
// allocates and how many events it fires.
func BenchmarkSimCluster5Min(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(pinConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		c.Run(5 * time.Minute)
		events += c.Engine().Fired()
		c.Stop()
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N)/(1<<20), "MB/run")
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}
