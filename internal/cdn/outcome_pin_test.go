package cdn

import (
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

// TestSim34PoPOutcomePin runs the configuration bench/sim.go drives as the
// sim-34pop workload (DefaultTopology, loss 0.002, five busy PoPs at 4/s and
// the rest at 1/s, probes every 4 m, idle timeout 2 m) for five simulated
// minutes and compares the counts with constants recorded before PR 16
// replaced the connection table, the route lookup and the event queue. A
// substrate change that reorders events, draws from an RNG in a different
// order or drops a tick moves at least one of them.
func TestSim34PoPOutcomePin(t *testing.T) {
	want := map[int64]simOutcome{
		1: {fired: 84082, ticks: 10200, probes: 3366, routes: 1122, retrans: 4989},
		2: {fired: 96574, ticks: 10200, probes: 3366, routes: 1122, retrans: 5584},
		3: {fired: 91290, ticks: 10200, probes: 3366, routes: 1122, retrans: 5588},
	}
	busy := map[string]bool{"lhr": true, "fra": true, "jfk": true, "lax": true, "nrt": true}
	for seed := int64(1); seed <= 3; seed++ {
		pops := DefaultTopology()
		organic := make(map[string]float64, len(pops))
		for _, p := range pops {
			organic[p.Name] = 1
			if busy[p.Name] {
				organic[p.Name] = 4
			}
		}
		c, err := NewCluster(Config{
			PoPs:     pops,
			Seed:     seed,
			LossRate: 0.002,
			Riptide:  RiptideOptions{Enabled: true},
			Traffic: TrafficOptions{
				ProbeInterval: 4 * time.Minute,
				IdleTimeout:   2 * time.Minute,
				OrganicRates:  organic,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Minute)
		got := simOutcome{
			fired:   c.Engine().Fired(),
			probes:  len(c.ProbeRecords()),
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
