package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// Algorithm 1 (PAPER.md §III-B) as a serial, map-based reference that shares
// nothing with the agent but the Observation/RouteOp/Entry types: group in
// sample order, combine, EWMA, clamp, program what changed, refresh TTLs,
// expire. An entry exists only after its route installed; history outlives a
// failing install and is forgotten when the entry's withdrawal succeeds, or,
// for a destination never installed, once it has gone unobserved for a TTL.

type oracleEntry struct {
	window, lastObs int
	samples         uint64
	expires         time.Duration
}

type oracle struct {
	prefixBits, cmin, cmax int
	alpha                  float64
	ttl                    time.Duration
	combine                func([]Observation) float64
	hist                   map[netip.Prefix]float64
	seen                   map[netip.Prefix]time.Duration // when each key was last observed
	table                  map[netip.Prefix]*oracleEntry
	set, cleared, expired  uint64
}

func oracleCombiner(name string) func([]Observation) float64 {
	return func(g []Observation) float64 {
		var sum, weights, best float64
		for _, o := range g {
			w := 1.0
			if name == "traffic-weighted" && o.BytesAcked > 0 {
				w = float64(o.BytesAcked)
			}
			sum += w * float64(o.Cwnd)
			weights += w
			best = math.Max(best, float64(o.Cwnd))
		}
		if name == "max" {
			return best
		}
		return sum / weights
	}
}

// round runs one update interval at time now over obs against a route backend
// that fails the ops fails names, and returns the ops it issued in order:
// installs by prefix, then withdrawals by prefix.
func (o *oracle) round(now time.Duration, obs []Observation, fails func(RouteOp) bool) []string {
	groups := map[netip.Prefix][]Observation{}
	for _, ob := range obs {
		if ob.Cwnd <= 0 || !ob.Dst.IsValid() {
			continue
		}
		key, err := ob.Dst.Prefix(min(o.prefixBits, ob.Dst.BitLen()))
		if err != nil {
			continue
		}
		groups[key] = append(groups[key], ob)
	}
	var sets, clears []RouteOp
	for key, g := range groups {
		o.seen[key] = now
		v := o.combine(g)
		if prev, ok := o.hist[key]; ok {
			v = o.alpha*prev + (1-o.alpha)*v
		}
		o.hist[key] = v
		w := min(max(int(math.Round(v)), o.cmin), o.cmax)
		e := o.table[key]
		if e != nil {
			e.expires, e.lastObs = now+o.ttl, len(g)
			e.samples += uint64(len(g))
		}
		if e == nil || e.window != w {
			sets = append(sets, RouteOp{Prefix: key, Window: w})
		}
	}
	for key, e := range o.table {
		if e.expires <= now {
			clears = append(clears, RouteOp{Prefix: key, Clear: true})
		}
	}
	byPrefix := func(x, y RouteOp) int {
		if c := x.Prefix.Addr().Compare(y.Prefix.Addr()); c != 0 {
			return c
		}
		return x.Prefix.Bits() - y.Prefix.Bits()
	}
	slices.SortFunc(sets, byPrefix)
	slices.SortFunc(clears, byPrefix)
	var log []string
	for _, op := range append(sets, clears...) {
		failed := fails(op)
		log = append(log, oracleOpString(op, failed))
		switch {
		case failed:
		case op.Clear:
			delete(o.table, op.Prefix)
			delete(o.hist, op.Prefix)
			o.cleared++
			o.expired++
		default:
			e := o.table[op.Prefix]
			if e == nil {
				n := len(groups[op.Prefix])
				e = &oracleEntry{samples: uint64(n), lastObs: n, expires: now + o.ttl}
				o.table[op.Prefix] = e
			}
			e.window = op.Window
			o.set++
		}
	}
	for key := range o.hist {
		if o.table[key] == nil && o.seen[key]+o.ttl <= now {
			delete(o.hist, key)
		}
	}
	return log
}

func oracleOpString(op RouteOp, failed bool) string {
	return fmt.Sprintf("%v clear=%v window=%d failed=%v", op.Prefix, op.Clear, op.Window, failed)
}

// oracleRoutes is the agent's backend in the oracle runs: it fails what fails
// names and logs every op as the oracle does.
type oracleRoutes struct {
	fails func(RouteOp) bool
	log   []string
}

func (r *oracleRoutes) SetInitCwnd(netip.Prefix, int) error { panic("batched backend") }
func (r *oracleRoutes) ClearInitCwnd(netip.Prefix) error    { panic("batched backend") }

func (r *oracleRoutes) ProgramRoutes(ops []RouteOp) []error {
	errs := make([]error, len(ops))
	for i, op := range ops {
		if op.Clear {
			op.Window = 0
		}
		failed := r.fails(op)
		if failed {
			errs[i] = fmt.Errorf("injected failure")
		}
		r.log = append(r.log, oracleOpString(op, failed))
	}
	return errs
}

// TestAgentMatchesAlgorithm1Oracle drives the agent and the oracle with the
// membership-churn generator — in-place cwnds, swaps to seen and never-seen
// prefixes, validity flips, last-member loss and regain before and after the
// TTL, tail growth and shrink — over a backend with failing installs and
// failing withdrawals, and demands the same route ops every round, the same
// table (prefix, window, group size, expiry, samples) and the same counters,
// for every built-in combiner. The agent takes stable rounds
// and rebuilds as the stream dictates; the oracle knows neither.
func TestAgentMatchesAlgorithm1Oracle(t *testing.T) {
	fails := func(op RouteOp) bool {
		o := op.Prefix.Addr().As4()[2]
		return o%23 == 7 || (op.Clear && o%29 == 11)
	}
	for i, combiner := range []Combiner{AverageCombiner{}, MaxCombiner{}, TrafficWeightedCombiner{}} {
		rounds := membershipChurnRounds(int64(1+i), 48, 1600)
		label := combiner.Name()
		var now atomic.Int64
		routes := &oracleRoutes{fails: fails}
		a, err := New(Config{
			Sampler:    &playbackSampler{rounds: rounds},
			Routes:     routes,
			Clock:      func() time.Duration { return time.Duration(now.Load()) },
			PrefixBits: 24,
			Combiner:   combiner,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := a.Config()
		ref := &oracle{
			prefixBits: cfg.PrefixBits, cmin: cfg.CMin, cmax: cfg.CMax, alpha: cfg.Alpha, ttl: cfg.TTL,
			combine: oracleCombiner(combiner.Name()),
			hist:    map[netip.Prefix]float64{}, seen: map[netip.Prefix]time.Duration{}, table: map[netip.Prefix]*oracleEntry{},
		}
		for r, obs := range rounds {
			now.Add(int64(30 * time.Second))
			routes.log = routes.log[:0]
			_ = a.Tick() // injected failures surface here; the op log carries them
			want := ref.round(time.Duration(now.Load()), obs, fails)
			if !slices.Equal(routes.log, want) {
				t.Fatalf("%s: round %d: route ops diverged from Algorithm 1:\n  agent  %q\n  oracle %q", label, r, routes.log, want)
			}
			if r%5 != 4 && r != len(rounds)-1 {
				continue // leave lazily credited entries unread most rounds
			}
			entries := a.Entries()
			exported, _ := a.ExportDelta(0)
			if len(entries) != len(ref.table) || len(exported) != len(entries) {
				t.Fatalf("%s: round %d: %d entries, %d exported, oracle has %d", label, r, len(entries), len(exported), len(ref.table))
			}
			for j, e := range entries {
				w := ref.table[e.Prefix]
				if w == nil || e.Window != w.window || e.Observations != w.lastObs || e.ExpiresAt != w.expires || exported[j].Samples != w.samples {
					t.Fatalf("%s: round %d: entry %+v (samples %d), oracle %+v", label, r, e, exported[j].Samples, w)
				}
			}
		}
		st := a.Stats()
		if st.RoutesSet != ref.set || st.RoutesCleared != ref.cleared || st.EntriesExpired != ref.expired || ref.expired == 0 {
			t.Errorf("%s: set/cleared/expired = %d/%d/%d, oracle %d/%d/%d", label,
				st.RoutesSet, st.RoutesCleared, st.EntriesExpired, ref.set, ref.cleared, ref.expired)
		}
		if stable := a.Metrics().Counter("riptide_tick_rounds_stable").Value(); stable < uint64(len(rounds)-6) {
			t.Errorf("%s: only %d of %d rounds were stable", label, stable, len(rounds))
		}
	}
}
