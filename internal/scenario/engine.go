package scenario

import (
	"fmt"
	"math"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/guard"
	"riptide/internal/stats"
	"riptide/internal/workload"
)

// Run executes the scenario: the main run, the control run when a compare
// block is present, and the assertions over both runs' metrics. The report
// is deterministic — the same spec and seed always produce the same bytes.
func (sp *Spec) Run() (*Report, error) {
	rep := &Report{
		Schema:      ReportSchema,
		Scenario:    sp.Name,
		Description: sp.Description,
		Seed:        sp.Fleet.Seed,
		Duration:    sp.Duration.String(),
	}
	start, end := sp.phaseWindow()
	rep.Phases = PhaseBounds{
		Before: phaseSpan(0, start),
		During: phaseSpan(start, end),
		After:  phaseSpan(end, sp.Duration),
	}

	metrics := make(map[string]float64)
	mainName := "riptide"
	if !sp.Fleet.Riptide.Enabled {
		mainName = "control"
	}
	mainMetrics, err := sp.executeRun(runOverrides{})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %s run: %w", sp.Name, mainName, err)
	}
	rep.Runs = append(rep.Runs, RunReport{Name: mainName, Metrics: sortMetrics(mainName, mainMetrics, metrics)})

	if sp.Compare != nil {
		ctl, err := sp.executeRun(runOverrides{
			riptide: sp.Compare.Riptide,
			guard:   sp.Compare.Guard,
			gossip:  sp.Compare.Gossip,
			sharing: sp.Compare.Sharing,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: control run: %w", sp.Name, err)
		}
		rep.Runs = append(rep.Runs, RunReport{Name: "control", Metrics: sortMetrics("control", ctl, metrics)})
	}

	rep.Pass = true
	for _, a := range sp.Assertions {
		res := a.Eval(metrics)
		rep.Assertions = append(rep.Assertions, res)
		if !res.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// phaseWindow resolves the "during" phase: the explicit window block when
// present, otherwise the union of the events' disruption windows, otherwise
// the whole run.
func (sp *Spec) phaseWindow() (time.Duration, time.Duration) {
	if sp.Window != nil {
		return sp.Window.Start, sp.Window.End
	}
	start, end := time.Duration(-1), time.Duration(-1)
	for _, ev := range sp.Events {
		s, e := ev.window(sp.Duration)
		if s == 0 && e == 0 {
			continue
		}
		if start < 0 || s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	if start < 0 {
		return 0, sp.Duration
	}
	return start, end
}

// affectedPoPs unions the events' blast radii; empty means "no filter".
func (sp *Spec) affectedPoPs() map[string]bool {
	out := make(map[string]bool)
	for _, ev := range sp.Events {
		for _, p := range ev.affected() {
			out[p] = true
		}
	}
	return out
}

// runOverrides derives the control run from the main spec.
type runOverrides struct {
	riptide *bool
	guard   *bool
	gossip  *bool
	sharing *bool
}

// runState accumulates per-run observations that the event callbacks and the
// metrics ticker write.
type runState struct {
	winStart, winEnd time.Duration
	// tick is the fleet's agent update interval: the observer's period and
	// the unit of the *_ticks metrics.
	tick time.Duration

	// Retransmit / probe-failure counters sampled at phase boundaries.
	retransAtStart, retransAtEnd int64
	sawStart, sawEnd             bool

	// Gossip wire bytes sampled at the same boundaries (gossipOn is set
	// when an enable_gossip_sharing event actually started the exchange).
	gossipOn                   bool
	gossipAtStart, gossipAtEnd int64

	// Safety-governor observations.
	guardOn    bool
	quarMax    int
	quarSeen   bool
	quarSeenAt time.Duration
	// Route-recovery tracking (the one tracked reboot event). routes counts
	// the tracked scope's learned routes: the rebooted machine's own for a
	// host_reboot, the fleet's for a rolling_reboots wave.
	tracking     bool
	rebootAt     time.Duration
	routes       func() int
	targetRoutes int
	recovered    bool
	recoveryTick int

	// maxWindowAtStart is the largest learned initcwnd on the affected
	// paths when the window opened (0 = none learned).
	maxWindowAtStart int
}

func (sp *Spec) executeRun(ov runOverrides) (map[string]float64, error) {
	fleet := sp.Fleet
	riptideOn := fleet.Riptide.Enabled
	if ov.riptide != nil {
		riptideOn = *ov.riptide
	}
	guardSpec := fleet.Riptide.Guard
	if ov.guard != nil && !*ov.guard {
		guardSpec = nil
	}
	pops, err := fleet.ResolvePoPs()
	if err != nil {
		return nil, err
	}

	cfg := cdn.Config{
		PoPs:             pops,
		HostsPerPoP:      fleet.HostsPerPoP,
		Seed:             fleet.Seed,
		LossRate:         fleet.LossRate,
		RTTJitter:        fleet.RTTJitter,
		CapacitySegments: fleet.CapacitySegments,
		Riptide: cdn.RiptideOptions{
			Enabled:        riptideOn,
			CMax:           fleet.Riptide.CMax,
			CMin:           fleet.Riptide.CMin,
			Alpha:          fleet.Riptide.Alpha,
			UpdateInterval: fleet.Riptide.UpdateInterval,
			TTL:            fleet.Riptide.TTL,
			PrefixBits:     fleet.Riptide.PrefixBits,
		},
		Traffic: cdn.TrafficOptions{
			ProbeInterval:          fleet.Traffic.ProbeInterval,
			CloseAfterTransferProb: fleet.Traffic.CloseAfterTransferProb,
			IdleTimeout:            fleet.Traffic.IdleTimeout,
		},
	}
	if riptideOn && guardSpec != nil {
		cfg.Riptide.Guard = &guard.Config{
			Holdback:        guardSpec.Holdback,
			MinSegments:     guardSpec.MinSegments,
			HysteresisTicks: guardSpec.HysteresisTicks,
			QuarantineTTL:   guardSpec.QuarantineTTL,
		}
	}
	for _, kb := range fleet.Traffic.ProbeSizesKB {
		cfg.Traffic.ProbeSizes = append(cfg.Traffic.ProbeSizes, kb*1024)
	}
	if len(fleet.Traffic.Organic) > 0 {
		cfg.Traffic.OrganicRates = make(map[string]float64, len(fleet.Traffic.Organic))
		for _, o := range fleet.Traffic.Organic {
			cfg.Traffic.OrganicRates[o.PoP] = o.Rate
		}
	}
	if fleet.Traffic.OrganicSizeKB > 0 {
		cfg.Traffic.OrganicSizes = workload.Constant(fleet.Traffic.OrganicSizeKB * 1024)
	}

	c, err := cdn.NewCluster(cfg)
	if err != nil {
		return nil, err
	}

	st := &runState{guardOn: riptideOn && guardSpec != nil, tick: fleet.Riptide.UpdateInterval}
	if st.tick == 0 {
		st.tick = core.DefaultUpdateInterval
	}
	st.winStart, st.winEnd = sp.phaseWindow()

	sharingOn := riptideOn && (ov.sharing == nil || *ov.sharing)
	gossipFull := ov.gossip != nil && !*ov.gossip
	for _, ev := range sp.Events {
		if err := applyEvent(c, ev, st, sharingOn, gossipFull); err != nil {
			return nil, fmt.Errorf("event at %v (%s): %w", ev.At, ev.Kind, err)
		}
	}

	// Phase-boundary samples of the cumulative counters. Boundaries at the
	// very start or end of the run are read directly instead of scheduled.
	if st.winStart > 0 && st.winStart < sp.Duration {
		if err := c.ScheduleAt(st.winStart, func() {
			st.retransAtStart = c.TotalRetransmits()
			st.gossipAtStart = c.GossipStats().BytesOnWire
			st.maxWindowAtStart = maxLearnedWindow(c, sp.affectedPoPs())
			st.sawStart = true
		}); err != nil {
			return nil, err
		}
	}
	if st.winEnd > 0 && st.winEnd < sp.Duration {
		if err := c.ScheduleAt(st.winEnd, func() {
			st.retransAtEnd = c.TotalRetransmits()
			st.gossipAtEnd = c.GossipStats().BytesOnWire
			st.sawEnd = true
		}); err != nil {
			return nil, err
		}
	}

	// The observer drives quarantine and route-recovery bookkeeping at the
	// agents' own cadence. It is created after the cluster's tickers, so at
	// equal timestamps the agents have already ticked when it looks.
	tick, err := eventsim.NewTicker(c.Engine(), st.tick, func(now time.Duration) {
		if st.guardOn && !st.quarSeen {
			if n := c.QuarantineCount(); n > 0 {
				st.quarSeen = true
				st.quarSeenAt = now
			}
		}
		if st.guardOn {
			if n := c.QuarantineCount(); n > st.quarMax {
				st.quarMax = n
			}
		}
		if st.tracking && !st.recovered && now >= st.rebootAt {
			if st.routes() >= st.targetRoutes {
				st.recovered = true
				st.recoveryTick = int((now - st.rebootAt) / st.tick)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer tick.Stop()

	c.Run(sp.Duration)

	metrics := sp.collect(c, st)
	c.Stop()
	return metrics, nil
}

// applyEvent schedules one parsed event onto the cluster. Recovery-tracking
// snapshots are scheduled before the event itself so the FIFO order at equal
// timestamps reads the pre-reboot route count. sharingOn is false in runs
// with nothing to share: a control without agents, or one comparing against
// sharing.
func applyEvent(c *cdn.Cluster, ev Event, st *runState, sharingOn, gossipFull bool) error {
	switch p := ev.Payload.(type) {
	case *HostRebootEvent:
		if p.TrackRecovery > 0 {
			own := func() int {
				if a := c.AgentAt(p.PoP, p.Host); a != nil {
					return a.Len()
				}
				return 0
			}
			if err := scheduleRecoverySnapshot(c, st, ev.At, p.TrackRecovery, own); err != nil {
				return err
			}
		}
		return c.ScheduleAt(ev.At, func() {
			_, _ = c.RebootHost(p.PoP, p.Host)
		})
	case *RollingRebootsEvent:
		if p.TrackRecovery > 0 {
			if err := scheduleRecoverySnapshot(c, st, ev.At, p.TrackRecovery, c.TotalRoutes); err != nil {
				return err
			}
		}
		return p.RollingReboots.Apply(c)
	case *FleetSharingEvent:
		if !sharingOn {
			return nil
		}
		return c.EnableFleetSharing(p.Interval, core.MergePolicy{})
	case *GossipSharingEvent:
		if !sharingOn {
			return nil
		}
		if p.SeedEntries > 0 {
			if err := c.SeedWarmEntries(p.SeedEntries, core.MergePolicy{}); err != nil {
				return err
			}
		}
		mode := cdn.GossipMode(p.Mode)
		if gossipFull {
			mode = cdn.GossipFull
		}
		if err := c.EnableGossipSharing(p.Interval, core.MergePolicy{}, mode); err != nil {
			return err
		}
		st.gossipOn = true
		return nil
	case *KnobEvent:
		return c.ScheduleAt(ev.At, func() { applyKnob(c, p) })
	case interface{ Apply(*cdn.Cluster) error }: // the cdn fault types
		return p.Apply(c)
	}
	return fmt.Errorf("unhandled event kind %q", ev.Kind)
}

func scheduleRecoverySnapshot(c *cdn.Cluster, st *runState, at time.Duration, frac float64, routes func() int) error {
	if st.tracking {
		return fmt.Errorf("track_recovery set on more than one event")
	}
	st.tracking = true
	st.rebootAt = at
	st.routes = routes
	return c.ScheduleAt(at, func() {
		st.targetRoutes = int(math.Ceil(frac * float64(routes())))
	})
}

// maxLearnedWindow reports the largest initcwnd the fleet currently holds on
// the affected paths: routes from an agent in one affected PoP to a machine
// of another — or, when fewer than two PoPs are affected, routes with either
// end in the blast radius. 0 means no such route is learned.
func maxLearnedWindow(c *cdn.Cluster, affected map[string]bool) int {
	highest := 0
	for _, src := range c.PoPs() {
		for _, dst := range c.PoPs() {
			on := affected[src.Name] && affected[dst.Name]
			if len(affected) < 2 {
				on = len(affected) == 0 || affected[src.Name] || affected[dst.Name]
			}
			if !on || src.Name == dst.Name {
				continue
			}
			hosts, _ := c.Hosts(dst.Name) // dst comes from c.PoPs()
			for _, a := range c.Agents(src.Name) {
				for _, h := range hosts {
					if w, ok := a.Lookup(h.Addr()); ok && w > highest {
						highest = w
					}
				}
			}
		}
	}
	return highest
}

func applyKnob(c *cdn.Cluster, k *KnobEvent) {
	switch k.Knob {
	case KnobPoPLoss:
		_ = c.SetPoPPathLoss(k.PoP, k.Value)
	case KnobPoPCapacity:
		_ = c.SetPoPPathCapacity(k.PoP, int(k.Value))
	case KnobPairCapacity:
		_ = c.SetPoPPairCapacity(k.A, k.B, int(k.Value))
	case KnobPairRTTMs:
		_ = c.SetPoPPairRTT(k.A, k.B, time.Duration(k.Value*float64(time.Millisecond)))
	}
}

// collect turns the run's raw observations into the flat metric map the
// assertions evaluate against.
func (sp *Spec) collect(c *cdn.Cluster, st *runState) map[string]float64 {
	m := make(map[string]float64)

	// Retransmits by phase, from the cumulative counter's boundary samples.
	total := c.TotalRetransmits()
	atStart, atEnd := st.retransAtStart, st.retransAtEnd
	if !st.sawStart {
		if st.winStart <= 0 {
			atStart = 0
		} else {
			atStart = total // window started at/after the end of the run
		}
	}
	if !st.sawEnd {
		if st.winEnd >= sp.Duration {
			atEnd = total
		} else {
			atEnd = atStart
		}
	}
	m["retrans.before"] = float64(atStart)
	m["retrans.during"] = float64(atEnd - atStart)
	m["retrans.after"] = float64(total - atEnd)
	m["retrans.total"] = float64(total)

	// Probe completion CDFs by phase, filtered to the blast radius.
	affected := sp.affectedPoPs()
	phases := map[string]*stats.CDF{
		"before": stats.NewCDF(0), "during": stats.NewCDF(0), "after": stats.NewCDF(0), "total": stats.NewCDF(0),
	}
	for _, pr := range c.ProbeRecords() {
		if len(affected) > 0 && !affected[pr.Src] && !affected[pr.Dst] {
			continue
		}
		if sp.ProbeFilter.SizeKB > 0 && pr.SizeBytes != sp.ProbeFilter.SizeKB*1024 {
			continue
		}
		if sp.ProbeFilter.FreshOnly && !pr.FreshConn {
			continue
		}
		ms := float64(pr.Elapsed) / float64(time.Millisecond)
		phases[sp.phaseOf(pr.At)].Add(ms)
		phases["total"].Add(ms)
	}
	for name, cdf := range phases {
		m["probes."+name] = float64(cdf.Len())
		if cdf.Len() == 0 {
			continue
		}
		m["probe_ms.p50."+name] = cdf.MustPercentile(50)
		m["probe_ms.p90."+name] = cdf.MustPercentile(90)
		m["probe_ms.p99."+name] = cdf.MustPercentile(99)
		if mean, err := cdf.Mean(); err == nil {
			m["probe_ms.mean."+name] = mean
		}
	}

	// Probe open failures by phase — the partition fingerprint.
	fails := map[string]float64{"before": 0, "during": 0, "after": 0}
	for _, f := range c.ProbeFailures() {
		if len(affected) > 0 && !affected[f.Src] && !affected[f.Dst] {
			continue
		}
		fails[sp.phaseOf(f.At)]++
	}
	for name, n := range fails {
		m["probe_failures."+name] = n
	}
	m["probe_failures.total"] = fails["before"] + fails["during"] + fails["after"]

	m["routes.end"] = float64(c.TotalRoutes())
	if st.maxWindowAtStart > 0 {
		m["initcwnd.max.before"] = float64(st.maxWindowAtStart)
	}

	// Gossip wire accounting, with bytes split by phase the same way as
	// retransmits so assertions can price the steady state separately from
	// the incident window.
	if st.gossipOn {
		gs := c.GossipStats()
		gAtStart, gAtEnd := st.gossipAtStart, st.gossipAtEnd
		if !st.sawStart {
			if st.winStart <= 0 {
				gAtStart = 0
			} else {
				gAtStart = gs.BytesOnWire
			}
		}
		if !st.sawEnd {
			if st.winEnd >= sp.Duration {
				gAtEnd = gs.BytesOnWire
			} else {
				gAtEnd = gAtStart
			}
		}
		m["gossip.bytes.before"] = float64(gAtStart)
		m["gossip.bytes.during"] = float64(gAtEnd - gAtStart)
		m["gossip.bytes.after"] = float64(gs.BytesOnWire - gAtEnd)
		m["gossip.bytes.total"] = float64(gs.BytesOnWire)
		m["gossip.rounds.total"] = float64(gs.Rounds)
		m["gossip.rounds.delta"] = float64(gs.DeltaRounds)
		m["gossip.rounds.full"] = float64(gs.FullRounds)
		m["gossip.rounds.not_modified"] = float64(gs.NotModifiedRounds)
		m["gossip.entries_moved"] = float64(gs.EntriesMoved)
	}

	if st.guardOn {
		m["quarantines"] = float64(st.quarMax)
		if st.quarSeen {
			ticks := (st.quarSeenAt - st.winStart) / st.tick
			if ticks < 1 {
				ticks = 1
			}
			m["quarantine_ticks"] = float64(ticks)
		}
	}
	if st.tracking {
		m["recovery_target"] = float64(st.targetRoutes)
		if st.recovered {
			m["recovery_ticks"] = float64(st.recoveryTick)
		} else {
			// Censored: recovery had not completed when the run ended.
			m["recovery_ticks"] = float64((sp.Duration - st.rebootAt) / st.tick)
			m["recovery_censored"] = 1
		}
	}
	return m
}

func (sp *Spec) phaseOf(at time.Duration) string {
	start, end := sp.phaseWindow()
	switch {
	case at < start:
		return "before"
	case at < end:
		return "during"
	default:
		return "after"
	}
}
