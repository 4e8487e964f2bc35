package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/kernel"
	"riptide/internal/netsim"
	"riptide/internal/stats"
)

// Extension experiments quantify the paper's Section V proposals, which the
// paper describes but does not evaluate: trend-based aggressive decrease and
// advisor-damped load shifts.

// twoHostRig is a minimal two-host network with an agent on the sender,
// shared by the extension experiments.
type twoHostRig struct {
	engine *eventsim.Engine
	net    *netsim.Network
	host   *kernel.Host
	agent  *core.Agent
	src    netip.Addr
	dst    netip.Addr
}

// newTwoHostRig wires a sender with a Riptide agent (using the supplied
// history policy and advisor) to a receiver across a 90 ms path, with
// persistent traffic keeping the agent supplied with observations.
func newTwoHostRig(seed int64, history core.HistoryPolicy, advisor core.Advisor, pathCfg netsim.PathConfig) (*twoHostRig, error) {
	engine := eventsim.NewEngine()
	net, err := netsim.NewNetwork(netsim.Config{Engine: engine, Seed: seed})
	if err != nil {
		return nil, err
	}
	src := netip.MustParseAddr("10.1.0.1")
	dst := netip.MustParseAddr("10.2.0.1")
	for _, a := range []netip.Addr{src, dst} {
		if _, err := net.AddHost(a); err != nil {
			return nil, err
		}
	}
	if pathCfg.RTT == 0 {
		pathCfg.RTT = 90 * time.Millisecond
	}
	if err := net.SetBidiPath(src, dst, pathCfg); err != nil {
		return nil, err
	}
	host, err := net.Host(src)
	if err != nil {
		return nil, err
	}
	agent, err := core.New(core.Config{
		Sampler: cdn.NewHostSampler(host),
		Routes:  cdn.NewHostRoutes(host),
		Clock:   engine.Now,
		History: history,
		Advisor: advisor,
	})
	if err != nil {
		return nil, err
	}
	if _, err := eventsim.NewTicker(engine, time.Second, func(time.Duration) { _ = agent.Tick() }); err != nil {
		return nil, err
	}
	rig := &twoHostRig{engine: engine, net: net, host: host, agent: agent, src: src, dst: dst}
	rig.pumpTraffic(3)
	return rig, nil
}

// pumpTraffic keeps n persistent connections busy with back-to-back 200KB
// transfers so the agent always has live windows to observe.
func (r *twoHostRig) pumpTraffic(n int) {
	var pump func(conn *netsim.Conn)
	pump = func(conn *netsim.Conn) {
		err := conn.Transfer(200*1024, func(netsim.TransferResult) {
			r.engine.MustSchedule(300*time.Millisecond, func() { pump(conn) })
		})
		if err != nil {
			conn.Close()
		}
	}
	for i := 0; i < n; i++ {
		conn, err := r.net.Open(r.src, r.dst)
		if err != nil {
			return
		}
		pump(conn)
	}
}

// learnedWindow reports the agent's current programmed window for dst.
func (r *twoHostRig) learnedWindow() int {
	w, ok := r.agent.Lookup(r.dst)
	if !ok {
		return 0
	}
	return w
}

// ExtensionTrendReaction compares how quickly the default EWMA and the
// Section V trend policy pull the programmed window down after a sudden
// path degradation, and how both recover.
func ExtensionTrendReaction(seed int64) (Result, error) {
	type outcome struct {
		label          string
		preEpisode     int
		reactionTime   time.Duration
		floorWindow    int
		recoveredAfter time.Duration
	}
	run := func(label string, history core.HistoryPolicy) (outcome, error) {
		rig, err := newTwoHostRig(seed, history, nil, netsim.PathConfig{LossRate: 0.001})
		if err != nil {
			return outcome{}, err
		}
		defer func() { _ = rig.agent.Close() }()

		const (
			degradeAt = 2 * time.Minute
			healAt    = 6 * time.Minute
			endAt     = 12 * time.Minute
		)
		rig.engine.MustSchedule(degradeAt, func() {
			_ = rig.net.SetPathLoss(rig.src, rig.dst, 0.08)
			_ = rig.net.SetPathLoss(rig.dst, rig.src, 0.08)
		})
		rig.engine.MustSchedule(healAt, func() {
			_ = rig.net.SetPathLoss(rig.src, rig.dst, 0.001)
			_ = rig.net.SetPathLoss(rig.dst, rig.src, 0.001)
		})

		rig.engine.RunUntil(degradeAt)
		pre := rig.learnedWindow()
		if pre == 0 {
			return outcome{}, fmt.Errorf("experiments: %s never learned a window", label)
		}

		// Advance second by second, recording when the programmed
		// window first halves and its floor during the episode.
		var reaction time.Duration
		floor := pre
		for t := degradeAt; t < healAt; t += time.Second {
			rig.engine.RunUntil(t)
			w := rig.learnedWindow()
			if w < floor {
				floor = w
			}
			if reaction == 0 && w <= pre/2 {
				reaction = t - degradeAt
			}
		}
		var recovered time.Duration
		for t := healAt; t <= endAt; t += time.Second {
			rig.engine.RunUntil(t)
			if rig.learnedWindow() >= (9*pre)/10 {
				recovered = t - healAt
				break
			}
		}
		return outcome{
			label:          label,
			preEpisode:     pre,
			reactionTime:   reaction,
			floorWindow:    floor,
			recoveredAfter: recovered,
		}, nil
	}

	ewma, err := core.NewEWMAHistory(0.9)
	if err != nil {
		return Result{}, err
	}
	trend, err := core.NewTrendHistory(0.9, 0.5)
	if err != nil {
		return Result{}, err
	}

	tbl := Table{
		Title:  "Reaction to an 8% loss episode: EWMA vs trend detection",
		Header: []string{"policy", "pre-episode window", "time to halve", "floor", "recovery to 90%"},
	}
	notes := make([]string, 0, 2)
	for _, v := range []struct {
		label   string
		history core.HistoryPolicy
	}{
		{"ewma alpha=0.9 (paper default shape)", ewma},
		{"trend alpha=0.9 collapse=0.5 (Section V)", trend},
	} {
		o, err := run(v.label, v.history)
		if err != nil {
			return Result{}, err
		}
		react := "never"
		if o.reactionTime > 0 {
			react = o.reactionTime.String()
		}
		rec := "not within 6m"
		if o.recoveredAfter > 0 {
			rec = o.recoveredAfter.String()
		}
		tbl.Rows = append(tbl.Rows, []string{
			v.label, fmt.Sprintf("%d", o.preEpisode), react,
			fmt.Sprintf("%d", o.floorWindow), rec,
		})
		notes = append(notes, fmt.Sprintf("%s: halved after %s", v.label, react))
	}
	return Result{
		ID:     "ext-trend",
		Title:  "Section V extension: trend-based aggressive decrease",
		Tables: []Table{tbl},
		Notes:  notes,
	}, nil
}

// ExtensionAdvisorShift measures the Section V load-balancing scenario: a
// herd of new connections arrives on a capacity-limited path. With the
// advisor damping the learned window beforehand, the herd induces less
// congestion loss.
func ExtensionAdvisorShift(seed int64) (Result, error) {
	run := func(damp bool) (retrans int64, p95 float64, err error) {
		advisor := core.NewLoadBalanceAdvisor()
		history, err := core.NewEWMAHistory(core.DefaultAlpha)
		if err != nil {
			return 0, 0, err
		}
		rig, err := newTwoHostRig(seed, history, advisor, netsim.PathConfig{
			LossRate:         0.001,
			CapacitySegments: 600,
		})
		if err != nil {
			return 0, 0, err
		}
		defer func() { _ = rig.agent.Close() }()

		const shiftAt = 2 * time.Minute
		if damp {
			// The orchestrator warns Riptide ahead of the shift.
			rig.engine.MustSchedule(shiftAt-30*time.Second, func() {
				_ = advisor.ExpectShift(netip.PrefixFrom(rig.dst, 32), 0.25)
			})
		}

		var total int64
		times := stats.NewCDF(64)
		rig.engine.MustSchedule(shiftAt, func() {
			// Load balancer moves a neighbour PoP's traffic here: 40
			// fresh connections start 200KB transfers at once.
			for i := 0; i < 40; i++ {
				conn, err := rig.net.Open(rig.src, rig.dst)
				if err != nil {
					continue
				}
				_ = conn.Transfer(200*1024, func(r netsim.TransferResult) {
					total += r.Retransmits
					times.Add(float64(r.Elapsed.Milliseconds()))
					conn.Close()
				})
			}
		})
		rig.engine.RunUntil(6 * time.Minute)
		if times.Len() == 0 {
			return 0, 0, fmt.Errorf("experiments: no herd transfers completed")
		}
		p95v, err := times.Percentile(95)
		if err != nil {
			return 0, 0, err
		}
		return total, p95v, nil
	}

	plainRetrans, plainP95, err := run(false)
	if err != nil {
		return Result{}, err
	}
	dampedRetrans, dampedP95, err := run(true)
	if err != nil {
		return Result{}, err
	}

	tbl := Table{
		Title:  "40-connection load shift onto a capacity-limited path",
		Header: []string{"variant", "herd retransmits", "herd p95 (ms)"},
		Rows: [][]string{
			{"no advisor (full learned window)", fmt.Sprintf("%d", plainRetrans), fmt.Sprintf("%.0f", plainP95)},
			{"advisor damping 0.25 (Section V)", fmt.Sprintf("%d", dampedRetrans), fmt.Sprintf("%.0f", dampedP95)},
		},
	}
	return Result{
		ID:     "ext-advisor",
		Title:  "Section V extension: advisor-damped load shift",
		Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("retransmits during the shift: %d without damping vs %d with (lower is safer)",
				plainRetrans, dampedRetrans),
		},
	}, nil
}
