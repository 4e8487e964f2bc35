package core_test

import (
	"net/netip"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/guard"
	"riptide/internal/metrics"
)

// Hook configs — a governor, an advisor, a caller-supplied history — take
// stable rounds like any other: every group is planned every round, so the
// hooks see exactly the calls a rebuild would make.

// guardReport is what the governed runs are compared on beyond the agent's
// own output: the governor's state census and how often it moved.
type guardReport struct {
	guard.Status
	Throttles, Quarantines, Probes, Clears uint64
}

// installGuard puts a real loss-feedback governor into the Config, tuned so
// the schedule's 30 s rounds walk destinations through every state: a
// quarantine lasts four rounds, then the destination is probed.
func installGuard(t *testing.T) func(*core.Config) func() any {
	return func(cfg *core.Config) func() any {
		reg := metrics.NewRegistry()
		g, err := guard.New(guard.Config{
			Clock: cfg.Clock, Holdback: guard.DefaultHoldback, QuarantineTTL: 2 * time.Minute, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Guard, cfg.Metrics = g, reg
		return func() any {
			return guardReport{
				Status:      g.Status(),
				Throttles:   reg.Counter("riptide_guard_throttles").Value(),
				Quarantines: reg.Counter("riptide_guard_quarantines").Value(),
				Probes:      reg.Counter("riptide_guard_probes").Value(),
				Clears:      reg.Counter("riptide_guard_clears").Value(),
			}
		}
	}
}

// roundHookSampler calls before(round) ahead of each round's sample.
type roundHookSampler struct {
	inner  core.ConnectionSampler
	before func(round int)
	round  int
}

func (s *roundHookSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	s.before(s.round)
	s.round++
	return s.inner.SampleConnections(buf)
}

// installAdvisor puts in a LoadBalanceAdvisor whose damping changes every
// ninth round — the rounds on which the churn schedule moves no observation,
// so only the advisor can move a window.
func installAdvisor(cfg *core.Config) func() any {
	adv := core.NewLoadBalanceAdvisor()
	cfg.Advisor = adv
	region := netip.MustParsePrefix("10.0.0.0/12")
	cfg.Sampler = &roundHookSampler{inner: cfg.Sampler, before: func(round int) {
		switch {
		case round%18 == 9:
			_ = adv.ExpectShift(region, 0.5)
		case round%18 == 0:
			adv.ShiftComplete(region)
		}
	}}
	return func() any { return nil }
}

func installWindowed(t *testing.T) func(*core.Config) func() any {
	return func(cfg *core.Config) func() any {
		h, err := core.NewWindowedHistory(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg.History = h
		return func() any { return nil }
	}
}

func installTrend(t *testing.T) func(*core.Config) func() any {
	return func(cfg *core.Config) func() any {
		h, err := core.NewTrendHistory(core.DefaultAlpha, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.History = h
		return func() any { return h.Collapses() }
	}
}

func TestStableRoundsMatchRebuildGuard(t *testing.T) {
	var last guardReport
	core.StableVsRebuild(t, func(cfg *core.Config) func() any {
		status := installGuard(t)(cfg)
		return func() any {
			last = status().(guardReport)
			return last
		}
	})
	// The schedule must have driven the governor through canary vetoes, caps,
	// quarantines of installed routes and probes, or the equality above
	// proves little.
	if last.Canaries == 0 || last.Throttles == 0 || last.Quarantines == 0 || last.Probes == 0 || last.Clears == 0 {
		t.Errorf("governor was not exercised: %+v", last)
	}
}

// TestCounterOnlyRoundsMatchRebuildGuard is TestCounterOnlyRoundsMatchRebuild
// under the governor, which reads every socket's counters (ObserveSample)
// while the plan ignores them: its status, too, must match the rebuild's, and
// the busy rounds must stay stable.
func TestCounterOnlyRoundsMatchRebuildGuard(t *testing.T) {
	var last guardReport
	rounds := core.BusySchedule()
	core.StableVsRebuildOn(t, rounds, len(rounds)-6, func(cfg *core.Config) func() any {
		status := installGuard(t)(cfg)
		return func() any {
			last = status().(guardReport)
			return last
		}
	})
	if last.Canaries == 0 || last.Throttles == 0 || last.Quarantines == 0 || last.Probes == 0 || last.Clears == 0 {
		t.Errorf("the busy schedule left the governor idle: %+v", last)
	}
}

func TestStableRoundsMatchRebuildAdvisor(t *testing.T) {
	core.StableVsRebuild(t, installAdvisor)
}

func TestStableRoundsMatchRebuildSharedHistory(t *testing.T) {
	t.Run("windowed", func(t *testing.T) { core.StableVsRebuild(t, installWindowed(t)) })
	t.Run("trend", func(t *testing.T) { core.StableVsRebuild(t, installTrend(t)) })
}

// TestHookConfigsStayOnStablePath: 2 000 sockets, 0.1 % moves per round, 110
// rounds under each hook — 109 stable rounds, one rebuild.
func TestHookConfigsStayOnStablePath(t *testing.T) {
	for name, install := range map[string]func(*core.Config) func() any{
		"guard":    installGuard(t),
		"advisor":  installAdvisor,
		"windowed": installWindowed(t),
		"trend":    installTrend(t),
	} {
		t.Run(name, func(t *testing.T) {
			core.StaysOnStablePath(t, func(cfg *core.Config) { install(cfg) })
		})
	}
}
