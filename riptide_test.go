package riptide

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// memSampler and memRoutes are minimal in-memory backends for facade tests.
type memSampler struct {
	mu  sync.Mutex
	obs []Observation
}

func (m *memSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append(buf, m.obs...), nil
}

type memRoutes struct {
	mu  sync.Mutex
	set map[netip.Prefix]int
}

func (m *memRoutes) SetInitCwnd(p netip.Prefix, c int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.set == nil {
		m.set = make(map[netip.Prefix]int)
	}
	m.set[p] = c
	return nil
}

func (m *memRoutes) ClearInitCwnd(p netip.Prefix) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.set, p)
	return nil
}

func (m *memRoutes) get(p netip.Prefix) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.set[p]
	return v, ok
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sampler := &memSampler{obs: []Observation{
		{Dst: netip.MustParseAddr("10.0.0.127"), Cwnd: 60},
		{Dst: netip.MustParseAddr("10.0.0.127"), Cwnd: 100},
	}}
	routes := &memRoutes{}
	agent, err := New(Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if w, ok := routes.get(netip.MustParsePrefix("10.0.0.127/32")); !ok || w != 80 {
		t.Errorf("programmed window = %d,%v; want 80", w, ok)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := routes.get(netip.MustParsePrefix("10.0.0.127/32")); ok {
		t.Error("route survived Close")
	}
}

func TestDefaultsExported(t *testing.T) {
	if DefaultUpdateInterval != time.Second || DefaultTTL != 90*time.Second {
		t.Error("exported defaults diverge from the paper")
	}
	if DefaultCMax != 100 || DefaultCMin != 10 || DefaultAlpha != 0.75 {
		t.Error("exported window defaults diverge from the paper")
	}
}

func TestHistoryConstructors(t *testing.T) {
	if _, err := NewEWMAHistory(0.5); err != nil {
		t.Error(err)
	}
	if _, err := NewEWMAHistory(2); err == nil {
		t.Error("bad alpha accepted")
	}
	if _, err := NewWindowedHistory(5); err != nil {
		t.Error(err)
	}
	if _, err := NewWindowedHistory(0); err == nil {
		t.Error("bad window accepted")
	}
}

func TestNewLinuxAgentConstructs(t *testing.T) {
	// Construction must not talk to the kernel; only Tick does. (A named
	// Device would be resolved here, so none is given.)
	agent, err := NewLinuxAgent(LinuxOptions{Gateway: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := agent.Config()
	if cfg.UpdateInterval != DefaultUpdateInterval || cfg.CMax != DefaultCMax {
		t.Errorf("linux agent config = %+v", cfg)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunLoop(t *testing.T) {
	sampler := &memSampler{obs: []Observation{
		{Dst: netip.MustParseAddr("10.0.0.5"), Cwnd: 42},
	}}
	routes := &memRoutes{}
	start := time.Now()
	agent, err := New(Config{
		Sampler:        sampler,
		Routes:         routes,
		Clock:          func() time.Duration { return time.Since(start) },
		UpdateInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := Run(ctx, agent); err != nil {
		t.Fatal(err)
	}
	if agent.Stats().Ticks == 0 {
		t.Error("Run never ticked")
	}
	if _, ok := routes.get(netip.MustParsePrefix("10.0.0.5/32")); ok {
		t.Error("Run did not withdraw routes on exit")
	}
}

type failSampler struct{}

func (failSampler) SampleConnections([]Observation) ([]Observation, error) {
	return nil, errors.New("boom")
}

func TestRunLoopReportsErrors(t *testing.T) {
	start := time.Now()
	agent, err := New(Config{
		Sampler:        failSampler{},
		Routes:         &memRoutes{},
		Clock:          func() time.Duration { return time.Since(start) },
		UpdateInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen int
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := Run(ctx, agent, func(error) {
		mu.Lock()
		seen++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Error("tick errors not reported")
	}
}
