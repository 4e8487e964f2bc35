package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
)

// countingSampler records how many times it was asked to sample.
type countingSampler struct {
	mu    sync.Mutex
	calls int
	obs   []core.Observation
}

func (s *countingSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	return append(buf, s.obs...), nil
}

func (s *countingSampler) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// recordingRoutes tracks the currently programmed routes.
type recordingRoutes struct {
	mu  sync.Mutex
	set map[netip.Prefix]int
}

func newRecordingRoutes() *recordingRoutes {
	return &recordingRoutes{set: make(map[netip.Prefix]int)}
}

func (r *recordingRoutes) SetInitCwnd(p netip.Prefix, cwnd int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set[p] = cwnd
	return nil
}

func (r *recordingRoutes) ClearInitCwnd(p netip.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.set, p)
	return nil
}

func (r *recordingRoutes) get(p netip.Prefix) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.set[p]
	return w, ok
}

// TestWarmStartProgramsRoutesBeforeFirstTick is the restart acceptance
// test: an agent learns routes and persists a snapshot; a second agent
// (the restarted daemon) warm-starts from the file and has the routes
// programmed though its sampler has never run.
func TestWarmStartProgramsRoutesBeforeFirstTick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")

	// First incarnation: learn two destinations, persist, "crash".
	first, err := core.New(core.Config{
		Sampler: &countingSampler{obs: []core.Observation{
			{Dst: netip.MustParseAddr("192.0.2.1"), Cwnd: 40},
			{Dst: netip.MustParseAddr("198.51.100.7"), Cwnd: 80},
		}},
		Routes: newRecordingRoutes(),
		Clock:  func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Tick(); err != nil {
		t.Fatal(err)
	}
	saved := time.Unix(1700000000, 0)
	if err := fleet.Save(path, fleet.FromAgent(first, "host-a", saved)); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Restarted incarnation, 10 seconds later.
	sampler := &countingSampler{}
	routes := newRecordingRoutes()
	second, err := core.New(core.Config{
		Sampler: sampler,
		Routes:  routes,
		Clock:   func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := warmStart(second, path, 0, saved.Add(10*time.Second))
	if err != nil {
		t.Fatalf("warmStart: %v", err)
	}
	if stats.Merged != 2 {
		t.Fatalf("merged %d entries, want 2 (stats %+v)", stats.Merged, stats)
	}

	// The routes are back and the sampler has not been consulted: the warm
	// start happened strictly before the first tick. The windows carry the
	// 10s staleness discount (half-life MaxAge/2 = 45s): the excess over
	// CMin=10 is scaled by 2^(-10/45) ≈ 0.857, so 40 → 36 and 80 → 70.
	if sampler.count() != 0 {
		t.Fatalf("sampler ran %d times during warm start", sampler.count())
	}
	if w, ok := routes.get(netip.MustParsePrefix("192.0.2.1/32")); !ok || w != 36 {
		t.Fatalf("route 192.0.2.1/32 = %d,%v; want 36,true", w, ok)
	}
	if w, ok := routes.get(netip.MustParsePrefix("198.51.100.7/32")); !ok || w != 70 {
		t.Fatalf("route 198.51.100.7/32 = %d,%v; want 70,true", w, ok)
	}
	if w, ok := second.Lookup(netip.MustParseAddr("192.0.2.1")); !ok || w != 36 {
		t.Fatalf("Lookup = %d,%v; want 36,true", w, ok)
	}
}

func TestWarmStartMissingFileIsCold(t *testing.T) {
	agent := newTestAgent(t)
	stats, err := warmStart(agent, filepath.Join(t.TempDir(), "nope.json"), 0, time.Now())
	if err != nil {
		t.Fatalf("warmStart on missing file: %v", err)
	}
	if stats.Merged != 0 {
		t.Fatalf("stats = %+v, want nothing merged", stats)
	}
}

// TestWarmStartAgesEntriesByDowntime: a snapshot saved long before the
// restart is judged by its true staleness — entries past MaxAge are
// rejected rather than resurrected.
func TestWarmStartAgesEntriesByDowntime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	first := newTestAgent(t)
	if err := first.Tick(); err != nil {
		t.Fatal(err)
	}
	saved := time.Unix(1700000000, 0)
	if err := fleet.Save(path, fleet.FromAgent(first, "host-a", saved)); err != nil {
		t.Fatal(err)
	}

	second := newTestAgent(t)
	// Restart two hours later: far beyond the default 90s TTL.
	stats, err := warmStart(second, path, 0, saved.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("warmStart: %v", err)
	}
	if stats.Merged != 0 || stats.SkippedStale != 1 {
		t.Fatalf("stats = %+v, want everything skipped as stale", stats)
	}
}

// TestRunWritesSnapshotOnShutdown drives the real daemon (dry-run routes,
// real netlink sampling) and checks the final snapshot lands on disk at exit.
func TestRunWritesSnapshotOnShutdown(t *testing.T) {
	requireNetlink(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	err := run([]string{"-dry-run", "-run-for", "150ms", "-interval", "20ms",
		"-snapshot-file", path, "-snapshot-interval", "1h"})
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	if _, _, err := fleet.Load(path, time.Now()); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
}

// TestRunStartsColdFromRetiredSnapshot: a snapshot file in a retired wire
// version (golden bytes a v2 build wrote) is logged, not merged, and the
// daemon runs cold — then replaces the file with a current one at exit.
func TestRunStartsColdFromRetiredSnapshot(t *testing.T) {
	requireNetlink(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	v2 := `{"version":2,"source":"old","createdUnixNano":1700000000000000000,` +
		`"entries":[{"prefix":"192.0.2.1/32","window":40,"samples":9,"ageNanos":1000000000}]}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	logged := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		logged <- string(out)
	}()
	err = run([]string{"-dry-run", "-run-for", "150ms", "-interval", "20ms",
		"-snapshot-file", path, "-snapshot-interval", "1h"})
	os.Stderr = stderr
	w.Close()
	out := <-logged
	if err != nil {
		t.Fatalf("daemon with a v2 snapshot file: %v", err)
	}
	if !strings.Contains(out, "warm start: riptide/fleet: snapshot version 2, want 3 (starting cold)") {
		t.Errorf("log does not report the cold start:\n%s", out)
	}
	if strings.Contains(out, "192.0.2.1") {
		t.Errorf("the v2 snapshot's entry reached the routes:\n%s", out)
	}
	if snap, _, err := fleet.Load(path, time.Now()); err != nil || snap.Version != fleet.Version {
		t.Fatalf("snapshot file after the run: %+v, %v; want a current one", snap, err)
	}
}

// TestRunWithDeadPeerExits: a configured peer that is down must not stall
// the daemon or its shutdown.
func TestRunWithDeadPeerExits(t *testing.T) {
	requireNetlink(t)
	err := run([]string{"-dry-run", "-run-for", "150ms", "-interval", "20ms",
		"-peers", "127.0.0.1:1", "-peer-interval", "50ms", "-peer-timeout", "100ms"})
	if err != nil {
		t.Fatalf("daemon with dead peer: %v", err)
	}
}

func TestStatusServesFleetSnapshot(t *testing.T) {
	agent := newTestAgent(t)
	if err := agent.Tick(); err != nil {
		t.Fatal(err)
	}
	h := newStatusHandler(agent, nil, &fleetState{Source: "host-a"}, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet/snapshot", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	snap, err := fleet.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if snap.Source != "host-a" || len(snap.Entries) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestStatusIncludesPeerHealth(t *testing.T) {
	agent := newTestAgent(t)
	puller, err := fleet.NewPuller(fleet.PullerConfig{
		Agent:   agent,
		Peers:   []string{"127.0.0.1:1"}, // nothing listens here
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	puller.PullOnce(context.Background())

	h := newStatusHandler(agent, nil, &fleetState{Source: "host-a", Puller: puller}, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var payload statusPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Fleet == nil || payload.Fleet.Source != "host-a" {
		t.Fatalf("fleet section = %+v", payload.Fleet)
	}
	if len(payload.Fleet.Peers) != 1 || payload.Fleet.Peers[0].Healthy {
		t.Fatalf("peers = %+v, want one unhealthy peer", payload.Fleet.Peers)
	}

	// Without fleet wiring the section is omitted.
	h = newStatusHandler(agent, nil, nil, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var bare map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare["fleet"]; ok {
		t.Error("fleet key present without fleet wiring")
	}
}
