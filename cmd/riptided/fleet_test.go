package main

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/fleet"
)

// programmed returns the windows a kernel's route messages left installed.
func programmed(k *kernel) map[netip.Prefix]int {
	set := make(map[netip.Prefix]int)
	for _, rt := range k.route.Routes {
		if rt.Del {
			delete(set, rt.Prefix)
		} else {
			set[rt.Prefix] = rt.InitCwnd
		}
	}
	return set
}

// startAt runs riptided over k on a wall clock frozen at now, with a tick an
// hour away, and returns once it has started: whatever it programmed by
// then, it programmed before the first tick.
func startAt(t *testing.T, k *kernel, now time.Time, args ...string) (*daemon.Daemon, *logSink, func() error) {
	t.Helper()
	logs := &logSink{}
	cfg := config(t, k, logs, append([]string{"-interval", "1h"}, args...)...)
	cfg.Now = func() time.Time { return now }
	d := mustNew(t, cfg)
	stop := start(t, d)
	waitFor(t, "the started line", func() bool { return strings.Contains(logs.String(), "started:") })
	return d, logs, stop
}

// TestWarmStartProgramsRoutesBeforeFirstTick is the restart acceptance
// test: an agent learns routes and persists a snapshot; a second agent
// (the restarted daemon) warm-starts from the file and has the routes
// programmed though it has never ticked.
func TestWarmStartProgramsRoutesBeforeFirstTick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")

	// First incarnation: learn two destinations, persist, "crash".
	first := newDaemon(t, newKernel(
		core.Observation{Dst: netip.MustParseAddr("192.0.2.1"), Cwnd: 40},
		core.Observation{Dst: netip.MustParseAddr("198.51.100.7"), Cwnd: 80}), &logSink{})
	if err := first.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	saved := time.Unix(1700000000, 0)
	if err := fleet.Save(path, fleet.FromAgent(first.Agent, "host-a", saved)); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Restarted incarnation, 10 seconds later.
	k := newKernel()
	d, logs, stop := startAt(t, k, saved.Add(10*time.Second), "-snapshot-file", path)
	if !strings.Contains(logs.String(), "warm start: merged 2 entries") {
		t.Fatalf("log does not report the warm start:\n%s", logs)
	}

	// The routes are back and no tick has run: the warm start happened
	// strictly before the first tick. The windows carry the 10s staleness
	// discount (half-life MaxAge/2 = 45s): the excess over CMin=10 is
	// scaled by 2^(-10/45) ≈ 0.857, so 40 → 36 and 80 → 70.
	if n := d.Agent.Stats().Ticks; n != 0 {
		t.Fatalf("%d ticks ran during warm start", n)
	}
	routes := programmed(k)
	if w, ok := routes[netip.MustParsePrefix("192.0.2.1/32")]; !ok || w != 36 {
		t.Fatalf("route 192.0.2.1/32 = %d,%v; want 36,true", w, ok)
	}
	if w, ok := routes[netip.MustParsePrefix("198.51.100.7/32")]; !ok || w != 70 {
		t.Fatalf("route 198.51.100.7/32 = %d,%v; want 70,true", w, ok)
	}
	if w, ok := d.Agent.Lookup(netip.MustParseAddr("192.0.2.1")); !ok || w != 36 {
		t.Fatalf("Lookup = %d,%v; want 36,true", w, ok)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartMissingFileIsCold(t *testing.T) {
	k := newKernel()
	d, logs, stop := startAt(t, k, time.Now(), "-snapshot-file", filepath.Join(t.TempDir(), "nope.json"))
	if strings.Contains(logs.String(), "warm start") {
		t.Errorf("missing snapshot file logged a warm start:\n%s", logs)
	}
	if n := d.Agent.Len(); n != 0 {
		t.Fatalf("%d entries after a cold start, want none", n)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartAgesEntriesByDowntime: a snapshot saved long before the
// restart is judged by its true staleness — entries past MaxAge are
// rejected rather than resurrected.
func TestWarmStartAgesEntriesByDowntime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	first := newTestDaemon(t)
	if err := first.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	saved := time.Unix(1700000000, 0)
	if err := fleet.Save(path, fleet.FromAgent(first.Agent, "host-a", saved)); err != nil {
		t.Fatal(err)
	}

	// Restart two hours later: far beyond the default 90s TTL.
	k := newKernel()
	_, logs, stop := startAt(t, k, saved.Add(2*time.Hour), "-snapshot-file", path)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "warm start: merged 0 entries, skipped 1 stale") {
		t.Fatalf("log does not report everything skipped as stale:\n%s", logs)
	}
	if len(k.route.Routes) != 0 {
		t.Fatalf("stale entries reached the kernel: %+v", k.route.Routes)
	}
}

// TestRunWritesSnapshotOnShutdown checks the final snapshot lands on disk
// at exit.
func TestRunWritesSnapshotOnShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	_, err := runFor(t, newKernel(), 150*time.Millisecond, "-dry-run", "-interval", "20ms",
		"-snapshot-file", path, "-snapshot-interval", "1h")
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
	path := filepath.Join(t.TempDir(), "snapshot.json")
	v2 := `{"version":2,"source":"old","createdUnixNano":1700000000000000000,` +
		`"entries":[{"prefix":"192.0.2.1/32","window":40,"samples":9,"ageNanos":1000000000}]}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runFor(t, newKernel(), 150*time.Millisecond, "-dry-run", "-interval", "20ms",
		"-snapshot-file", path, "-snapshot-interval", "1h")
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
	_, err := runFor(t, newKernel(), 150*time.Millisecond, "-dry-run", "-interval", "20ms",
		"-peers", "127.0.0.1:1", "-peer-interval", "50ms", "-peer-timeout", "100ms")
	if err != nil {
		t.Fatalf("daemon with dead peer: %v", err)
	}
}

func TestStatusServesFleetSnapshot(t *testing.T) {
	d := newTestDaemon(t)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet/snapshot", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	snap, err := fleet.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	host, _ := os.Hostname()
	if snap.Source != host || len(snap.Entries) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestStatusIncludesPeerHealth(t *testing.T) {
	logs := &logSink{}
	// Nothing listens on port 1: the boot pull fails.
	d := newDaemon(t, newKernel(), logs, "-dry-run", "-peers", "127.0.0.1:1", "-peer-timeout", "1s")
	stop := start(t, d)
	h := d.Handler()
	var payload daemon.StatusPayload
	waitFor(t, "a failed pull", func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatal(err)
		}
		return payload.Fleet != nil && len(payload.Fleet.Peers) == 1 && payload.Fleet.Peers[0].Failures > 0
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	if payload.Fleet == nil || payload.Fleet.Source != host {
		t.Fatalf("fleet section = %+v", payload.Fleet)
	}
	if len(payload.Fleet.Peers) != 1 || payload.Fleet.Peers[0].Healthy {
		t.Fatalf("peers = %+v, want one unhealthy peer", payload.Fleet.Peers)
	}

	// Without peers the section is omitted.
	rec := httptest.NewRecorder()
	newTestDaemon(t).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var bare map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare["fleet"]; ok {
		t.Error("fleet key present without peers")
	}
}
