package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

func TestHandlerServesSnapshot(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	srv := httptest.NewServer(NewServer(a, "host-a", "", func() time.Time { return time.Unix(1700000000, 0) }).SnapshotHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf [1 << 16]byte
	n, _ := resp.Body.Read(buf[:])
	snap, err := Decode(buf[:n])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(snap.Entries) != 1 || snap.Entries[0].Prefix != "192.0.2.1/32" || snap.Source != "host-a" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHandlerRejectsNonGET(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	srv := httptest.NewServer(NewServer(a, "", "", nil).SnapshotHandler())
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %s, want 405", resp.Status)
	}
}

func TestPullerMergesFromPeer(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{
		obs(t, "192.0.2.1", 40),
		obs(t, "198.51.100.7", 80),
	})
	srv := gossipServer(src, "host-a", "boot-1")
	defer srv.Close()

	dst, dstRoutes, _ := newTestAgent(t, nil)
	p, err := NewPuller(PullerConfig{Agent: dst, Peers: []string{srv.URL}})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}

	if merged := p.PullOnce(context.Background()); merged != 2 {
		t.Fatalf("PullOnce merged %d, want 2", merged)
	}
	if dstRoutes.count() != 2 {
		t.Fatalf("routes programmed = %d, want 2", dstRoutes.count())
	}
	h := p.Health()
	if len(h) != 1 || !h[0].Healthy || h[0].Pulls != 1 || h[0].Merged != 2 {
		t.Fatalf("health = %+v", h)
	}

	// A second pull finds the same entries already present locally: nothing
	// new merges, the peer stays healthy.
	if merged := p.PullOnce(context.Background()); merged != 0 {
		t.Fatalf("second PullOnce merged %d, want 0", merged)
	}
	if h := p.Health(); !h[0].Healthy || h[0].Pulls != 2 {
		t.Fatalf("health after second pull = %+v", h)
	}
}

func TestPullerPeerDownDegradesToLocalOnly(t *testing.T) {
	// A peer that is down: the server is closed before the first pull.
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()

	sampler := &stubSampler{obs: []core.Observation{obs(t, "192.0.2.1", 40)}}
	clk := &simClock{}
	routes := newMemRoutes()
	a, err := core.New(core.Config{Sampler: sampler, Routes: routes, Clock: clk.Now})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}

	now := time.Unix(1700000000, 0)
	p, err := NewPuller(PullerConfig{
		Agent:    a,
		Peers:    []string{url},
		Interval: 10 * time.Second,
		Timeout:  time.Second,
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}

	start := time.Now()
	if merged := p.PullOnce(context.Background()); merged != 0 {
		t.Fatalf("PullOnce merged %d from a dead peer", merged)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("pull from dead peer took %v", took)
	}
	h := p.Health()
	if len(h) != 1 || h[0].Healthy || h[0].Failures != 1 || h[0].LastError == "" {
		t.Fatalf("health = %+v, want unhealthy with 1 failure", h)
	}

	// Local operation is unaffected: the agent still ticks and learns.
	if err := a.Tick(); err != nil {
		t.Fatalf("Tick with dead peer: %v", err)
	}
	if _, ok := routes.get(pfx(t, "192.0.2.1/32")); !ok {
		t.Fatal("local learning did not program the route")
	}

	// Backoff: the peer is not retried until its backoff lapses.
	if merged := p.PullOnce(context.Background()); merged != 0 {
		t.Fatal("backoff did not suppress the retry")
	}
	if h := p.Health(); h[0].Failures != 1 {
		t.Fatalf("peer retried during backoff: %+v", h[0])
	}
	now = now.Add(11 * time.Second) // past the 10s backoff
	p.PullOnce(context.Background())
	if h := p.Health(); h[0].Failures != 2 {
		t.Fatalf("peer not retried after backoff: %+v", h[0])
	}
}

func TestPullerBackoffGrowsAndCaps(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	p, err := NewPuller(PullerConfig{
		Agent:      a,
		Interval:   10 * time.Second,
		MaxBackoff: 40 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second, 40 * time.Second}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestPullerRejectsMalformedSnapshot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version": 99}`))
	}))
	defer srv.Close()

	a, routes, _ := newTestAgent(t, nil)
	p, err := NewPuller(PullerConfig{Agent: a, Peers: []string{srv.URL}})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	if merged := p.PullOnce(context.Background()); merged != 0 {
		t.Fatalf("merged %d from malformed snapshot", merged)
	}
	if routes.count() != 0 {
		t.Fatal("malformed snapshot programmed routes")
	}
	if h := p.Health(); h[0].Healthy {
		t.Fatalf("peer serving garbage reported healthy: %+v", h[0])
	}
}

func TestPullerRunStopsOnCancel(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	p, err := NewPuller(PullerConfig{Agent: a, Interval: time.Millisecond})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestNewPullerValidation(t *testing.T) {
	if _, err := NewPuller(PullerConfig{}); err == nil {
		t.Fatal("NewPuller accepted nil Agent")
	}
	a, _, _ := newTestAgent(t, nil)
	if _, err := NewPuller(PullerConfig{Agent: a, Interval: -time.Second}); err == nil {
		t.Fatal("NewPuller accepted negative interval")
	}
	// Blank peer specs are dropped.
	p, err := NewPuller(PullerConfig{Agent: a, Peers: []string{"", "  ", "peer:1"}})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	if h := p.Health(); len(h) != 1 {
		t.Fatalf("peers = %+v, want 1", h)
	}
	// The three accepted spellings of one peer pull the same base; a
	// custom path is refused with the peer named, not kept unpullable.
	p, err = NewPuller(PullerConfig{Agent: a, Peers: []string{"peer:1", "http://peer:2/", "http://peer:3/fleet/snapshot"}})
	if err != nil {
		t.Fatalf("NewPuller: %v", err)
	}
	for i, h := range p.Health() {
		if want := fmt.Sprintf("http://peer:%d", i+1); h.URL != want {
			t.Errorf("peer %d URL = %q, want %q", i, h.URL, want)
		}
	}
	if _, err := NewPuller(PullerConfig{Agent: a, Peers: []string{"peer:1", "http://peer:2/custom/path"}}); err == nil ||
		!strings.Contains(err.Error(), "http://peer:2/custom/path") {
		t.Fatalf("NewPuller with a custom-path peer: %v, want an error naming it", err)
	}
}
