package daemon

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/netlink"
)

var update = flag.Bool("update", false, "rewrite testdata/status.golden")

// Route protocols (the rtmsg proto field): riptide's routes are static.
const (
	rtprotBoot   = 3
	rtprotStatic = 4
)

var (
	dstA = netip.MustParseAddr("192.0.2.1")
	dstB = netip.MustParseAddr("198.51.100.7")
)

// logSink collects the daemon's log lines for a test to read.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// waitFor returns the first logged line containing substr, failing the test
// if none appears within five seconds.
func (l *logSink) waitFor(t *testing.T, substr string) string {
	t.Helper()
	return waitUntil(t, "a log line containing "+substr, func() (string, bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, line := range l.lines {
			if strings.Contains(line, substr) {
				return line, true
			}
		}
		return "", false
	})
}

// waitUntil polls cond until it reports true, failing the test after five
// seconds.
func waitUntil[T any](t *testing.T, what string, cond func() (T, bool)) T {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := cond(); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// kernel is an in-memory host: one MemConn answers sock_diag dumps and
// another rtnetlink, as two sockets would, so a broken route conversation
// cannot close the sampler's. Its main table holds a default route, which
// is not riptide's.
type kernel struct {
	diag, route netlink.MemConn
}

func newKernel(sockets ...core.Observation) *kernel {
	k := &kernel{}
	k.diag.Sockets = sockets
	k.route.InstalledRoutes = []netlink.RecordedRoute{{
		Prefix:  netip.MustParsePrefix("0.0.0.0/0"),
		Gateway: netip.MustParseAddr("10.0.0.1"),
		Proto:   rtprotBoot,
	}}
	return k
}

func (k *kernel) dial(proto int) (netlink.Conn, error) {
	if proto == netlink.ProtoSockDiag {
		return k.diag.Dialer()(proto)
	}
	return k.route.Dialer()(proto)
}

// testConfig is riptided's configuration over an in-memory kernel, with a
// fast tick and millisecond route retries.
func testConfig(k *kernel, logs *logSink) Config {
	return Config{
		Agent:     core.Config{UpdateInterval: 5 * time.Millisecond},
		Retry:     core.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		Reconcile: true,
		Dial:      k.dial,
		Logf:      logs.logf,
	}
}

// start runs d until the returned stop is called; stop returns Run's error.
func start(t *testing.T, d *Daemon) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- d.Run(ctx) }()
	return func() error {
		cancel()
		return <-errc
	}
}

func newDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// installed replays a MemConn's route messages into the routes they leave
// installed.
func installed(routes []netlink.RecordedRoute) map[netip.Prefix]int {
	set := make(map[netip.Prefix]int)
	for _, rt := range routes {
		if rt.Del {
			delete(set, rt.Prefix)
		} else {
			set[rt.Prefix] = rt.InitCwnd
		}
	}
	return set
}

// TestRunIntervalZeroVerbose: -interval 0 means the default i_u, so the
// verbose logger must not build a zero ticker, and the started line reports
// the values the agent runs with, not the raw flags.
func TestRunIntervalZeroVerbose(t *testing.T) {
	logs := &logSink{}
	cfg := testConfig(newKernel(), logs)
	cfg.Agent.UpdateInterval, cfg.Agent.TTL, cfg.Agent.Alpha, cfg.Verbose = 0, 0, 0, true
	stop := start(t, newDaemon(t, cfg))
	logs.waitFor(t, "started:")
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "started: i_u=1s ttl=1m30s alpha=0.75 ") {
		t.Errorf("started line does not report the agent's defaults:\n%s", logs)
	}
}

// TestReconcileBeforeWarmStart: a previous run's leftover route is withdrawn
// at startup, and only then is the snapshot file's route programmed, so the
// warm-started route survives the reconcile.
func TestReconcileBeforeWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	saved := time.Unix(1700000000, 0)
	first := newDaemon(t, testConfig(newKernel(core.Observation{Dst: dstB, Cwnd: 40}), &logSink{}))
	if err := first.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Save(path, fleet.FromAgent(first.Agent, "host-a", saved)); err != nil {
		t.Fatal(err)
	}

	stale := netip.PrefixFrom(dstA, 32)
	k := newKernel()
	k.route.InstalledRoutes = append(k.route.InstalledRoutes, netlink.RecordedRoute{Prefix: stale, InitCwnd: 80, Proto: rtprotStatic})
	logs := &logSink{}
	cfg := testConfig(k, logs)
	cfg.Agent.UpdateInterval = time.Hour
	cfg.SnapshotFile = path
	cfg.SnapshotInterval = time.Hour
	cfg.Now = func() time.Time { return saved }
	d := newDaemon(t, cfg)
	stop := start(t, d)
	// Nothing touches the kernel between the started line and the first
	// tick, an hour away.
	logs.waitFor(t, "started:")
	if w, ok := d.Agent.Lookup(dstB); !ok || w != 40 {
		t.Errorf("warm-started %v = %d,%v; want 40,true", dstB, w, ok)
	}
	want := []netlink.RecordedRoute{
		{Del: true, Prefix: stale},
		{Prefix: netip.PrefixFrom(dstB, 32), InitCwnd: 40},
	}
	if len(k.route.Routes) != len(want) {
		t.Fatalf("route messages at start = %+v, want %+v", k.route.Routes, want)
	}
	for i, w := range want {
		if got := k.route.Routes[i]; got.Del != w.Del || got.Prefix != w.Prefix || got.InitCwnd != w.InitCwnd {
			t.Errorf("route message %d = %+v, want %+v", i, got, w)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"reconcile: withdrew 1 stale riptide route(s)", "warm start: merged 1 entries, skipped 0 stale"} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, logs)
		}
	}
}

// TestRunProgramsEntries: the tick loop programs each learned destination
// with exactly the window the agent reports, through rtnetlink.
func TestRunProgramsEntries(t *testing.T) {
	k := newKernel(core.Observation{Dst: dstA, Cwnd: 64}, core.Observation{Dst: dstB, Cwnd: 30})
	d := newDaemon(t, testConfig(k, &logSink{}))
	stop := start(t, d)
	entries := waitUntil(t, "three ticks", func() ([]core.Entry, bool) {
		return d.Agent.Entries(), d.Agent.Stats().Ticks >= 3
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	last := make(map[netip.Prefix]int)
	for _, rt := range k.route.Routes {
		if !rt.Del {
			last[rt.Prefix] = rt.InitCwnd
		}
	}
	for _, e := range entries {
		if last[e.Prefix] != e.Window {
			t.Errorf("%v programmed initcwnd %d, agent reports %d", e.Prefix, last[e.Prefix], e.Window)
		}
	}
}

// TestRunRetryFallbackClears: a destination whose route the kernel keeps
// refusing exhausts -route-failure-budget and is withdrawn: riptided's retry
// decorator is wired, with the configured attempts and budget.
func TestRunRetryFallbackClears(t *testing.T) {
	failing := netip.PrefixFrom(dstA, 32)
	k := newKernel(core.Observation{Dst: dstA, Cwnd: 64}, core.Observation{Dst: dstB, Cwnd: 30})
	k.route.AckErrno = func(rt netlink.RecordedRoute, parsed bool) netlink.Errno {
		if !parsed {
			return netlink.EINVAL
		}
		if !rt.Del && rt.Prefix == failing {
			return netlink.EEXIST
		}
		return 0
	}
	cfg := testConfig(k, &logSink{})
	cfg.Retry.MaxAttempts = 2
	cfg.Retry.FailureBudget = 3
	d := newDaemon(t, cfg)
	fallbacks := func() uint64 { return d.Agent.Metrics().Snapshot().Counters["riptide_route_fallbacks"] }
	stop := start(t, d)
	waitUntil(t, "a fallback clear", func() (uint64, bool) { return fallbacks(), fallbacks() > 0 })
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// Each tick tries the destination once in the route batch, then
	// Retry.MaxAttempts times on its own; the budget counts exhausted ticks,
	// and the withdrawal follows the last one.
	sets := 0
	for _, rt := range k.route.Routes {
		if rt.Prefix != failing {
			continue
		}
		if rt.Del {
			break
		}
		sets++
	}
	if want := cfg.Retry.FailureBudget * (1 + cfg.Retry.MaxAttempts); sets != want {
		t.Errorf("%d refused programs of %v before the fallback clear, want %d", sets, failing, want)
	}
	var cleared bool
	for _, rt := range k.route.Routes {
		cleared = cleared || (rt.Del && rt.Prefix == failing)
	}
	if !cleared {
		t.Errorf("no fallback withdrawal of %v in %+v", failing, k.route.Routes)
	}
}

// heldConn passes its first free sock_diag requests through, then holds
// the next one until release is closed, closing held when it does.
type heldConn struct {
	netlink.Conn
	free          int
	held, release chan struct{}
}

func (h *heldConn) Send(req []byte) error {
	if h.free == 0 {
		close(h.held)
		<-h.release
	}
	h.free--
	return h.Conn.Send(req)
}

// TestRunShutdownSnapshotThenWithdraw: cancelling the context mid-tick lets
// the tick finish, writes the final snapshot with that tick's table, and
// only then does Close withdraw every route, leaving the kernel with no
// riptide route.
func TestRunShutdownSnapshotThenWithdraw(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	k := newKernel(core.Observation{Dst: dstA, Cwnd: 64})
	logs := &logSink{}
	cfg := testConfig(k, logs)
	cfg.SnapshotFile = path
	cfg.SnapshotInterval = time.Hour
	// The startup probe's two dumps (AF_INET, AF_INET6) pass; the first
	// tick's sample is held.
	diag := &heldConn{Conn: &k.diag, free: 2, held: make(chan struct{}), release: make(chan struct{})}
	cfg.Dial = func(proto int) (netlink.Conn, error) {
		if proto == netlink.ProtoSockDiag {
			return diag, nil
		}
		return k.dial(proto)
	}
	stop := start(t, newDaemon(t, cfg))
	<-diag.held
	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()
	time.Sleep(20 * time.Millisecond)
	if _, err := os.Stat(path); err == nil {
		t.Error("final snapshot written while the last tick was still sampling")
	}
	close(diag.release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	snap, _, err := fleet.Load(path, time.Now())
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if len(snap.Entries) != 1 || snap.Entries[0].Window != 64 {
		t.Errorf("final snapshot entries = %+v, want the last tick's 64", snap.Entries)
	}
	if left := installed(k.route.Routes); len(left) != 0 {
		t.Errorf("riptide routes left installed after shutdown: %v", left)
	}
	if !strings.Contains(logs.String(), "stopped:") {
		t.Errorf("no stopped line:\n%s", logs)
	}
}

// countingTransport counts the puller's requests and how many are in
// flight.
type countingTransport struct {
	total, inFlight atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.total.Add(1)
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestLifecycleRunJoinsEveryGoroutine: once Run returns, the status port
// refuses connections and the puller makes no further request to its peer.
func TestLifecycleRunJoinsEveryGoroutine(t *testing.T) {
	peer := newDaemon(t, testConfig(newKernel(core.Observation{Dst: dstB, Cwnd: 30}), &logSink{}))
	if err := peer.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	peerHandler := peer.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		peerHandler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	logs := &logSink{}
	transport := &countingTransport{}
	cfg := testConfig(newKernel(core.Observation{Dst: dstA, Cwnd: 64}), logs)
	cfg.StatusAddr = "127.0.0.1:0"
	cfg.Puller.Peers = []string{srv.URL}
	cfg.Puller.Interval = 5 * time.Millisecond
	cfg.Puller.Client = &http.Client{Transport: transport}
	d := newDaemon(t, cfg)
	stop := start(t, d)
	addr := regexp.MustCompile(`serving on (\S+)`).FindStringSubmatch(logs.waitFor(t, "status: serving on"))[1]
	waitUntil(t, "a merge from the peer", func() (bool, bool) { return true, d.Agent.Stats().FleetMerged > 0 })
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	if n := transport.inFlight.Load(); n != 0 {
		t.Errorf("%d peer requests still in flight after Run returned", n)
	}
	sent := transport.total.Load()
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("status port %s still accepts connections after Run returned", addr)
	}
	time.Sleep(10 * cfg.Puller.Interval)
	if n := transport.total.Load(); n != sent {
		t.Errorf("puller sent %d requests after Run returned", n-sent)
	}
	if n := served.Load(); n > sent {
		t.Errorf("peer served %d requests, more than the %d sent before Run returned", n, sent)
	}
}

// TestStatusGolden pins the /status body of a daemon with the governor and
// one peer, on a frozen clock.
func TestStatusGolden(t *testing.T) {
	k := newKernel(
		core.Observation{Dst: dstA, Cwnd: 64, SegsOut: 100},
		core.Observation{Dst: dstB, Cwnd: 30, SegsOut: 100},
		core.Observation{Dst: netip.MustParseAddr("203.0.113.9"), Cwnd: 48, SegsOut: 100},
	)
	cfg := testConfig(k, &logSink{})
	cfg.Guard = &guard.Config{}
	cfg.Puller.Peers = []string{"127.0.0.1:1"}
	cfg.Now = func() time.Time { return time.Unix(1700000000, 0) }
	d := newDaemon(t, cfg)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	host, _ := os.Hostname()
	got := bytes.ReplaceAll(rec.Body.Bytes(), []byte(fmt.Sprintf("%q", host)), []byte(`"HOST"`))
	golden := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/status body differs from %s:\ngot  %s\nwant %s", golden, got, want)
	}
}

// cancelConn passes every sock_diag request through and cancels a context on
// the request numbered at, counting from one.
type cancelConn struct {
	netlink.Conn
	sends, at int
	cancel    context.CancelFunc
}

func (c *cancelConn) Send(req []byte) error {
	if c.sends++; c.sends == c.at {
		c.cancel()
	}
	return c.Conn.Send(req)
}

// TestRunMatchesSteps: Run is the wall-clock loop around the steps a caller
// with its own clock drives. Over the same kernel, snapshot file and frozen
// clock, Start, n Ticks and Stop leave the same route messages, the same
// /status body, the same final snapshot file and the same log as a Run that
// ticks n times.
func TestRunMatchesSteps(t *testing.T) {
	now := time.Unix(1700000000, 0)
	seed := newDaemon(t, testConfig(newKernel(core.Observation{Dst: netip.MustParseAddr("203.0.113.9"), Cwnd: 48}), &logSink{}))
	if err := seed.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	warm := filepath.Join(t.TempDir(), "warm.json")
	if err := fleet.Save(warm, fleet.FromAgent(seed.Agent, "host-a", now.Add(-time.Minute))); err != nil {
		t.Fatal(err)
	}
	warmBytes, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		routes []netlink.RecordedRoute
		status []byte
		snap   []byte
		log    string
	}
	// drive runs one daemon over a fresh kernel; with run set, through Run,
	// cancelled during the last dump of tick n, else through the steps.
	drive := func(t *testing.T, ticks int, guarded, run bool) outcome {
		t.Helper()
		k := newKernel(core.Observation{Dst: dstA, Cwnd: 64, SegsOut: 100}, core.Observation{Dst: dstB, Cwnd: 30, SegsOut: 100})
		k.route.InstalledRoutes = append(k.route.InstalledRoutes, netlink.RecordedRoute{Prefix: netip.MustParsePrefix("192.0.2.77/32"), InitCwnd: 80, Proto: rtprotStatic})
		path := filepath.Join(t.TempDir(), "snapshot.json")
		if err := os.WriteFile(path, warmBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		logs := &logSink{}
		cfg := testConfig(k, logs)
		cfg.SnapshotFile = path
		cfg.SnapshotInterval = time.Hour
		cfg.Now = func() time.Time { return now }
		if guarded {
			cfg.Guard = &guard.Config{}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The startup probe and every tick dump AF_INET, then AF_INET6.
		diag := &cancelConn{Conn: &k.diag, at: 2 + 2*ticks, cancel: cancel}
		cfg.Dial = func(proto int) (netlink.Conn, error) {
			if proto == netlink.ProtoSockDiag {
				return diag, nil
			}
			return k.dial(proto)
		}
		d := newDaemon(t, cfg)
		if run {
			if err := d.Run(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			for range ticks {
				if err := d.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Stop(); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Agent.Stats().Ticks; got != uint64(ticks) {
			t.Fatalf("run=%v ticked %d times, want %d", run, got, ticks)
		}
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{routes: k.route.Routes, status: rec.Body.Bytes(), snap: snap, log: logs.String()}
	}

	for _, tc := range []struct {
		name    string
		ticks   int
		guarded bool
	}{
		{"start-stop", 0, false},
		{"one tick", 1, false},
		{"three ticks", 3, false},
		{"three ticks guarded", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := drive(t, tc.ticks, tc.guarded, false)
			run := drive(t, tc.ticks, tc.guarded, true)
			if !slices.Equal(run.routes, steps.routes) {
				t.Errorf("route messages differ:\nrun   %+v\nsteps %+v", run.routes, steps.routes)
			}
			if !bytes.Equal(run.status, steps.status) {
				t.Errorf("/status differs:\nrun   %s\nsteps %s", run.status, steps.status)
			}
			if !bytes.Equal(run.snap, steps.snap) {
				t.Errorf("final snapshot differs:\nrun   %s\nsteps %s", run.snap, steps.snap)
			}
			if run.log != steps.log {
				t.Errorf("log differs:\nrun\n%s\nsteps\n%s", run.log, steps.log)
			}
			if !strings.Contains(steps.log, "reconcile: withdrew 1") || !strings.Contains(steps.log, "warm start: merged 1") {
				t.Errorf("the start did not reconcile and warm-start:\n%s", steps.log)
			}
		})
	}
}

// TestLifecycleFailedStartReleases: a start whose probe fails leaves nothing
// to release: the retry context is cancelled and the sampler's socket, open
// once its own probe passed, is closed.
func TestLifecycleFailedStartReleases(t *testing.T) {
	for _, tc := range []struct {
		name        string
		breakKernel func(k *kernel)
		want        string
	}{
		{"sampler", func(k *kernel) { k.diag.RecvErr = errors.New("no sock_diag") }, "netlink sampler probe"},
		{"routes", func(k *kernel) { k.route.RecvErr = errors.New("no rtnetlink") }, "netlink routes probe"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(core.Observation{Dst: dstA, Cwnd: 64})
			tc.breakKernel(k)
			d := newDaemon(t, testConfig(k, &logSink{}))
			if err := d.Start(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start = %v, want a %s error", err, tc.want)
			}
			if d.retryCtx.Err() == nil {
				t.Error("the retry context outlives the failed start")
			}
			k.diag.RecvErr = nil
			if err := k.diag.Send(nil); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Errorf("the sampler's socket is still open after the failed start (send: %v)", err)
			}
		})
	}
}
