package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/netlink"
)

// kernel is an in-memory host: one MemConn answers sock_diag dumps and
// another rtnetlink, as two sockets would. Its main table holds a default
// route, which is not riptide's.
type kernel struct {
	diag, route netlink.MemConn
}

func newKernel(sockets ...core.Observation) *kernel {
	k := &kernel{}
	k.diag.Sockets = sockets
	k.route.InstalledRoutes = []netlink.RecordedRoute{{
		Prefix:  netip.MustParsePrefix("0.0.0.0/0"),
		Gateway: netip.MustParseAddr("10.0.0.1"),
		Proto:   3, // RTPROT_BOOT
	}}
	return k
}

func (k *kernel) dial(proto int) (netlink.Conn, error) {
	if proto == netlink.ProtoSockDiag {
		return k.diag.Dialer()(proto)
	}
	return k.route.Dialer()(proto)
}

// logSink collects the daemon's log lines.
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

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// config parses a command line exactly as run does, then points the
// daemon at the in-memory kernel k and its log at logs.
func config(t *testing.T, k *kernel, logs *logSink, args ...string) daemon.Config {
	t.Helper()
	var o options
	if err := o.parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := o.cfg
	cfg.Dial = k.dial
	cfg.Logf = logs.logf
	return cfg
}

func mustNew(t *testing.T, cfg daemon.Config) *daemon.Daemon {
	t.Helper()
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newDaemon builds riptided's daemon from a command line over k.
func newDaemon(t *testing.T, k *kernel, logs *logSink, args ...string) *daemon.Daemon {
	t.Helper()
	return mustNew(t, config(t, k, logs, args...))
}

// runFor runs riptided over k for d, as -run-for does, and returns its log.
func runFor(t *testing.T, k *kernel, d time.Duration, args ...string) (string, error) {
	t.Helper()
	logs := &logSink{}
	dmn := newDaemon(t, k, logs, args...)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := dmn.Run(ctx)
	return logs.String(), err
}

// start runs d until the returned stop, which returns Run's error.
func start(t *testing.T, d *daemon.Daemon) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- d.Run(ctx) }()
	return func() error {
		cancel()
		return <-errc
	}
}

func TestRunUnknownCombiner(t *testing.T) {
	if err := run([]string{"-combiner", "quantum"}); err == nil {
		t.Error("unknown combiner accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsBackendFlag: netlink is the only kernel backend, so there
// is no -backend flag, not even one accepting a single value.
func TestRunRejectsBackendFlag(t *testing.T) {
	err := run([]string{"-backend", "netlink", "-dry-run"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-backend accepted: %v", err)
	}
}

// TestUsageGolden pins riptided's flag surface: the -h text, captured from
// the binary before the daemon moved to internal/daemon.
func TestUsageGolden(t *testing.T) {
	fs := new(options).flags()
	var got bytes.Buffer
	fs.SetOutput(&got)
	if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "usage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("usage differs from testdata/usage.golden:\n%s", got.String())
	}
}

func TestDryRunRoutesPrintInsteadOfExecute(t *testing.T) {
	k := newKernel(core.Observation{Dst: netip.MustParseAddr("10.0.0.127"), Cwnd: 80})
	logs := &logSink{}
	d := newDaemon(t, k, logs, "-dry-run")
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := d.Agent.Close(); err != nil {
		t.Fatal(err)
	}
	want := "DRY-RUN ip route replace 10.0.0.127/32 proto static initcwnd 80\n" +
		"DRY-RUN ip route del 10.0.0.127/32 proto static"
	if logs.String() != want {
		t.Errorf("dry-run log = %q, want %q", logs.String(), want)
	}
	if len(k.route.Routes) != 0 {
		t.Errorf("dry run reached the kernel: %+v", k.route.Routes)
	}
}

func TestRunNetlinkBackendDryRun(t *testing.T) {
	// The daemon reaches the kernel only through netlink: on hosts without
	// NETLINK_SOCK_DIAG access a dry run must stop at the startup probe, and
	// anywhere else it must run to completion.
	err := run([]string{"-dry-run", "-run-for", "120ms", "-interval", "20ms"})
	if err != nil && !strings.Contains(err.Error(), "probe") {
		t.Fatalf("netlink dry-run daemon: %v", err)
	}
	if err != nil {
		t.Skipf("netlink unavailable here: %v", err)
	}
}

func TestRunDryRunForDuration(t *testing.T) {
	_, err := runFor(t, newKernel(), 120*time.Millisecond, "-dry-run", "-interval", "20ms", "-v")
	if err != nil {
		t.Fatalf("dry-run daemon: %v", err)
	}
}

// TestRunWithStatusServer scrapes /healthz on the live listener: 200 once
// the daemon has ticked.
func TestRunWithStatusServer(t *testing.T) {
	logs := &logSink{}
	d := newDaemon(t, newKernel(), logs, "-dry-run", "-interval", "20ms", "-status", "127.0.0.1:0")
	stop := start(t, d)
	var addr string
	serving := regexp.MustCompile(`status: serving on (\S+)`)
	waitFor(t, "the status listener", func() bool {
		m := serving.FindStringSubmatch(logs.String())
		if m != nil {
			addr = m[1]
		}
		return m != nil
	})
	waitFor(t, "/healthz to answer 200", func() bool {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if err := stop(); err != nil {
		t.Fatalf("daemon with status: %v", err)
	}
}
