package main

import (
	"net/netip"
	"strings"
	"testing"

	"riptide/internal/netlink"
)

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

// requireNetlink skips a daemon-run test on hosts where the startup probe
// would fail: no NETLINK_SOCK_DIAG, or a sandbox that denies it.
func requireNetlink(t *testing.T) {
	t.Helper()
	s, err := netlink.NewSampler(netlink.SamplerConfig{})
	if err == nil {
		err = s.Probe()
		_ = s.Close()
	}
	if err != nil {
		t.Skipf("netlink sampling unavailable here: %v", err)
	}
}

// logCapture satisfies the dry-run printer.
type logCapture struct{ lines []string }

func (l *logCapture) Printf(format string, args ...any) {
	l.lines = append(l.lines, format)
	_ = args
}

func TestDryRunRoutesPrintInsteadOfExecute(t *testing.T) {
	cap := &logCapture{}
	d := dryRunRoutes{out: cap}
	p := netip.MustParsePrefix("10.0.0.127/32")
	if err := d.SetInitCwnd(p, 80); err != nil {
		t.Fatal(err)
	}
	if err := d.ClearInitCwnd(p); err != nil {
		t.Fatal(err)
	}
	if len(cap.lines) != 2 {
		t.Fatalf("lines = %v", cap.lines)
	}
	if !strings.Contains(cap.lines[0], "DRY-RUN ip route replace") {
		t.Errorf("set line = %q", cap.lines[0])
	}
	if !strings.Contains(cap.lines[1], "DRY-RUN ip route del") {
		t.Errorf("del line = %q", cap.lines[1])
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
	requireNetlink(t)
	err := run([]string{"-dry-run", "-run-for", "120ms", "-interval", "20ms", "-v"})
	if err != nil {
		t.Fatalf("dry-run daemon: %v", err)
	}
}

func TestRunWithStatusServer(t *testing.T) {
	requireNetlink(t)
	err := run([]string{"-dry-run", "-run-for", "150ms", "-interval", "20ms",
		"-status", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("daemon with status: %v", err)
	}
}
