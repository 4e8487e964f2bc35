package main

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"riptide/internal/core"
	"riptide/internal/daemon"
	"riptide/internal/netlink"
)

// newTestDaemon is riptided with the given flags over a kernel holding one
// connection to 10.0.0.7 at cwnd 64.
func newTestDaemon(t *testing.T, args ...string) *daemon.Daemon {
	t.Helper()
	k := newKernel(core.Observation{Dst: netip.MustParseAddr("10.0.0.7"), Cwnd: 64, SegsOut: 100})
	return newDaemon(t, k, &logSink{}, args...)
}

func TestStatusEndpoint(t *testing.T) {
	d := newTestDaemon(t)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	h := d.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status code = %d", rec.Code)
	}
	var payload daemon.StatusPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Entries) != 1 || payload.Entries[0].Window != 64 {
		t.Errorf("entries = %+v", payload.Entries)
	}
	if payload.Stats.Ticks != 1 {
		t.Errorf("stats = %+v", payload.Stats)
	}
}

func TestStatusMethodNotAllowed(t *testing.T) {
	h := newTestDaemon(t).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/status", nil))
	if rec.Code != 405 {
		t.Errorf("code = %d, want 405", rec.Code)
	}
}

func TestHealthzBeforeAndAfterTick(t *testing.T) {
	d := newTestDaemon(t)
	h := d.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("pre-tick healthz = %d, want 503", rec.Code)
	}

	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("post-tick healthz = %d, want 200", rec.Code)
	}
}

func TestStatusEmptyEntriesIsArray(t *testing.T) {
	h := newTestDaemon(t).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	body := rec.Body.String()
	if want := `"entries":[]`; !strings.Contains(body, want) {
		t.Errorf("body = %s, want %s", body, want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	d := newTestDaemon(t)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"riptide_ticks_total 1",
		"riptide_entries 1",
		`riptide_entry_initcwnd{prefix="10.0.0.7/32"} 64`,
		"# TYPE riptide_routes_set_total counter",
		"riptide_degraded_ticks_total 0",
		"riptide_breaker_opens_total 0",
		"# TYPE riptide_tick_duration histogram",
		`riptide_tick_duration_bucket{le="+Inf"} 1`,
		"riptide_tick_duration_count 1",
		"riptide_sample_duration_count 1",
		"riptide_program_duration_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsJSONEndpoint(t *testing.T) {
	// The kernel refuses the first two programs of 10.0.0.7: the tick's
	// route batch, then the decorator's first try of the route on its own.
	// One retry lands it.
	k := newKernel(core.Observation{Dst: netip.MustParseAddr("10.0.0.7"), Cwnd: 64})
	refusals := 2
	k.route.AckErrno = func(rt netlink.RecordedRoute, parsed bool) netlink.Errno {
		if !parsed {
			return netlink.EINVAL
		}
		if !rt.Del && refusals > 0 {
			refusals--
			return netlink.EEXIST
		}
		return 0
	}
	d := newDaemon(t, k, &logSink{}, "-retry-base", "1ms")
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}

	h := d.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var payload daemon.MetricsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Stats.Ticks != 1 {
		t.Errorf("stats = %+v", payload.Stats)
	}
	if payload.Retry.Retries != 1 || payload.Retry.Attempts != 3 {
		t.Errorf("retry stats = %+v", payload.Retry)
	}
	if got := payload.Metrics.Counters["riptide_route_retries"]; got != 1 {
		t.Errorf("riptide_route_retries = %d, want 1", got)
	}
	tick, ok := payload.Metrics.Histograms["riptide_tick_duration"]
	if !ok || tick.Count != 1 || len(tick.Buckets) == 0 {
		t.Errorf("tick histogram = %+v", tick)
	}
	if last := tick.Buckets[len(tick.Buckets)-1]; last.UpperNanos != -1 {
		t.Errorf("last bucket = %+v, want +Inf sentinel", last)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics.json", nil))
	if rec.Code != 405 {
		t.Errorf("POST code = %d, want 405", rec.Code)
	}
}

func TestStatusIncludesGuardSection(t *testing.T) {
	d := newTestDaemon(t, "-guard")
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var payload daemon.StatusPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Guard == nil || payload.Guard.Healthy != 1 {
		t.Errorf("guard section = %+v, want one healthy destination", payload.Guard)
	}
	if payload.Guard.Quarantines == nil {
		t.Error("quarantines must encode as [], not null")
	}

	// Without the governor the section is omitted entirely.
	rec = httptest.NewRecorder()
	newTestDaemon(t).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if strings.Contains(rec.Body.String(), `"guard"`) {
		t.Errorf("guard key present without governor: %s", rec.Body.String())
	}
}

func TestMetricsIncludeGuardCounters(t *testing.T) {
	d := newTestDaemon(t)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"riptide_guard_capped_total 0",
		"riptide_guard_vetoed_total 0",
		"riptide_guard_quarantined_total 0",
		"riptide_guard_cleared_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStatusIncludesRetryStats: riptided always programs routes through the
// retry decorator, so /status always carries its counters.
func TestStatusIncludesRetryStats(t *testing.T) {
	d := newTestDaemon(t)
	if err := d.Agent.Tick(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	var retry core.RetryStats
	if err := json.Unmarshal(payload["retry"], &retry); err != nil || retry.Attempts != 1 {
		t.Errorf("retry stats = %s (%v), want the decorator's one attempt", payload["retry"], err)
	}
}
