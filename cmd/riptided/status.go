package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/metrics"
)

// statusPayload is the JSON document served at /status.
type statusPayload struct {
	Entries []core.Entry     `json:"entries"`
	Stats   core.Stats       `json:"stats"`
	Retry   *core.RetryStats `json:"retry,omitempty"`
	Fleet   *fleetPayload    `json:"fleet,omitempty"`
	Guard   *guardPayload    `json:"guard,omitempty"`
}

// guardPayload is the safety-governor section of /status: per-state
// destination counts plus every active quarantine.
type guardPayload struct {
	guard.Status
	Quarantines []quarantinePayload `json:"quarantines"`
}

type quarantinePayload struct {
	Prefix string `json:"prefix"`
	Age    string `json:"age"`
}

// fleetPayload is the fleet-sharing section of /status: who we are, how
// each configured peer is doing, and what the serving response cache did.
type fleetPayload struct {
	Source string             `json:"source,omitempty"`
	Peers  []fleet.PeerHealth `json:"peers"`
	Serve  *fleet.ServeStats  `json:"serve,omitempty"`
}

// metricsPayload is the JSON document served at /metrics.json:
//
//	{
//	  "stats":   { ...core.Stats: ticks, observations, routesSet, ... },
//	  "retry":   { ...core.RetryStats: attempts, retries, fallbacks, ... },
//	  "metrics": {
//	    "counters":   { "<name>": <uint64>, ... },
//	    "histograms": { "<name>": { "count": n, "sumNanos": ns,
//	                                "buckets": [ {"upperNanos": ns|-1, "count": n}, ... ] } }
//	  }
//	}
//
// Histogram bucket counts are per-bucket (not cumulative); upperNanos -1
// marks the +Inf bucket.
type metricsPayload struct {
	Stats   core.Stats       `json:"stats"`
	Retry   *core.RetryStats `json:"retry,omitempty"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// newStatusHandler serves the agent's learned entries and counters for
// operational visibility: /status (JSON), /metrics (Prometheus text),
// /metrics.json (full JSON snapshot), /healthz (200 once ticking), and
// /fleet/snapshot (the agent's learned table for fleet peers). retry may be
// nil when the daemon runs without the retry decorator; fl may be nil when
// fleet sharing is not configured; gov may be nil when the governor is off.
func newStatusHandler(agent *core.Agent, retry *core.RetryingRouteProgrammer, fl *fleetState, gov *guard.Governor) http.Handler {
	retryStats := func() *core.RetryStats {
		if retry == nil {
			return nil
		}
		s := retry.Stats()
		return &s
	}
	source, instance := "", ""
	var srv *fleet.Server
	if fl != nil {
		source = fl.Source
		instance = fl.Instance
		srv = fl.Server
	}
	if srv == nil {
		srv = fleet.NewServer(agent, source, instance, nil)
	}
	fleetStatus := func() *fleetPayload {
		if fl == nil || fl.Puller == nil {
			return nil
		}
		p := &fleetPayload{Source: fl.Source, Peers: fl.Puller.Health()}
		stats := srv.Stats()
		p.Serve = &stats
		return p
	}
	guardStatus := func() *guardPayload {
		if gov == nil {
			return nil
		}
		p := &guardPayload{Status: gov.Status(), Quarantines: []quarantinePayload{}}
		for _, q := range gov.Quarantines() {
			p.Quarantines = append(p.Quarantines, quarantinePayload{
				Prefix: q.Prefix.String(),
				Age:    q.Age.String(),
			})
		}
		return p
	}
	mux := http.NewServeMux()
	mux.Handle(fleet.SnapshotPath, srv.SnapshotHandler())
	mux.Handle(fleet.DeltaPath, srv.DeltaHandler())
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		payload := statusPayload{
			Entries: agent.Entries(),
			Stats:   agent.Stats(),
			Retry:   retryStats(),
			Fleet:   fleetStatus(),
			Guard:   guardStatus(),
		}
		if payload.Entries == nil {
			payload.Entries = []core.Entry{}
		}
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			// Headers already sent; nothing more to do.
			return
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, agent)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		payload := metricsPayload{
			Stats:   agent.Stats(),
			Retry:   retryStats(),
			Metrics: agent.Metrics().Snapshot(),
		}
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if agent.Stats().Ticks == 0 {
			http.Error(w, "no ticks yet", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// writeMetrics renders the agent's counters and gauges in Prometheus text
// exposition format, followed by everything in the shared metrics registry
// (latency histograms, retry counters).
func writeMetrics(w io.Writer, agent *core.Agent) {
	s := agent.Stats()
	counters := []struct {
		name, help string
		value      uint64
	}{
		{"riptide_ticks_total", "Algorithm 1 rounds executed", s.Ticks},
		{"riptide_observations_total", "Connections sampled across all rounds", s.Observations},
		{"riptide_routes_set_total", "initcwnd routes programmed", s.RoutesSet},
		{"riptide_routes_cleared_total", "initcwnd routes withdrawn", s.RoutesCleared},
		{"riptide_entries_expired_total", "Learned entries dropped by TTL", s.EntriesExpired},
		{"riptide_sample_errors_total", "Failed connection-table samples", s.SampleErrors},
		{"riptide_route_errors_total", "Failed route programming operations", s.RouteErrors},
		{"riptide_degraded_ticks_total", "Expiry-only ticks while the sampler breaker was open", s.DegradedTicks},
		{"riptide_breaker_opens_total", "Sampler circuit-breaker open transitions", s.BreakerOpens},
		{"riptide_guard_capped_total", "Route programs whose window the governor reduced", s.GuardCapped},
		{"riptide_guard_vetoed_total", "Route programs skipped on the governor's verdict", s.GuardVetoed},
		{"riptide_guard_quarantined_total", "Governor vetoes that were quarantine decisions", s.GuardQuarantined},
		{"riptide_guard_cleared_total", "Installed routes withdrawn on a governor veto", s.GuardCleared},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}
	fmt.Fprintf(w, "# HELP riptide_entries Learned destinations currently programmed\n# TYPE riptide_entries gauge\nriptide_entries %d\n", agent.Len())
	fmt.Fprintln(w, "# HELP riptide_entry_initcwnd Programmed initial window per destination")
	fmt.Fprintln(w, "# TYPE riptide_entry_initcwnd gauge")
	for _, e := range agent.Entries() {
		fmt.Fprintf(w, "riptide_entry_initcwnd{prefix=%q} %d\n", e.Prefix, e.Window)
	}
	writeRegistryMetrics(w, agent.Metrics().Snapshot())
}

// writeRegistryMetrics renders a metrics.Snapshot in Prometheus text format:
// counters gain a _total suffix; histograms emit cumulative _bucket series
// with le in seconds, plus _sum and _count.
func writeRegistryMetrics(w io.Writer, snap metrics.Snapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", name, name, snap.Counters[name])
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		cumulative := uint64(0)
		for _, b := range h.Buckets {
			cumulative += b.Count
			le := "+Inf"
			if b.UpperNanos >= 0 {
				le = fmt.Sprintf("%g", time.Duration(b.UpperNanos).Seconds())
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cumulative)
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(h.SumNanos).Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	}
}

// serveStatus runs the status endpoint until ctx is done. Errors other than
// a clean shutdown are returned.
func serveStatus(ctx context.Context, addr string, agent *core.Agent, retry *core.RetryingRouteProgrammer, fl *fleetState, gov *guard.Governor) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           newStatusHandler(agent, retry, fl, gov),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		<-done
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
