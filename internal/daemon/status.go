package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
	"riptide/internal/guard"
	"riptide/internal/metrics"
)

// StatusPayload is the JSON document served at /status. Fleet is present
// when peers are configured, Guard when the governor is on.
type StatusPayload struct {
	Entries []core.Entry    `json:"entries"`
	Stats   core.Stats      `json:"stats"`
	Retry   core.RetryStats `json:"retry"`
	Fleet   *fleetPayload   `json:"fleet,omitempty"`
	Guard   *guardPayload   `json:"guard,omitempty"`
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

// MetricsPayload is the JSON document served at /metrics.json:
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
type MetricsPayload struct {
	Stats   core.Stats       `json:"stats"`
	Retry   core.RetryStats  `json:"retry"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// Handler serves the daemon's status surface: GET /status (JSON), /metrics
// (Prometheus text), /metrics.json (full JSON snapshot), /healthz (200 once
// ticking), and the fleet endpoints /fleet/snapshot and /fleet/delta from
// the daemon's one response-cache server. Every call returns the same
// handler.
func (d *Daemon) Handler() http.Handler {
	d.handlerOnce.Do(func() { d.handler = d.newHandler() })
	return d.handler
}

func (d *Daemon) newHandler() http.Handler {
	agent := d.Agent
	fleetStatus := func() *fleetPayload {
		if d.puller == nil {
			return nil
		}
		stats := d.server.Stats()
		return &fleetPayload{Source: d.cfg.Source, Peers: d.puller.Health(), Serve: &stats}
	}
	guardStatus := func() *guardPayload {
		if d.gov == nil {
			return nil
		}
		p := &guardPayload{Status: d.gov.Status(), Quarantines: []quarantinePayload{}}
		for _, q := range d.gov.Quarantines() {
			p.Quarantines = append(p.Quarantines, quarantinePayload{Prefix: q.Prefix.String(), Age: q.Age.String()})
		}
		return p
	}
	mux := http.NewServeMux()
	mux.Handle(fleet.SnapshotPath, d.server.SnapshotHandler())
	mux.Handle(fleet.DeltaPath, d.server.DeltaHandler())
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := StatusPayload{
			Entries: agent.Entries(),
			Stats:   agent.Stats(),
			Retry:   d.retry.Stats(),
			Fleet:   fleetStatus(),
			Guard:   guardStatus(),
		}
		if payload.Entries == nil {
			payload.Entries = []core.Entry{}
		}
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, agent)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		payload := MetricsPayload{
			Stats:   agent.Stats(),
			Retry:   d.retry.Stats(),
			Metrics: agent.Metrics().Snapshot(),
		}
		_ = json.NewEncoder(w).Encode(payload)
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
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(w, "# TYPE %s_total counter\n%s_total %d\n", name, name, snap.Counters[name])
	}

	for _, name := range sortedKeys(snap.Histograms) {
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
