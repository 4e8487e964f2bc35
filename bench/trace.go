package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"riptide/internal/core"
)

// span is one timed interval at a layer boundary. Spans of one round share
// its round number; parent is the id of the span that caused this one (0 for
// a round's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names: the layer (module) before the dot.
const (
	spanRound       = "round"
	spanTick        = "core.tick"
	spanSample      = "netlink.sample"
	spanRetry       = "core.retry"
	spanProgram     = "netlink.program"
	spanPull        = "fleet.pull"
	spanRoundTrip   = "fleet.roundtrip"
	spanServe       = "fleet.serve"
	spanPeerRetry   = "core.peer_retry"
	spanPeerProgram = "netlink.peer_program"
	spanPeerTick    = "core.peer_tick"
	spanBuild       = "cdn.build"
	spanRun         = "cdn.run"
)

// tracer records spans in memory while on. Every wrapper below is a plain
// pass-through while it is off, so one rig serves both the untraced passes
// (end-to-end numbers) and the traced pass (per-layer numbers).
//
// A round runs on one goroutine except for the fleet handler, which runs on
// the HTTP server's goroutine while the puller blocks in RoundTrip; spans
// therefore nest strictly in time and one open-span stack gives each span
// its parent. The mutex orders the two goroutines for the race detector.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	round int
	open  []int // indices into spans
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 while the tracer is off.
// Only a round opens a root span: what the wrappers see between rounds
// (closing a box withdraws its routes) is the benchmark's own work.
func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	} else if name != spanRound {
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Round: t.round, Name: name, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	if n := len(t.open); n > 0 && t.open[n-1] == i {
		t.open = t.open[:n-1]
	}
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// write stores the spans as bench/out/<workload>.trace.json.
func (t *tracer) write(dir, workload string, prov provenance) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanTotals aggregates spans by name over rounds [from, to).
type spanTotals struct {
	dur, self map[string]int64
	count     map[string]int
}

// totals computes each span's self time — its duration minus the part its
// child spans cover — and sums durations and self times per name.
func (t *tracer) totals(from, to int) spanTotals {
	st := spanTotals{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Round < from || s.Round >= to {
			continue
		}
		d := s.End - s.Start
		st.dur[s.Name] += d
		st.self[s.Name] += d - children[s.ID]
		st.count[s.Name]++
	}
	return st
}

// tracedSampler wraps a core.ConnectionSampler.
type tracedSampler struct {
	inner core.ConnectionSampler
	t     *tracer
	socks uint64 // observations returned while tracing
}

func (s *tracedSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	i := s.t.begin(spanSample)
	obs, err := s.inner.SampleConnections(buf)
	s.t.end(i)
	if i >= 0 {
		s.socks += uint64(len(obs))
	}
	return obs, err
}

// tracedRoutes wraps a core.BatchRouteProgrammer; the rig places one on each
// side of the retry decorator.
type tracedRoutes struct {
	inner core.BatchRouteProgrammer
	t     *tracer
	name  string
	// ops and failed count route ops sent and non-nil acks, tracing or not:
	// a failed ack is a benchmark failure in every mode.
	ops, failed uint64
}

func (r *tracedRoutes) note(n int, errs ...error) {
	r.ops += uint64(n)
	for _, err := range errs {
		if err != nil {
			r.failed++
		}
	}
}

func (r *tracedRoutes) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	i := r.t.begin(r.name)
	err := r.inner.SetInitCwnd(prefix, cwnd)
	r.t.end(i)
	r.note(1, err)
	return err
}

func (r *tracedRoutes) ClearInitCwnd(prefix netip.Prefix) error {
	i := r.t.begin(r.name)
	err := r.inner.ClearInitCwnd(prefix)
	r.t.end(i)
	r.note(1, err)
	return err
}

func (r *tracedRoutes) ProgramRoutes(ops []core.RouteOp) []error {
	i := r.t.begin(r.name)
	errs := r.inner.ProgramRoutes(ops)
	r.t.end(i)
	r.note(len(ops), errs...)
	return errs
}

// tracedHandler wraps the fleet server's mux, which the rig swaps when box A
// starts a new life.
type tracedHandler struct {
	mux atomic.Pointer[http.ServeMux]
	t   *tracer
	// requests and bodyBytes count what was served while tracing. They are
	// written on the server goroutine and read by the driver between rounds.
	requests, bodyBytes atomic.Uint64
}

type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += uint64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mux := h.mux.Load()
	i := h.t.begin(spanServe)
	if i < 0 {
		mux.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	mux.ServeHTTP(cw, r)
	h.t.end(i)
	h.requests.Add(1)
	h.bodyBytes.Add(cw.n)
}

// teedBody is one response body as it crossed the wire.
type teedBody struct {
	path string
	gzip bool
	data []byte
}

// tracedTransport wraps the puller's http.RoundTripper. While tracing it
// reads the whole response before returning, so the round-trip span covers
// the handler span and the transfer, and keeps the bytes so the decode can
// be re-run and timed after the round.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
	teed  []teedBody
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := rt.t.begin(spanRoundTrip)
	resp, err := rt.inner.RoundTrip(req)
	if i < 0 || err != nil {
		rt.t.end(i)
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt.t.end(i)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	if resp.StatusCode == http.StatusOK {
		rt.teed = append(rt.teed, teedBody{req.URL.Path, resp.Header.Get("Content-Encoding") == "gzip", data})
	}
	return resp, nil
}
