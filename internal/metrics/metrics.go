// Package metrics provides the lightweight instrumentation primitives the
// Riptide agent uses to observe its own behaviour in production: atomic
// counters and fixed-bucket latency histograms, grouped in a Registry that
// snapshots to a JSON-friendly document.
//
// The package is deliberately dependency-free and allocation-light: every
// Observe/Inc on a registered metric is a handful of atomic operations, so
// the hot tick path can record sample/program/tick durations without
// contending with the readers it was restructured to unblock.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefaultBuckets are the histogram upper bounds used when none are given:
// 500µs to 10s in roughly exponential steps, spanning in-memory sim ticks up
// to a kernel conversation hung until its 3s socket timeout.
var DefaultBuckets = []time.Duration{
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// Histogram counts duration observations into fixed buckets. All methods are
// safe for concurrent use.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram returns a histogram over the given bucket upper bounds
// (DefaultBuckets when none are given). Bounds are sorted and deduplicated.
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	sorted := append([]time.Duration(nil), bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	dedup := sorted[:0]
	for i, b := range sorted {
		if i == 0 || b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{
		bounds: dedup,
		counts: make([]atomic.Uint64, len(dedup)+1),
	}
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Bucket is one histogram bucket in a snapshot. UpperNanos is the bucket's
// inclusive upper bound in nanoseconds; -1 marks the +Inf bucket. Count is
// the number of observations in this bucket alone (not cumulative).
type Bucket struct {
	UpperNanos int64  `json:"upperNanos"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	SumNanos int64    `json:"sumNanos"`
	Buckets  []Bucket `json:"buckets"`
}

// Snapshot copies the histogram's current state. Concurrent observations may
// land between bucket reads; totals are therefore approximate under load,
// which is acceptable for operational metrics.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		Buckets:  make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		upper := int64(-1)
		if i < len(h.bounds) {
			upper = int64(h.bounds[i])
		}
		s.Buckets[i] = Bucket{UpperNanos: upper, Count: h.counts[i].Load()}
	}
	return s
}

// Registry holds named counters and histograms. The zero value is not
// usable; create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it with the given bounds
// (DefaultBuckets when none) on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds ...time.Duration) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = NewHistogram(bounds...)
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped for
// JSON encoding (the /metrics.json document's "metrics" section).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
