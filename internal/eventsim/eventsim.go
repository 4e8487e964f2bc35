// Package eventsim provides a deterministic discrete-event simulation engine:
// a virtual clock and an ordered event queue. All higher-level simulation
// packages (tcpsim, netsim, cdn) schedule their work through an Engine, so an
// entire multi-hour CDN evaluation executes in milliseconds of real time and
// replays identically for a given seed.
package eventsim

import (
	"errors"
	"fmt"
	"time"
)

// ErrNegativeDelay is returned when scheduling an event in the past.
var ErrNegativeDelay = errors.New("eventsim: negative delay")

// Event is a handle to a scheduled callback. Cancel prevents a pending event
// from firing; cancelling an already-fired or already-cancelled event is a
// no-op.
type Event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	queued    bool // in the engine's queue, fired or reaped when it leaves
	cancelled bool
}

// NewEvent returns an unscheduled event that runs fn every time it fires.
// It serves callers that fire one callback over and over with at most one
// firing pending — a connection's RTT rounds, a ticker — which arm it with
// Engine.Reschedule instead of allocating an event and a closure per firing.
func NewEvent(fn func()) *Event {
	return &Event{fn: fn}
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending.
func (ev *Event) Cancel() bool {
	if ev == nil || !ev.queued || ev.cancelled {
		return false
	}
	ev.cancelled = true
	return true
}

// Time returns the simulated time the event is (or was) scheduled for.
func (ev *Event) Time() time.Duration { return ev.at }

// before orders events by time, FIFO among simultaneous ones.
func (ev *Event) before(other *Event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is a binary min-heap on (at, seq). The order is total, so the
// pop sequence does not depend on the heap's shape.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine. Engine is not safe for concurrent use: the whole
// point is single-threaded determinism.
type Engine struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time (elapsed since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Fired reports how many events have executed, a cheap progress/debug metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay of simulated time. It returns a cancellable
// handle, or an error for negative delays. A zero delay fires after the
// currently executing event, in scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) (*Event, error) {
	if delay < 0 {
		return nil, ErrNegativeDelay
	}
	if fn == nil {
		return nil, errors.New("eventsim: nil callback")
	}
	ev := &Event{fn: fn}
	e.Reschedule(ev, delay)
	return ev, nil
}

// Reschedule queues ev to fire after delay, taking the next sequence number
// exactly as Schedule does. ev must not be pending and delay must not be
// negative: both are bugs in the caller, and Reschedule panics on them.
func (e *Engine) Reschedule(ev *Event, delay time.Duration) {
	if delay < 0 {
		panic(ErrNegativeDelay)
	}
	if ev.queued {
		panic("eventsim: rescheduled an event that is still queued")
	}
	ev.at, ev.seq = e.now+delay, e.seq
	ev.queued, ev.cancelled = true, false
	e.seq++
	e.queue.push(ev)
}

// MustSchedule is Schedule for static non-negative delays; it panics on
// error and is intended for internal simulation plumbing where a failure is
// a programming bug.
func (e *Engine) MustSchedule(delay time.Duration, fn func()) *Event {
	ev, err := e.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step fires the next event. It reports false when the queue is empty or
// only cancelled events remain.
func (e *Engine) step(limit time.Duration, bounded bool) bool {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if bounded && next.at > limit {
			return false
		}
		e.queue.pop()
		next.queued = false
		if next.cancelled {
			continue
		}
		if next.at > e.now {
			e.now = next.at
		}
		e.fired++
		next.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. The clock
// ends at the time of the last fired event.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(0, false) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t time.Duration) {
	e.stopped = false
	for !e.stopped && e.step(t, true) {
	}
	if t > e.now {
		e.now = t
	}
}

// Ticker invokes a callback at a fixed simulated interval until stopped,
// mirroring Riptide's i_u poll loop.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       func(now time.Duration)
	ev       *Event // the one tick event, re-armed after every firing
	stopped  bool
}

// NewTicker schedules fn every interval, first firing one interval from now.
func NewTicker(engine *Engine, interval time.Duration, fn func(now time.Duration)) (*Ticker, error) {
	if engine == nil {
		return nil, errors.New("eventsim: nil engine")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("eventsim: ticker interval %v must be positive", interval)
	}
	if fn == nil {
		return nil, errors.New("eventsim: nil ticker callback")
	}
	t := &Ticker{engine: engine, interval: interval, fn: fn}
	t.ev = NewEvent(t.tick)
	engine.Reschedule(t.ev, interval)
	return t, nil
}

func (t *Ticker) tick() {
	t.fn(t.engine.Now())
	if !t.stopped {
		t.engine.Reschedule(t.ev, t.interval)
	}
}

// Stop halts future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}
