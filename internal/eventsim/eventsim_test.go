package eventsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(-time.Second, func() {}); err != ErrNegativeDelay {
		t.Errorf("negative delay err = %v, want ErrNegativeDelay", err)
	}
	if _, err := e.Schedule(time.Second, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestRunFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.MustSchedule(3*time.Second, func() { order = append(order, 3) })
	e.MustSchedule(1*time.Second, func() { order = append(order, 1) })
	e.MustSchedule(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", e.Fired())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.MustSchedule(time.Second, func() {
		times = append(times, e.Now())
		e.MustSchedule(2*time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Errorf("times = %v, want [1s 3s]", times)
	}
}

func TestZeroDelayFiresAtSameTime(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.MustSchedule(5*time.Second, func() {
		e.MustSchedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != 5*time.Second {
		t.Errorf("zero-delay event fired at %v, want 5s", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.MustSchedule(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Error("Cancel returned false for pending event")
	}
	if ev.Cancel() {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Errorf("Fired = %d, want 0", e.Fired())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ev := e.MustSchedule(time.Second, func() {})
	e.Run()
	if ev.Cancel() {
		t.Error("Cancel after firing returned true")
	}
}

func TestCancelNil(t *testing.T) {
	var ev *Event
	if ev.Cancel() {
		t.Error("Cancel on nil event returned true")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.MustSchedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2500*time.Millisecond {
		t.Errorf("Now = %v, want 2.5s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 4 {
		t.Errorf("after second RunUntil fired %d, want 4", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Errorf("Now = %v, want 1m", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.MustSchedule(time.Second, func() { count++; e.Stop() })
	e.MustSchedule(2*time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	// Run can resume afterwards.
	e.Run()
	if count != 2 {
		t.Errorf("count after resume = %d, want 2", count)
	}
}

func TestTickerValidation(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(nil, time.Second, func(time.Duration) {}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewTicker(e, 0, func(time.Duration) {}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewTicker(e, time.Second, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk, err := NewTicker(e, time.Second, func(now time.Duration) {
		ticks = append(ticks, now)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	e.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, want := range []time.Duration{1, 2, 3} {
		if ticks[i] != want*time.Second {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want*time.Second)
		}
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	e := NewEngine()
	tk, err := NewTicker(e, time.Second, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	tk.Stop() // must not panic
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk, err := NewTicker(e, time.Second, func(time.Duration) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(time.Minute)
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

// Property: whatever the scheduling order, events fire in (time, scheduling
// sequence) order — the order a stable sort of the schedule by time gives,
// which is what the heap.Interface queue this engine used to have produced.
// 1e5 events per seed, most of them scheduled while the engine runs, on a
// millisecond grid so that timestamps collide (zero delays included), with
// pending events cancelled from callbacks and some callbacks re-arming one
// reused event the way a connection's RTT rounds and a Ticker do.
func TestEventOrderingProperty(t *testing.T) {
	const total = 100_000
	type record struct {
		at        time.Duration
		cancelled bool
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var (
			schedule []record // indexed by scheduling sequence
			handles  []*Event // same index
			fired    []int
		)
		delay := func() time.Duration { return time.Duration(rng.Intn(40)) * time.Millisecond }
		var onFire func(id int)
		one := func() {
			id, d := len(schedule), delay()
			schedule = append(schedule, record{at: e.Now() + d})
			handles = append(handles, e.MustSchedule(d, func() { onFire(id) }))
		}
		// reused is the id of each reusable event's pending firing.
		reused := make(map[*Event]int)
		rearm := func(ev *Event) {
			id, d := len(schedule), delay()
			schedule = append(schedule, record{at: e.Now() + d})
			handles = append(handles, ev)
			reused[ev] = id
			e.Reschedule(ev, d)
		}
		onFire = func(id int) {
			fired = append(fired, id)
			for n := rng.Intn(3); n > 0 && len(schedule) < total; n-- {
				one()
			}
			if rng.Intn(8) == 0 {
				// Cancel something scheduled recently; it may have fired or
				// been cancelled already, and Cancel says which.
				victim := len(schedule) - 1 - rng.Intn(min(len(schedule), 64))
				h := handles[victim]
				if cur, ok := reused[h]; ok {
					victim = cur // a reused event's handle stands for its pending firing
				}
				if h.Cancel() {
					schedule[victim].cancelled = true
				}
			}
		}
		for i := 0; i < 32; i++ {
			var ev *Event
			ev = NewEvent(func() {
				onFire(reused[ev])
				if len(schedule) < total {
					rearm(ev)
				}
			})
			rearm(ev)
		}
		for len(schedule) < total/2 {
			one()
		}
		e.Run()
		// Keep the population up if the branching died out early.
		for len(schedule) < total {
			one()
			e.Run()
		}

		var want []int
		for id, r := range schedule {
			if !r.cancelled {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return schedule[want[i]].at < schedule[want[j]].at })
		if len(schedule) != total || uint64(len(want)) != e.Fired() || e.Pending() != 0 {
			t.Fatalf("seed %d: %d scheduled, %d expected to fire, Fired() = %d, Pending() = %d",
				seed, len(schedule), len(want), e.Fired(), e.Pending())
		}
		if !slices.Equal(fired, want) {
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("seed %d: firing %d was event %d (at %v), stable sort says %d (at %v)",
						seed, i, fired[i], schedule[fired[i]].at, want[i], schedule[want[i]].at)
				}
			}
		}
	}
}

// Property: the clock never runs backwards across RunUntil calls.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		e := NewEngine()
		last := time.Duration(0)
		target := time.Duration(0)
		for _, s := range steps {
			target += time.Duration(s) * time.Millisecond
			e.RunUntil(target)
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRescheduleReusesEvent(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	var ev *Event
	ev = NewEvent(func() {
		at = append(at, e.Now())
		if len(at) < 3 {
			e.Reschedule(ev, 10*time.Millisecond)
		}
	})
	if ev.Cancel() {
		t.Error("Cancel of a never-scheduled event = true")
	}
	e.Reschedule(ev, 5*time.Millisecond)
	e.Run()
	if want := []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond}; !slices.Equal(at, want) {
		t.Errorf("fired at %v, want %v", at, want)
	}
	if e.Fired() != 3 || e.Pending() != 0 {
		t.Errorf("Fired = %d, Pending = %d, want 3 and 0", e.Fired(), e.Pending())
	}
	if ev.Cancel() {
		t.Error("Cancel after the last firing = true")
	}

	// A cancelled firing is skipped; once reaped the event can be re-armed.
	e.Reschedule(ev, time.Millisecond)
	if !ev.Cancel() || ev.Cancel() {
		t.Error("Cancel of a pending firing must succeed exactly once")
	}
	e.Run()
	if len(at) != 3 {
		t.Errorf("cancelled firing ran: %v", at)
	}
	e.Reschedule(ev, time.Millisecond)
	e.Run()
	if len(at) != 4 {
		t.Errorf("re-armed event fired %d times in total, want 4", len(at))
	}
}

func TestRescheduleMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	ev := NewEvent(func() {})
	mustPanic("negative delay", func() { e.Reschedule(ev, -time.Nanosecond) })
	e.Reschedule(ev, time.Second)
	mustPanic("rescheduling a pending event", func() { e.Reschedule(ev, time.Second) })
	ev.Cancel()
	mustPanic("rescheduling a cancelled event before it is reaped", func() { e.Reschedule(ev, time.Second) })
}

// BenchmarkEngineScheduleFire is the queue at the shape sim-34pop gives it:
// ≈100 events pending, each firing scheduling its successor one WAN RTT
// (20-300 ms) later, as a connection's rounds do.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	for i := 0; i < 100; i++ {
		rtt := time.Duration(20+i*3) * time.Millisecond
		var fn func()
		fn = func() {
			if remaining > 0 {
				remaining--
				e.MustSchedule(rtt, fn)
			}
		}
		e.MustSchedule(rtt, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
