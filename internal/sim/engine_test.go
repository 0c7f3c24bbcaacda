package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if e.Now() != time.Minute {
		t.Errorf("Now = %v, want horizon", e.Now())
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("order = %v", got)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(2*time.Hour, func() { ran = true })
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("event beyond horizon ran")
	}
	if e.Now() != time.Hour {
		t.Errorf("Now = %v", e.Now())
	}
	// Resuming runs it.
	if err := e.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event did not run after extending horizon")
	}
}

// TestRunEarlierHorizonKeepsClock: a horizon before Now, with an event still
// queued, runs nothing and leaves the clock where it was, so a later At is
// not clamped to an instant already passed.
func TestRunEarlierHorizonKeepsClock(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10*time.Second, func() { ran = true })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ran || e.Now() != 5*time.Second {
		t.Fatalf("after Run(5s), Run(1s): ran=%v Now=%v, want false and 5s", ran, e.Now())
	}
	var at time.Duration
	e.At(2*time.Second, func() { at = e.Now() })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Errorf("a past At fired at %v, want clamped to 5s", at)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	e.At(time.Second, func() {
		times = append(times, e.Now())
		e.After(2*time.Second, func() { times = append(times, e.Now()) })
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 3 * time.Second}
	if !reflect.DeepEqual(times, want) {
		t.Errorf("times = %v, want %v", times, want)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.At(5*time.Second, func() {
		e.At(time.Second, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Errorf("past event ran at %v, want clamp to 5s", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	id := e.At(time.Second, func() { ran = true })
	e.Cancel(id)
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(time.Second, func() { count++; e.Stop() })
	e.At(2*time.Second, func() { count++ })
	if err := e.Run(time.Minute); !errors.Is(err, errStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine(1)
	e.At(time.Second, func() {})
	e.At(2*time.Second, func() {})
	if !e.Step() {
		t.Fatal("Step = false with pending events")
	}
	if e.Now() != time.Second {
		t.Errorf("Now = %v", e.Now())
	}
	if !e.Step() || e.Step() {
		t.Error("Step sequencing wrong")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	var ticks []time.Duration
	stop := e.Every(10*time.Second, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			// stop is captured below; stopping from inside the callback must
			// prevent further ticks.
		}
	})
	e.At(35*time.Second, func() { stop() })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	if !reflect.DeepEqual(ticks, want) {
		t.Errorf("ticks = %v, want %v", ticks, want)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for period 0")
		}
	}()
	NewEngine(1).Every(0, func() {})
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 10; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 7 {
		t.Errorf("Executed = %d", e.Executed())
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%1000)*time.Millisecond, func() {})
	}
	b.ResetTimer()
	if err := e.Run(time.Hour); err != nil {
		b.Fatal(err)
	}
}

func TestCancelAfterExecutionLeaksNothing(t *testing.T) {
	e := NewEngine(1)
	var ids []EventID
	for i := 0; i < 100; i++ {
		ids = append(ids, e.At(time.Duration(i)*time.Millisecond, func() {}))
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Cancelling events that already ran must not touch the queue: the
	// events scheduled after them reuse their slots and must all still run.
	later := 0
	for i := 0; i < 100; i++ {
		e.At(2*time.Second, func() { later++ })
	}
	for _, id := range ids {
		e.Cancel(id)
	}
	if e.Pending() != 100 {
		t.Errorf("Pending = %d after cancelling executed events, want the 100 live ones", e.Pending())
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if later != 100 || e.Executed() != 200 || e.Pending() != 0 {
		t.Errorf("later = %d, Executed = %d, Pending = %d; want 100, 200, 0", later, e.Executed(), e.Pending())
	}
}

// TestMassCancelLeavesOnlyLiveEvents: a cancelled event leaves the queue at
// once, so after a mass cancel Pending counts exactly the live events, and
// the survivors and later events still run in order.
func TestMassCancelLeavesOnlyLiveEvents(t *testing.T) {
	e := NewEngine(1)
	var ids []EventID
	for i := 0; i < 128; i++ {
		ids = append(ids, e.At(time.Hour+time.Duration(i)*time.Second, func() {}))
	}
	keep := e.At(30*time.Minute, func() {})
	var got []int
	for i, id := range ids {
		if i%16 == 5 {
			e.At(time.Hour+time.Duration(i)*time.Second, func() { got = append(got, i) })
		}
		e.Cancel(id)
	}
	if e.Pending() != 1+8 {
		t.Errorf("Pending = %d after mass cancel, want the 9 live events", e.Pending())
	}
	ran := false
	e.Cancel(keep)
	e.At(45*time.Minute, func() { ran = true })
	if e.Pending() != 9 {
		t.Errorf("Pending = %d, want 9", e.Pending())
	}
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event scheduled after the mass cancel did not run")
	}
	if want := []int{5, 21, 37, 53, 69, 85, 101, 117}; !reflect.DeepEqual(got, want) {
		t.Errorf("survivors ran as %v, want %v", got, want)
	}
	if e.Executed() != 9 {
		t.Errorf("Executed = %d, want 9", e.Executed())
	}
}

func TestEventStructsAreReused(t *testing.T) {
	e := NewEngine(1)
	// Warm the pool, then measure steady-state allocations per event.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	fn := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		e.After(time.Millisecond, fn)
		e.Step()
	})
	// One event struct would cost ≥1 alloc/op; the free list should make the
	// schedule-execute cycle allocation-free.
	if allocs > 0 {
		t.Errorf("schedule+run allocates %.1f objects/op with warm free list, want 0", allocs)
	}
}

func TestCancelIsNoOpForUnknownID(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(time.Second, func() { ran++ })
	for _, id := range []EventID{0, 12345, 1<<32 | 1, 2} {
		e.Cancel(id)
		if e.Reschedule(id, 0) {
			t.Errorf("Reschedule(%#x) = true for an id never issued", uint64(id))
		}
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after cancelling unknown ids, want 1", e.Pending())
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("event ran %d times, want 1", ran)
	}
}

// TestStaleIDCancelsNothing: an id whose event ran or was cancelled names
// nothing even after its slot is reused by a new event.
func TestStaleIDCancelsNothing(t *testing.T) {
	e := NewEngine(1)
	fired := e.At(time.Second, func() {})
	if !e.Step() {
		t.Fatal("Step ran nothing")
	}
	cancelled := e.At(2*time.Second, func() {})
	e.Cancel(cancelled)
	ran := 0
	reuse := e.At(3*time.Second, func() { ran++ })
	if uint32(reuse) != uint32(cancelled) || uint32(reuse) != uint32(fired) {
		t.Fatalf("ids %#x %#x %#x: the slot was not reused", uint64(fired), uint64(cancelled), uint64(reuse))
	}
	for _, stale := range []EventID{fired, cancelled} {
		e.Cancel(stale)
		if e.Reschedule(stale, 10*time.Second) {
			t.Errorf("Reschedule of stale id %#x = true", uint64(stale))
		}
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || e.Now() != time.Minute {
		t.Errorf("reused slot's event ran %d times, clock %v; want 1, 1m", ran, e.Now())
	}
}

// TestRescheduleTakesAFreshSeq: a rescheduled event runs where Cancel and At
// would have put it: after the events already scheduled for that instant,
// before those scheduled later, and clamped to now.
func TestRescheduleTakesAFreshSeq(t *testing.T) {
	e := NewEngine(1)
	var got []string
	note := func(s string) func() { return func() { got = append(got, fmt.Sprintf("%s@%v", s, e.Now())) } }
	a := e.At(time.Second, note("a"))
	e.At(2*time.Second, note("b"))
	if !e.Reschedule(a, 2*time.Second) {
		t.Fatal("Reschedule of a queued event = false")
	}
	e.At(2*time.Second, note("c"))
	e.At(3*time.Second, func() {
		got = append(got, "d")
		e.Reschedule(a, 0) // a already ran: no-op
	})
	x := e.At(time.Hour, note("x"))
	e.At(4*time.Second, func() {
		if !e.Reschedule(x, 0) { // the past clamps to now
			t.Error("Reschedule of x = false")
		}
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@2s", "a@2s", "c@2s", "d", "x@4s"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestRescheduleAllocatesNothing: moving a queued event touches only its slot
// and the heap.
func TestRescheduleAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	var ids []EventID
	for i := 0; i < 64; i++ {
		ids = append(ids, e.After(time.Duration(i)*time.Millisecond, fn))
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		if !e.Reschedule(ids[i%len(ids)], time.Duration(i*7919%64)*time.Millisecond) {
			t.Fatal("Reschedule of a queued event = false")
		}
	})
	if allocs > 0 {
		t.Errorf("Reschedule allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEveryAllocatesNothingPerTick: one closure re-arms each period.
func TestEveryAllocatesNothingPerTick(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Every(time.Millisecond, func() { ticks++ })
	e.Step()
	allocs := testing.AllocsPerRun(100, func() { e.Step() })
	if allocs > 0 {
		t.Errorf("a tick allocates %.1f objects, want 0", allocs)
	}
	if ticks != 102 {
		t.Errorf("ticks = %d, want 102", ticks)
	}
}

// BenchmarkEngineReschedule moves one of 85 queued events per op, the
// paper-mesh queue's peak size.
func BenchmarkEngineReschedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	ids := make([]EventID, 85)
	for i := range ids {
		ids[i] = e.After(time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reschedule(ids[i%len(ids)], time.Duration(i*7919%1000)*time.Millisecond)
	}
}

// TestBeforeDispatchRunsAtEveryBoundary pins where the hook runs: before
// every Run and Step dispatch, and before Run moves the clock to its horizon
// — on an emptied queue and on one holding only later events — always at the
// time of the last event dispatched.
func TestBeforeDispatchRunsAtEveryBoundary(t *testing.T) {
	e := NewEngine(1)
	var got []string
	note := func(what string) { got = append(got, fmt.Sprintf("%s@%v", what, e.Now())) }
	e.BeforeDispatch(func() { note("hook") })
	e.At(time.Second, func() { note("a") })
	e.At(2*time.Second, func() { note("b") })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	e.At(10*time.Second, func() { note("c") })
	if err := e.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !e.Step() {
		t.Fatal("Step ran nothing with an event queued")
	}
	want := []string{
		"hook@0s", "a@1s", "hook@1s", "b@2s", "hook@2s", // Run to 5s on an emptied queue
		"hook@5s",          // Run to 7s with only a 10s event queued
		"hook@7s", "c@10s", // Step
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sequence = %v\nwant       %v", got, want)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

// TestBeforeDispatchCanScheduleAtNow: an event the hook schedules at the
// current time dispatches before every later-time event.
func TestBeforeDispatchCanScheduleAtNow(t *testing.T) {
	e := NewEngine(1)
	var got []string
	armed := false
	e.BeforeDispatch(func() {
		if armed {
			armed = false
			e.At(e.Now(), func() { got = append(got, fmt.Sprintf("hooked@%v", e.Now())) })
		}
	})
	e.At(time.Second, func() { got = append(got, "a"); armed = true })
	e.At(time.Second+time.Nanosecond, func() { got = append(got, "b") })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "hooked@1s", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestBeforeDispatchAllocatesNothing: with a no-op hook registered, a
// schedule-and-dispatch cycle through Step or Run stays allocation-free.
func TestBeforeDispatchAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	calls := 0
	e.BeforeDispatch(func() { calls++ })
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.After(time.Millisecond, fn)
		e.Step()
		e.After(time.Millisecond, fn)
		if err := e.Run(e.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("dispatch with a hook allocates %.1f objects/op, want 0", allocs)
	}
	if calls == 0 {
		t.Error("hook never ran")
	}
}
