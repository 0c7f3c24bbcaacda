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
	if err := e.Run(time.Minute); !errors.Is(err, ErrStopped) {
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
	// Cancelling events that already ran must not accumulate state.
	for _, id := range ids {
		e.Cancel(id)
	}
	if len(e.pending) != 0 {
		t.Errorf("pending map holds %d entries after all events ran", len(e.pending))
	}
	if e.ncancelled != 0 {
		t.Errorf("ncancelled = %d after cancelling executed events", e.ncancelled)
	}
}

func TestCancelledHeapCompaction(t *testing.T) {
	e := NewEngine(1)
	var ids []EventID
	for i := 0; i < 2*compactThreshold; i++ {
		ids = append(ids, e.At(time.Hour+time.Duration(i)*time.Second, func() {}))
	}
	keep := e.At(30*time.Minute, func() {})
	for _, id := range ids {
		e.Cancel(id)
	}
	// Compaction triggers once cancelled events dominate; the queue must not
	// retain all 2*compactThreshold tombstones.
	if e.Pending() > compactThreshold+2 {
		t.Errorf("queue holds %d events after mass cancel; want ≤ %d", e.Pending(), compactThreshold+2)
	}
	ran := false
	e.Cancel(keep) // and cancelling the survivor still works post-compaction
	e.At(45*time.Minute, func() { ran = true })
	if err := e.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event scheduled after compaction did not run")
	}
	if e.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", e.Executed())
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
	e.Cancel(EventID(12345))
	if len(e.pending) != 0 || e.ncancelled != 0 {
		t.Error("cancel of unknown id mutated state")
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
