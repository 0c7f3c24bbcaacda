// Package sim provides the discrete-event simulation engine BASS experiments
// run on: a virtual clock, an event queue with deterministic ordering, and
// periodic-task helpers. Time is modelled as time.Duration offsets from the
// start of the experiment.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// errStopped is returned by Run when the engine was stopped explicitly.
var errStopped = errors.New("sim: stopped")

// event is one slot of the engine's slab. A slot is live while it sits in
// the heap (pos >= 0) and free otherwise; gen counts the times it was freed,
// so an EventID minted before the last free no longer matches it.
type event struct {
	at  time.Duration
	seq uint64 // tie-break so same-time events run in schedule order
	fn  func()
	gen uint32
	pos int32 // index in Engine.heap, -1 while the slot is free
}

// Engine is a single-threaded discrete-event simulator. All callbacks run on
// the goroutine that calls Run; scheduling from within callbacks is the
// normal mode of operation.
//
// Events live by value in a slab whose free slots are reused, ordered by a
// binary heap of slot indices on (at, seq); every event records its heap
// position, so Cancel and Reschedule work in place and leave nothing behind.
//
// An Engine holds no package-level state and its random source is private to
// the instance, so independent engines may run on concurrent goroutines —
// the isolation the parallel experiment harness relies on. A single Engine
// is not safe for concurrent use.
type Engine struct {
	now      time.Duration
	slots    []event
	free     []int32 // free slot indices, reused last-freed first
	heap     []int32 // slot indices, a min-heap on (at, seq)
	seq      uint64
	stopped  bool
	seed     int64
	rng      *rand.Rand
	executed uint64
	// beforeDispatch runs at every dispatch boundary (see BeforeDispatch).
	beforeDispatch []func()
}

// NewEngine returns an engine with a deterministic random source.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Seed reports the seed the engine's random source was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Callers must only
// use it from event callbacks (single-threaded).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed reports the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// EventID identifies a scheduled event for cancellation. It packs the slot's
// generation in the high 32 bits and slot+1 in the low 32, so it is never 0:
// callers may use 0 for "no event". Once the event runs or is cancelled its
// slot's generation moves on, and the id matches nothing (a generation
// wraps only after 2^32 reuses of one slot).
type EventID uint64

// live returns the slot a still-queued event's id names, or -1.
func (e *Engine) live(id EventID) int32 {
	s := int64(uint32(id)) - 1
	if s < 0 || s >= int64(len(e.slots)) {
		return -1
	}
	ev := &e.slots[s]
	if ev.gen != uint32(id>>32) || ev.pos < 0 {
		return -1
	}
	return int32(s)
}

// At schedules fn at absolute virtual time at. Scheduling in the past runs
// the event at the current time (it cannot run before already-elapsed time).
func (e *Engine) At(at time.Duration, fn func()) EventID {
	if at < e.now {
		at = e.now
	}
	var s int32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = int32(len(e.slots))
		e.slots = append(e.slots, event{})
	}
	e.seq++
	ev := &e.slots[s]
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	ev.pos = int32(len(e.heap))
	e.heap = append(e.heap, s)
	e.up(int(ev.pos))
	return EventID(uint64(ev.gen)<<32 | uint64(s+1))
}

// After schedules fn after delay d from now.
func (e *Engine) After(d time.Duration, fn func()) EventID {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled), or the id 0, is a no-op. The event
// leaves the heap at once and its slot is freed.
func (e *Engine) Cancel(id EventID) {
	s := e.live(id)
	if s < 0 {
		return
	}
	e.remove(int(e.slots[s].pos))
	e.release(s)
}

// Reschedule moves a queued event to absolute time at (clamped to now, as
// At clamps), reporting false, and changing nothing, when id names no queued
// event. The event takes a fresh sequence number, so it runs exactly where
// Cancel followed by At would have placed it — after every event already
// scheduled for the same instant — but keeps its id and callback.
func (e *Engine) Reschedule(id EventID, at time.Duration) bool {
	s := e.live(id)
	if s < 0 {
		return false
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &e.slots[s]
	ev.at, ev.seq = at, e.seq
	e.fix(int(ev.pos))
	return true
}

// release frees slot s: the callback is dropped now, and the generation
// bump retires every id that named it.
func (e *Engine) release(s int32) {
	ev := &e.slots[s]
	ev.fn = nil
	ev.gen++
	ev.pos = -1
	e.free = append(e.free, s)
}

// Stop halts Run after the current event.
func (e *Engine) Stop() { e.stopped = true }

// BeforeDispatch registers fn to run at every dispatch boundary: at the top
// of each Run iteration, before the queue head is examined (and so before Run
// moves the clock to its horizon), and at the top of Step. The clock still
// reads the time of the last event, so fn settles work deferred by that event
// at the virtual time it was requested, and may schedule events at now, which
// dispatch before any later-time event. Register a method value once rather
// than a fresh closure; invoking the hooks allocates nothing.
func (e *Engine) BeforeDispatch(fn func()) {
	e.beforeDispatch = append(e.beforeDispatch, fn)
}

// dispatchBoundary runs the BeforeDispatch hooks in registration order.
func (e *Engine) dispatchBoundary() {
	for _, fn := range e.beforeDispatch {
		fn()
	}
}

// Run executes events until the queue is empty or virtual time would exceed
// until. The clock finishes at min(until, last event time); if events remain
// beyond until the clock is set to until exactly.
func (e *Engine) Run(until time.Duration) error {
	for {
		e.dispatchBoundary()
		if len(e.heap) == 0 {
			break
		}
		if e.stopped {
			return errStopped
		}
		if e.slots[e.heap[0]].at > until {
			e.now = until
			return nil
		}
		e.fire()
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// Step executes exactly one pending event, reporting whether one ran.
func (e *Engine) Step() bool {
	e.dispatchBoundary()
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// fire pops the queue head, frees its slot and runs its callback, so the
// callback sees its own id as stale and may reuse the slot.
func (e *Engine) fire() {
	s := e.heap[0]
	e.remove(0)
	ev := &e.slots[s]
	e.now = ev.at
	e.executed++
	fn := ev.fn
	e.release(s)
	fn()
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.heap) }

// Every schedules fn at now+period, then every period thereafter, until the
// returned stop function is called or the run horizon ends. fn observes the
// tick time via Engine.Now. One tick closure re-arms itself, so a period
// allocates nothing.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		e.After(period, tick)
	}
	e.After(period, tick)
	return func() { stopped = true }
}

// less orders heap positions i and j by (at, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.slots[e.heap[i]], &e.slots[e.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// swap exchanges heap positions i and j, keeping each event's pos current.
func (e *Engine) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	e.slots[h[i]].pos = int32(i)
	e.slots[h[j]].pos = int32(j)
}

func (e *Engine) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		j = i
	}
}

// down sifts position i0 toward the leaves, reporting whether it moved.
func (e *Engine) down(i0 int) bool {
	n := len(e.heap)
	i := i0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && e.less(r, l) {
			j = r
		}
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores heap order after the event at position i changed its key.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// remove takes position i out of the heap: the last entry moves into the
// hole and is sifted whichever way its key demands.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	if i != n {
		e.swap(i, n)
	}
	e.heap = e.heap[:n]
	if i != n {
		e.fix(i)
	}
}
