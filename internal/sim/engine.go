// Package sim provides the discrete-event simulation engine BASS experiments
// run on: a virtual clock, an event queue with deterministic ordering, and
// periodic-task helpers. Time is modelled as time.Duration offsets from the
// start of the experiment.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// errStopped is returned by Run when the engine was stopped explicitly.
var errStopped = errors.New("sim: stopped")

// Event is a scheduled callback.
type event struct {
	at        time.Duration
	seq       uint64 // tie-break so same-time events run in schedule order
	fn        func()
	id        uint64
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// compactThreshold is the minimum number of cancelled-but-queued events
// before Cancel considers rebuilding the heap; below it, lazy reaping on pop
// is cheaper than a rebuild.
const compactThreshold = 64

// Engine is a single-threaded discrete-event simulator. All callbacks run on
// the goroutine that calls Run; scheduling from within callbacks is the
// normal mode of operation.
//
// An Engine holds no package-level state and its random source is private to
// the instance, so independent engines may run on concurrent goroutines —
// the isolation the parallel experiment harness relies on. A single Engine
// is not safe for concurrent use.
type Engine struct {
	now    time.Duration
	queue  eventHeap
	seq    uint64
	nextID uint64
	// pending maps the id of every live (queued, un-cancelled) event to its
	// struct, so Cancel of an already-executed event is a true no-op instead
	// of a permanently leaked tombstone.
	pending    map[uint64]*event
	ncancelled int // cancelled events still sitting in the heap
	freeList   []*event
	stopped    bool
	seed       int64
	rng        *rand.Rand
	executed   uint64
	// beforeDispatch runs at every dispatch boundary (see BeforeDispatch).
	beforeDispatch []func()
}

// NewEngine returns an engine with a deterministic random source.
func NewEngine(seed int64) *Engine {
	return &Engine{
		pending: make(map[uint64]*event),
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
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

// EventID identifies a scheduled event for cancellation.
type EventID uint64

// alloc takes an event struct from the free list, or heap-allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.freeList); n > 0 {
		ev := e.freeList[n-1]
		e.freeList[n-1] = nil
		e.freeList = e.freeList[:n-1]
		return ev
	}
	return &event{}
}

// release returns an executed or reaped event to the free list. The struct
// is unreferenced at this point: it left the heap and pending map, and
// EventIDs are never dereferenced.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.cancelled = false
	e.freeList = append(e.freeList, ev)
}

// At schedules fn at absolute virtual time at. Scheduling in the past runs
// the event at the current time (it cannot run before already-elapsed time).
func (e *Engine) At(at time.Duration, fn func()) EventID {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.nextID++
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.id = e.nextID
	heap.Push(&e.queue, ev)
	e.pending[ev.id] = ev
	return EventID(e.nextID)
}

// After schedules fn after delay d from now.
func (e *Engine) After(d time.Duration, fn func()) EventID {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// already ran (or was already cancelled) is a no-op: long runs that cancel
// completed transfers leak no bookkeeping. The cancelled event stays in the
// heap to be reaped lazily on pop; if cancelled events come to dominate the
// queue, the heap is compacted in one pass.
func (e *Engine) Cancel(id EventID) {
	ev, ok := e.pending[uint64(id)]
	if !ok {
		return
	}
	ev.cancelled = true
	ev.fn = nil // release the closure now; chaos runs cancel by the thousand
	delete(e.pending, uint64(id))
	e.ncancelled++
	if e.ncancelled >= compactThreshold && e.ncancelled*2 > len(e.queue) {
		e.compact()
	}
}

// compact rebuilds the heap without its cancelled entries.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			e.release(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.ncancelled = 0
	heap.Init(&e.queue)
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
		if len(e.queue) == 0 {
			break
		}
		if e.stopped {
			return errStopped
		}
		next := e.queue[0]
		if next.cancelled {
			heap.Pop(&e.queue)
			e.ncancelled--
			e.release(next)
			continue
		}
		if next.at > until {
			e.now = until
			return nil
		}
		heap.Pop(&e.queue)
		delete(e.pending, next.id)
		e.now = next.at
		e.executed++
		fn := next.fn
		e.release(next)
		fn()
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// Step executes exactly one pending event, reporting whether one ran.
func (e *Engine) Step() bool {
	e.dispatchBoundary()
	for len(e.queue) > 0 {
		next := heap.Pop(&e.queue).(*event)
		if next.cancelled {
			e.ncancelled--
			e.release(next)
			continue
		}
		delete(e.pending, next.id)
		e.now = next.at
		e.executed++
		fn := next.fn
		e.release(next)
		fn()
		return true
	}
	return false
}

// Pending reports the number of events still queued (including cancelled
// events not yet reaped or compacted away).
func (e *Engine) Pending() int { return len(e.queue) }

// Every schedules fn at now+period, then every period thereafter, until the
// returned stop function is called or the run horizon ends. fn observes the
// tick time via Engine.Now.
func (e *Engine) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	stopped := false
	var schedule func()
	schedule = func() {
		e.After(period, func() {
			if stopped {
				return
			}
			fn()
			schedule()
		})
	}
	schedule()
	return func() { stopped = true }
}
