package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// queue is the surface FuzzEngineMatchesReference drives: the Engine through
// engineQueue, and refQueue, a sorted slice with the same contract.
type queue interface {
	Now() time.Duration
	At(at time.Duration, fn func()) uint64
	After(d time.Duration, fn func()) uint64
	Cancel(id uint64)
	Reschedule(id uint64, at time.Duration) bool
	Every(period time.Duration, fn func()) (stop func())
	Step() bool
	Run(until time.Duration) error
	Stop()
	Executed() uint64
	Pending() int
}

type engineQueue struct{ *Engine }

func (q engineQueue) At(at time.Duration, fn func()) uint64 { return uint64(q.Engine.At(at, fn)) }
func (q engineQueue) After(d time.Duration, fn func()) uint64 {
	return uint64(q.Engine.After(d, fn))
}
func (q engineQueue) Cancel(id uint64) { q.Engine.Cancel(EventID(id)) }
func (q engineQueue) Reschedule(id uint64, at time.Duration) bool {
	return q.Engine.Reschedule(EventID(id), at)
}

// refQueue keeps its events in a slice sorted by (at, seq) and names each by
// its index in an append-only log, so a stale id can never alias a live one.
type refQueue struct {
	now      time.Duration
	seq      uint64
	queued   []*refEvent
	log      []*refEvent
	executed uint64
	stopped  bool
}

type refEvent struct {
	at   time.Duration
	seq  uint64
	fn   func()
	live bool
}

func (q *refQueue) Now() time.Duration { return q.now }
func (q *refQueue) Executed() uint64   { return q.executed }
func (q *refQueue) Pending() int       { return len(q.queued) }
func (q *refQueue) Stop()              { q.stopped = true }

func (q *refQueue) insert(ev *refEvent) {
	i, _ := slices.BinarySearchFunc(q.queued, ev, func(a, b *refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	q.queued = slices.Insert(q.queued, i, ev)
}

func (q *refQueue) At(at time.Duration, fn func()) uint64 {
	q.seq++
	ev := &refEvent{at: max(at, q.now), seq: q.seq, fn: fn, live: true}
	q.log = append(q.log, ev)
	q.insert(ev)
	return uint64(len(q.log))
}

func (q *refQueue) After(d time.Duration, fn func()) uint64 { return q.At(q.now+d, fn) }

func (q *refQueue) lookup(id uint64) *refEvent {
	if id == 0 || id > uint64(len(q.log)) || !q.log[id-1].live {
		return nil
	}
	return q.log[id-1]
}

func (q *refQueue) unqueue(ev *refEvent) {
	ev.live = false
	q.queued = slices.DeleteFunc(q.queued, func(x *refEvent) bool { return x == ev })
}

func (q *refQueue) Cancel(id uint64) {
	if ev := q.lookup(id); ev != nil {
		q.unqueue(ev)
	}
}

func (q *refQueue) Reschedule(id uint64, at time.Duration) bool {
	ev := q.lookup(id)
	if ev == nil {
		return false
	}
	q.unqueue(ev)
	q.seq++
	ev.at, ev.seq, ev.live = max(at, q.now), q.seq, true
	q.insert(ev)
	return true
}

func (q *refQueue) Every(period time.Duration, fn func()) func() {
	stopped := false
	var tick func()
	tick = func() {
		if !stopped {
			fn()
			q.After(period, tick)
		}
	}
	q.After(period, tick)
	return func() { stopped = true }
}

func (q *refQueue) fire() {
	ev := q.queued[0]
	q.unqueue(ev)
	q.now = ev.at
	q.executed++
	ev.fn()
}

func (q *refQueue) Step() bool {
	if len(q.queued) == 0 {
		return false
	}
	q.fire()
	return true
}

func (q *refQueue) Run(until time.Duration) error {
	until = max(until, q.now) // an earlier horizon never moves the clock back
	for len(q.queued) > 0 {
		if q.stopped {
			return errStopped
		}
		if q.queued[0].at > until {
			q.now = until
			return nil
		}
		q.fire()
	}
	q.now = until
	return nil
}

// script replays fuzz bytes against q and returns one observation line per
// operation: the callbacks fired during it, and the queue's Now, Executed
// and Pending after it, with every Step, Run and Reschedule result. Each
// operation takes three bytes: an opcode, an argument and a handle byte.
// Handles index every id the script has been issued, fired, cancelled and
// slot-reused ones included; the callbacks of some events run a nested
// Cancel, Reschedule, At or Stop of their own.
func script(q queue, data []byte) []string {
	const maxOps = 200
	var (
		ids   []uint64
		stops []func()
		fired []string
		out   []string
	)
	handle := func(b byte) uint64 {
		if len(ids) == 0 || b == 0xff {
			return 0 // the "no event" id
		}
		return ids[int(b)%len(ids)]
	}
	ms := func(b byte) time.Duration { return time.Duration(b%16) * time.Millisecond }
	var callback func(label int, nested byte, h byte) func()
	callback = func(label int, nested byte, h byte) func() {
		return func() {
			fired = append(fired, fmt.Sprintf("%d@%v", label, q.Now()))
			switch nested % 8 {
			case 1:
				q.Cancel(handle(h))
			case 2:
				fired = append(fired, fmt.Sprint("re=", q.Reschedule(handle(h), q.Now()+ms(nested/8))))
			case 3:
				ids = append(ids, q.After(ms(nested/8), callback(1000+label, 0, 0)))
			case 4:
				if nested/8 == 0 {
					q.Stop()
				}
			}
		}
	}
	for op := 0; op+2 < len(data) && op/3 < maxOps; op += 3 {
		code, arg, h := data[op], data[op+1], data[op+2]
		label := op / 3
		var res string
		switch code % 9 {
		case 0:
			// At, with an offset of -2..13 ms so the past clamps to now.
			ids = append(ids, q.At(q.Now()+time.Duration(int(arg%16)-2)*time.Millisecond, callback(label, arg/16, h)))
		case 1:
			ids = append(ids, q.After(ms(arg), callback(label, h, h/8)))
		case 2:
			period := ms(arg) + time.Millisecond
			stops = append(stops, q.Every(period, callback(label, h, h/8)))
		case 3:
			if len(stops) > 0 {
				stops[int(h)%len(stops)]()
			}
		case 4, 5:
			q.Cancel(handle(h))
		case 6:
			res = fmt.Sprint("re=", q.Reschedule(handle(h), q.Now()+time.Duration(int(arg%16)-2)*time.Millisecond))
		case 7:
			res = fmt.Sprint("step=", q.Step())
		case 8:
			// A horizon of -2..13 ms: the past runs nothing and keeps the clock.
			res = fmt.Sprint("run=", q.Run(q.Now()+time.Duration(int(arg%16)-2)*time.Millisecond) != nil)
		}
		out = append(out, fmt.Sprintf("op %d code %d %s fired %v now %v executed %d pending %d",
			label, code%9, res, fired, q.Now(), q.Executed(), q.Pending()))
		fired = fired[:0]
	}
	return out
}

// FuzzEngineMatchesReference drives the slab engine and a sorted-slice
// reference queue with the same script of At, After, Every and its stop,
// Cancel, Reschedule, Step and Run, and requires the same firing order, Now,
// Executed, Pending and Reschedule results after every operation.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		// Fire one event, reuse its slot, then cancel the stale id.
		{0, 1, 0, 7, 0, 0, 0, 3, 0, 4, 0, 0, 8, 15, 0},
		// Reschedule the first of two same-instant events onto that instant:
		// its fresh seq puts it second.
		{0, 4, 0, 0, 4, 0, 0, 2, 0, 6, 4, 0, 8, 15, 0},
		// Events at 10, 13, 2, 6, 11, 3 and 1 ms, then a cancel of the 13 ms
		// one: the 1 ms event moves into its heap position and must sift up.
		{0, 12, 0, 0, 15, 0, 0, 4, 0, 0, 8, 0, 0, 13, 0, 0, 5, 0, 0, 3, 0, 4, 0, 1, 8, 15, 0},
		// Every with a stop, nested reschedules and a nested Stop.
		{2, 2, 0, 1, 3, 2, 1, 5, 26, 8, 15, 0, 3, 0, 0, 8, 15, 0, 0, 3, 4, 8, 15, 0},
		// An event at 10 ms, a run to 5 ms, then a run to a horizon 2 ms in
		// the past: the clock stays at 5 ms and the event stays queued.
		{0, 12, 0, 8, 7, 0, 8, 0, 0, 8, 15, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := script(engineQueue{NewEngine(1)}, data)
		want := script(&refQueue{}, data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("engine and reference diverge:\nengine    %s\nreference %s", got[i], want[i])
			}
		}
	})
}
