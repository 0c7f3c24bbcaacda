package simnet

import (
	"hash/maphash"
	"time"

	"bass/internal/sim"
)

// flow is one stream's or transfer's record, kept by value in Network.flows.
// It holds no Go pointer, so the pages the records live in are never scanned
// by the garbage collector: the tag and endpoints are numbers in the
// network's intern tables, the path a run of the fill's link-position arena,
// and a transfer's callback side a slot in Network.xfers.
type flow struct {
	id FlowID

	demandBps float64 // rate cap; streams: offered rate, transfers: cap or unbounded
	rateBps   float64 // current max-min allocation; set through setRate

	// A stream's carried bits, folded one constant-rate interval at a time
	// (see setRate and streamBits): carriedBits up to since, sinceRate from
	// since to changedAt, and rateBps from changedAt on. A rate that moves
	// and moves back within one instant, or is rewritten unchanged, folds
	// nothing, so no schedule of passes leaves a trace in the sum.
	carriedBits float64
	sinceRate   float64
	since       time.Duration
	changedAt   time.Duration

	// cause is the journal span under which the flow was created (the deploy,
	// migration, or failover that started it); network lifecycle events fall
	// back to it when no fault is being applied.
	cause uint64

	tag      int32 // number in Network.tags
	src, dst int32 // numbers in Network.ends
	// path and hops locate the flow's routed path, link positions in hop
	// order, in the fill's arena (fillState.paths): hops entries from path.
	// hops is 0 when co-located or parked.
	path, hops int32
	pos        int32 // position in the last flow-side build, while inOrder
	tagNext    int32 // the next live flow with the tag (ascending FlowID), -1 at the list's end
	xfer       int32 // transfers: slot in Network.xfers; streams: -1

	kind kind
	// parked marks a flow whose endpoints are currently unreachable (node
	// crash or partition): it holds no links, carries nothing, and resumes
	// when a route reappears.
	parked bool
	// gone marks a removed flow still occupying a flowOrder entry; every
	// iteration skips it, and the next flow-side build or a compaction in
	// removeFlow drops the entry and frees the slot.
	gone bool
	// inOrder marks a flow held in the fill's demand order at its current
	// demand, at position pos of the last flow-side build. SetStreamDemand
	// and parkFlow clear it; a flow that is gone is never read again.
	inOrder bool
}

// transfer is a transfer's side of its flow record: the fields streams never
// use, and the callbacks, which hold pointers and so stay out of the flow
// pages. Its slot in Network.xfers is freed when the transfer ends and taken
// by a later AddTransfer, which keeps the slot's fire closure: a transfer
// allocates nothing once the slab has as many slots as transfers live at once.
type transfer struct {
	remainingBits float64 // settled as of Network.lastAdvance
	totalBits     float64
	started       time.Duration
	// completionEv is the scheduled completion event, 0 when none is: an
	// engine id is never 0, and every cancel or firing zeroes it. A pass that
	// keeps the event moves it with Reschedule.
	completionEv sim.EventID
	flow         int32 // the slot of the transfer's flow record
	onComplete   func(TransferResult)
	// fire completes the slot's transfer. It is built when the slot is first
	// taken and kept across reuses, so rescheduling a completion, or starting
	// a transfer in a reused slot, allocates nothing.
	fire func()
}

// tagState is one accounting tag's entry, numbered like Network.tags.
type tagState struct {
	// bits is the cumulative bits carried, settled: transfers credit it as
	// they progress, streams when they leave.
	bits float64
	// head and tail bound the tag's intrusive list of live flows (linked by
	// flow.tagNext, ascending FlowID), -1 when it has none.
	head, tail int32
	// seen marks a tag that has been credited at a settle (even with zero
	// bits, when a transfer's last step was clipped to nothing): BytesByTag
	// reports exactly the seen tags plus those of live flows.
	seen bool
}

// handle names a flow across calls that may remove it: its slot, and its
// FlowID to check the slot against. A freed slot is taken by the next flow
// added, a FlowID is never reused, so a walk that holds handles never visits
// a flow born after it started, even in a slot it knew.
type handle struct {
	id   FlowID
	slot int32
}

// pageShift sets the page size of a slab: 256 records.
const (
	pageShift = 8
	pageLen   = 1 << pageShift
)

// slab keeps records by value in fixed-size pages allocated on demand:
// growing it never copies or moves a record, so a record's address is stable
// while its slot is held. Freed slots are taken again last-freed first.
type slab[T any] struct {
	pages []*[pageLen]T
	n     int32 // slots ever handed out
	free  []int32
}

// at returns slot i's record.
func (s *slab[T]) at(i int32) *T { return &s.pages[i>>pageShift][i&(pageLen-1)] }

// take hands out a slot, a freed one when there is one. Its record holds
// whatever its last holder left: the caller sets every field it reads.
func (s *slab[T]) take() int32 {
	if k := len(s.free); k > 0 {
		i := s.free[k-1]
		s.free = s.free[:k-1]
		return i
	}
	if int(s.n) == len(s.pages)*pageLen {
		s.pages = append(s.pages, new([pageLen]T))
	}
	s.n++
	return s.n - 1
}

// release frees slot i for a later take.
func (s *slab[T]) release(i int32) { s.free = append(s.free, i) }

// interner numbers distinct strings 0, 1, 2, … in first-seen order. The
// lookup table is open-addressed over those numbers, so a name costs its
// string header in a page and a few bytes of table, not a map entry.
type interner struct {
	names slab[string]
	// index holds number+1 per occupied bucket, 0 for an empty one; its
	// length is a power of two and it is at most half full.
	index []int32
	seed  maphash.Seed
}

func newInterner() interner { return interner{seed: maphash.MakeSeed()} }

// name returns string i.
func (t *interner) name(i int32) string { return *t.names.at(i) }

// bucket returns the bucket s occupies, or the empty one it would take.
func (t *interner) bucket(s string) int {
	mask := len(t.index) - 1
	i := int(maphash.String(t.seed, s)) & mask
	for k := t.index[i]; k != 0 && t.name(k-1) != s; k = t.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// find returns s's number, if s has one.
func (t *interner) find(s string) (int32, bool) {
	if t.names.n == 0 {
		return 0, false
	}
	k := t.index[t.bucket(s)]
	return k - 1, k != 0
}

// intern returns s's number, numbering it first if it is new.
func (t *interner) intern(s string) (i int32, fresh bool) {
	if 2*int(t.names.n+1) > len(t.index) {
		t.grow()
	}
	b := t.bucket(s)
	if k := t.index[b]; k != 0 {
		return k - 1, false
	}
	i = t.names.take()
	*t.names.at(i) = s
	t.index[b] = i + 1
	return i, true
}

// grow doubles the table and rehashes every name into it.
func (t *interner) grow() {
	t.index = make([]int32, max(2*len(t.index), 16))
	for i := range t.names.n {
		t.index[t.bucket(t.name(i))] = i + 1
	}
}
