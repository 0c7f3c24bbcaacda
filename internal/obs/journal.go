package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Journal is a bounded ring buffer of events. It is safe for concurrent use;
// a nil *Journal discards appends for free.
//
// The ring holds fixed-width records with no pointers, so the garbage
// collector never scans it: the ten name fields of an Event are uint32
// symbols in the journal's intern table and its Type is a uint8 code. An
// appended event is written straight into its ring slot. The ring is
// allocated one chunk at a time as it first fills, so a journal holding k
// events holds ⌈k/1024⌉ chunks. Names are resolved back to strings at the
// edge, by Events and WriteJSONL, so every reader sees the events appended.
type Journal struct {
	mu         sync.Mutex
	chunks     [][]record // allocated on first use, 1<<chunkShift records each (the last may be shorter)
	chunkShift uint
	capacity   int
	start      int // ring position of the oldest event
	n          int // live events
	dropped    uint64

	syms  symtab // names
	types symtab // event types: a symbol is a record's type code; never compacted
}

// DefaultJournalCapacity bounds journal memory when no capacity is given.
const DefaultJournalCapacity = 1 << 14

// journalChunkShift sizes the ring's chunks: 1<<10 records, 112 KiB.
const journalChunkShift = 10

// NewJournal returns a journal retaining the last capacity events
// (DefaultJournalCapacity when capacity ≤ 0).
func NewJournal(capacity int) *Journal {
	return newJournal(capacity, journalChunkShift)
}

// newJournal is NewJournal with chunks of 1<<chunkShift records.
func newJournal(capacity int, chunkShift uint) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{
		chunks:     make([][]record, 0, (capacity+1<<chunkShift-1)>>chunkShift),
		chunkShift: chunkShift,
		capacity:   capacity,
		syms:       newSymtab(2 * capacity),
		types:      newSymtab(0),
	}
}

// Name fields of a record, in Event's field order.
const (
	nameApp = iota
	nameComponent
	nameDep
	nameNode
	nameLink
	nameFrom
	nameTo
	nameFlow
	nameReason
	nameSLO
	numNames
)

// record is one ring slot: an Event with its names interned. It holds no
// pointers, and it is 112 bytes where an Event is 240.
type record struct {
	at                                 time.Duration
	span, cause                        uint64
	value, want, local, remote, budget float64
	names                              [numNames]uint32
	typ                                uint8
}

// put writes ev into r, interning its names; typ is ev.Type's code.
func (j *Journal) put(r *record, ev *Event, typ uint8) {
	s := &j.syms
	r.at, r.span, r.cause = ev.At, ev.Span, ev.Cause
	r.value, r.want, r.local, r.remote, r.budget = ev.Value, ev.Want, ev.Local, ev.Remote, ev.Budget
	r.names = [numNames]uint32{
		s.intern(ev.App), s.intern(ev.Component), s.intern(ev.Dep), s.intern(ev.Node),
		s.intern(ev.Link), s.intern(ev.From), s.intern(ev.To), s.intern(ev.Flow),
		s.intern(ev.Reason), s.intern(ev.SLO),
	}
	r.typ = typ
}

// event resolves r back to the Event it was written from.
func (j *Journal) event(r *record) Event {
	name := j.syms.names
	return Event{
		At: r.at, Type: EventType(j.types.names[r.typ]), Span: r.span, Cause: r.cause,
		App: name[r.names[nameApp]], Component: name[r.names[nameComponent]],
		Dep: name[r.names[nameDep]], Node: name[r.names[nameNode]],
		Link: name[r.names[nameLink]], From: name[r.names[nameFrom]],
		To: name[r.names[nameTo]], Flow: name[r.names[nameFlow]],
		Reason: name[r.names[nameReason]],
		Value:  r.value, Want: r.want, Local: r.local, Remote: r.remote,
		SLO: name[r.names[nameSLO]], Budget: r.budget,
	}
}

// typeCode returns t's code, assigning the next one on first sight. Code 0
// is the empty type, so a journal holds at most 255 non-empty types. Event
// types are a closed vocabulary (the constants in obs.go), so a journal that
// sees more is a bug: typeCode panics, and it does so before the caller has
// touched the ring or the table.
func (j *Journal) typeCode(t EventType) uint8 {
	if c, ok := j.types.index[string(t)]; ok || t == "" {
		return uint8(c)
	}
	if len(j.types.names) > math.MaxUint8 {
		panic("obs: a journal holds at most 255 non-empty event types")
	}
	return uint8(j.types.intern(string(t)))
}

// symtab interns a journal's names; symbol 0 is the empty name.
type symtab struct {
	names []string
	index map[string]uint32
	// limit is the table size at which the journal compacts it.
	limit int
}

func newSymtab(limit int) symtab {
	return symtab{names: []string{""}, index: make(map[string]uint32), limit: limit}
}

// intern returns s's symbol, adding s to the table on first sight.
func (t *symtab) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	sym, ok := t.index[s]
	if !ok {
		sym = uint32(len(t.names))
		t.names = append(t.names, s)
		t.index[s] = sym
	}
	return sym
}

// compactSymbols rebuilds the intern table from the names that the live
// records, and keep (a record being built, or nil), still use. Names of
// evicted events, such as reasons that never repeat, would otherwise grow
// the table without bound. The table next compacts when it has doubled past
// the larger of its live names and the ring's capacity, so the rebuild's
// walk of the ring is paid for by at least capacity new names.
func (j *Journal) compactSymbols(keep *record) {
	old := j.syms.names
	remap := make([]uint32, len(old)) // old symbol → new; 0 = not yet kept
	names := []string{""}
	index := make(map[string]uint32)
	renumber := func(r *record) {
		for k, s := range r.names {
			if s == 0 {
				continue
			}
			if remap[s] == 0 {
				remap[s] = uint32(len(names))
				index[old[s]] = remap[s]
				names = append(names, old[s])
			}
			r.names[k] = remap[s]
		}
	}
	for i := 0; i < j.n; i++ {
		renumber(j.at(i))
	}
	if keep != nil {
		renumber(keep)
	}
	j.syms = symtab{names: names, index: index, limit: 2 * max(len(names), j.capacity)}
}

// compactIfFull compacts the intern table once it reaches its limit.
func (j *Journal) compactIfFull(keep *record) {
	if len(j.syms.names) >= j.syms.limit {
		j.compactSymbols(keep)
	}
}

// at returns the i-th live record, oldest first.
func (j *Journal) at(i int) *record {
	pos := j.start + i
	if pos >= j.capacity {
		pos -= j.capacity
	}
	return &j.chunks[pos>>j.chunkShift][pos&(1<<j.chunkShift-1)]
}

// next returns the slot for a new event: the next free one, allocating its
// chunk on first use, or once the ring is full the oldest event's, which it
// evicts. Until the ring is full, start stays 0.
func (j *Journal) next() *record {
	if j.n < j.capacity {
		if j.n>>j.chunkShift == len(j.chunks) {
			j.chunks = append(j.chunks, make([]record, min(1<<j.chunkShift, j.capacity-j.n)))
		}
		j.n++
		return j.at(j.n - 1)
	}
	r := j.at(0)
	if j.start++; j.start == j.capacity {
		j.start = 0
	}
	j.dropped++
	return r
}

// Append records an event, evicting the oldest when full. Nil-safe.
func (j *Journal) Append(ev Event) {
	if j == nil {
		return
	}
	j.append(&ev)
}

// append writes *ev into its ring slot: the one copy Append and
// Plane.EmitSpan make of an event.
func (j *Journal) append(ev *Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	typ := j.typeCode(ev.Type)
	j.compactIfFull(nil)
	j.put(j.next(), ev, typ)
}

// BoardRow is what one row of a board sets over the board's template: the
// candidate node, its rejection reason and its four quantities (see
// EventSchedCandidate for their meaning).
type BoardRow struct {
	Node, Reason               string
	Value, Want, Local, Remote float64
}

// appendBoard writes one record per row under one lock: each is tmpl with
// the row's fields set and span span0+i. The template's names are interned
// once; each row interns only its node and reason.
func (j *Journal) appendBoard(tmpl *Event, span0 uint64, rows []BoardRow) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var base record
	j.put(&base, tmpl, j.typeCode(tmpl.Type))
	for i := range rows {
		row := &rows[i]
		j.compactIfFull(&base)
		r := j.next()
		*r = base
		r.span = span0 + uint64(i)
		r.names[nameNode] = j.syms.intern(row.Node)
		r.names[nameReason] = j.syms.intern(row.Reason)
		r.value, r.want, r.local, r.remote = row.Value, row.Want, row.Local, row.Remote
	}
}

// Len reports the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Dropped reports how many events the ring evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events, oldest first, names resolved.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := range out {
		out[i] = j.event(j.at(i))
	}
	return out
}

// Tail returns the newest n retained events whose type keep accepts (every
// event when keep is nil), oldest first. It resolves only the events it
// returns, so a reader showing a few rows of a full ring pays for those rows,
// not for the ring. keep is called once per event type under the journal's
// lock, so it must not call into the journal.
func (j *Journal) Tail(n int, keep func(EventType) bool) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var accept [math.MaxUint8 + 1]bool
	for code, name := range j.types.names {
		accept[code] = keep == nil || keep(EventType(name))
	}
	found, first := 0, j.n
	for i := j.n - 1; i >= 0 && found < n; i-- {
		if accept[j.at(i).typ] {
			found, first = found+1, i
		}
	}
	if found == 0 {
		return nil
	}
	out := make([]Event, 0, found)
	for i := first; len(out) < found; i++ {
		if r := j.at(i); accept[r.typ] {
			out = append(out, j.event(r))
		}
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line, oldest
// first. Same events ⇒ same bytes: encoding uses only the fixed Event fields.
func (j *Journal) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, j.Events())
}

// WriteJSONL encodes events as JSONL.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
