package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestJournalRecordSize pins the ring slot: at most 120 bytes, half an
// Event, and no pointer anywhere in it, so the garbage collector never scans
// the ring.
func TestJournalRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 120 {
		t.Errorf("journal record is %d bytes, want at most 120", size)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("journal record field %s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(record{}), "record")
}

// TestJournalAllocatesChunksOnDemand pins the ring's memory: k retained
// events hold ⌈k/chunk⌉ chunks, and a full default ring holds at most
// DefaultJournalCapacity × 120 bytes, under half the 240-byte Event slots
// it replaced.
func TestJournalAllocatesChunksOnDemand(t *testing.T) {
	j := NewJournal(0)
	chunk := 1 << journalChunkShift
	for k := 0; k <= DefaultJournalCapacity; k++ {
		if got, want := len(j.chunks), (k+chunk-1)/chunk; got != want {
			t.Fatalf("%d events hold %d chunks, want %d", k, got, want)
		}
		j.Append(Event{Type: EventProbeFull, Link: "a-b", Value: float64(k)})
	}
	var ring uintptr
	for _, c := range j.chunks {
		ring += uintptr(cap(c)) * unsafe.Sizeof(record{})
	}
	if limit := uintptr(DefaultJournalCapacity * 120); ring > limit {
		t.Errorf("full default ring holds %d bytes, want at most %d", ring, limit)
	}
	t.Logf("full default ring: %d bytes (%d B Event slots: %d)", ring,
		unsafe.Sizeof(Event{}), DefaultJournalCapacity*unsafe.Sizeof(Event{}))

	// A capacity that is not a chunk multiple ends in a short chunk.
	j = NewJournal(chunk + 3)
	for k := 0; k < 2*chunk; k++ {
		j.Append(Event{Type: EventFault})
	}
	if len(j.chunks) != 2 || cap(j.chunks[1]) != 3 {
		t.Errorf("capacity %d: chunks %d, last holds %d, want 2 and 3", chunk+3, len(j.chunks), cap(j.chunks[1]))
	}
}

// TestJournalSymbolsStayBounded appends ten rings' worth of reasons that
// never repeat: the intern table compacts to the names live events use, so
// it stays within a fixed multiple of the capacity, and every retained
// event still resolves its own names.
func TestJournalSymbolsStayBounded(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 10*DefaultJournalCapacity; i++ {
		j.Append(Event{Type: EventProbeError, Link: "a-b", Reason: fmt.Sprintf("probe %d failed", i)})
		if n := len(j.syms.names); n > 3*DefaultJournalCapacity {
			t.Fatalf("after %d unique reasons the intern table holds %d names, want at most %d",
				i+1, n, 3*DefaultJournalCapacity)
		}
	}
	if len(j.syms.index) != len(j.syms.names)-1 {
		t.Errorf("intern index holds %d names, table %d (plus the empty name)", len(j.syms.index), len(j.syms.names))
	}
	first := 9 * DefaultJournalCapacity
	for i, ev := range j.Events() {
		if want := fmt.Sprintf("probe %d failed", first+i); ev.Reason != want || ev.Link != "a-b" {
			t.Fatalf("event %d resolves to %q on %q, want %q on a-b", i, ev.Reason, ev.Link, want)
		}
	}
}

// TestJournalSteadyStateZeroAlloc pins the append paths on a full ring whose
// names are already interned: no allocation per event or per board.
func TestJournalSteadyStateZeroAlloc(t *testing.T) {
	j := NewJournal(64)
	p := NewPlane(j, nil, func() time.Duration { return time.Second })
	ev := Event{Type: EventProbeHeadroom, Link: "a-b", Value: 1}
	rows := []BoardRow{{Node: "n1", Reason: "outscored", Value: 2}, {Node: "n2", Value: 3}}
	tmpl := Event{Type: EventSchedCandidate, App: "app", Component: "c1", Cause: 7}
	for i := 0; i < 64; i++ {
		j.Append(ev)
		p.EmitBoard(tmpl, rows)
	}
	for name, fn := range map[string]func(){
		"Append":    func() { j.Append(ev) },
		"EmitSpan":  func() { p.EmitSpan(ev) },
		"EmitBoard": func() { p.EmitBoard(tmpl, rows) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s on a full ring allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestTapSeesOnlyItsTypes: the plane calls its tap for the registered types
// alone, board rows included, and a board of a tapped type still journals
// exactly what the untapped board would.
func TestTapSeesOnlyItsTypes(t *testing.T) {
	run := func(tapTypes ...EventType) ([]EventType, string) {
		j := NewJournal(16)
		p := NewPlane(j, nil, func() time.Duration { return time.Second })
		var seen []EventType
		p.SetTap(func(ev Event) { seen = append(seen, ev.Type) }, tapTypes...)
		p.Emit(Event{Type: EventProbeFull, Link: "a-b"})
		p.Emit(Event{Type: EventFault, Reason: "link-down"})
		p.EmitBoard(Event{Type: EventSchedCandidate, Component: "c1"},
			[]BoardRow{{Node: "n1"}, {Node: "n2", Reason: "outscored"}})
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return seen, buf.String()
	}
	seen, untapped := run(EventFault)
	if !slices.Equal(seen, []EventType{EventFault}) {
		t.Errorf("tap on fault saw %v", seen)
	}
	seen, tapped := run(EventFault, EventSchedCandidate)
	if want := []EventType{EventFault, EventSchedCandidate, EventSchedCandidate}; !slices.Equal(seen, want) {
		t.Errorf("tap on fault and sched_candidate saw %v, want %v", seen, want)
	}
	if tapped != untapped {
		t.Errorf("a tapped board journals differently:\n%s\nwant\n%s", tapped, untapped)
	}
}

// TestJournalTypeLimit: a journal holds the empty type and 255 others; the
// next new type panics, by Append or by a board, before touching the ring,
// and the journal stays usable after the panic is recovered.
func TestJournalTypeLimit(t *testing.T) {
	j := NewJournal(8)
	p := NewPlane(j, nil, func() time.Duration { return time.Second })
	j.Append(Event{Link: "untyped"})
	for i := 0; i < 255; i++ {
		j.Append(Event{Type: EventType(fmt.Sprintf("type-%d", i))})
	}
	before := j.Events()
	for name, fn := range map[string]func(){
		"Append":    func() { j.Append(Event{Type: "one-too-many"}) },
		"EmitBoard": func() { p.EmitBoard(Event{Type: "one-too-many"}, []BoardRow{{Node: "n1"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a 256th non-empty type did not panic", name)
				}
			}()
			fn()
		}()
		if got := j.Events(); !slices.Equal(got, before) {
			t.Errorf("after %s's panic the journal holds %v, want %v", name, got, before)
		}
	}
	j.Append(Event{Type: "type-0", Link: "again"}) // known types still append
	if evs := j.Events(); evs[len(evs)-1].Type != "type-0" || evs[len(evs)-1].Link != "again" {
		t.Errorf("append after the panics wrote %+v", evs[len(evs)-1])
	}
}

// valueRing is the reference journal: a plain ring of Event values.
type valueRing struct {
	buf      []Event
	start, n int
	dropped  uint64
}

func (r *valueRing) append(ev Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

func (r *valueRing) events() []Event {
	out := make([]Event, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// journalScript reads a fuzz input; past its end every read is zero.
type journalScript struct {
	data []byte
	op   int
}

func (s *journalScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

var (
	scriptTypes = []EventType{"", EventProbeFull, EventProbeHeadroom, EventHeadroomViolation, EventFault,
		EventSchedCandidate, EventMigration, EventAlertFired, "custom_type"}
	scriptNames = []string{"", "a-b", "n1", "n2", "chain-0001", "outscored", "insufficient bandwidth", "page 1m/5m"}
)

// name picks a name: a shared one, a copy of one (equal text, other data
// pointer), or one never seen before.
func (s *journalScript) name() string {
	b := s.byte()
	switch {
	case b < 200:
		return scriptNames[int(b)%len(scriptNames)]
	case b < 230:
		return strings.Clone(scriptNames[1+int(b)%(len(scriptNames)-1)])
	}
	return fmt.Sprintf("unique %d/%d", s.op, b)
}

func (s *journalScript) float() float64 { return float64(int8(s.byte())) / 4 }

func (s *journalScript) event() Event {
	ev := Event{At: time.Duration(s.byte()), Type: scriptTypes[int(s.byte())%len(scriptTypes)]}
	if b := s.byte(); b%4 == 0 {
		ev.Span = uint64(b) + 1
	}
	ev.Cause = uint64(s.byte() % 8)
	mask := uint16(s.byte()) | uint16(s.byte())<<8
	for k, f := range []*string{&ev.App, &ev.Component, &ev.Dep, &ev.Node, &ev.Link,
		&ev.From, &ev.To, &ev.Flow, &ev.Reason, &ev.SLO} {
		if mask&(1<<k) != 0 {
			*f = s.name()
		}
	}
	if mask&(1<<10) != 0 {
		ev.Value, ev.Want = s.float(), s.float()
	}
	if mask&(1<<11) != 0 {
		ev.Local, ev.Remote, ev.Budget = s.float(), s.float(), s.float()
	}
	return ev
}

// FuzzJournalMatchesValueRing drives the interned, chunked ring and a plain
// []Event ring with the same appends, emits and boards, and after every one
// compares Len, Dropped, Events and the JSONL bytes, plus the spans EmitSpan
// returns and the events the tap sees. The first bytes pick the capacity
// (1-48) and a chunk of 1-8 records, so wraparound and chunk edges fall
// everywhere, and small capacities compact the intern table often.
func FuzzJournalMatchesValueRing(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0})
	f.Add([]byte{3, 2, 1, 0x11, 0, 1, 9, 4, 3, 0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(bytes.Repeat([]byte{7, 1, 42, 0x05, 1, 2, 5, 0, 2, 0xff, 0xff, 200, 210, 220, 230, 240, 250}, 24))
	f.Add(bytes.Repeat([]byte{15, 3, 9, 0x0e, 10, 2, 5, 3, 1, 0x3f, 0x03, 3, 240, 4, 251, 5, 6, 7, 8, 9, 11}, 30))
	f.Add(bytes.Repeat([]byte{31, 2, 3, 2, 8, 5, 0, 1, 0x18, 0x00, 5, 9, 255, 1, 2, 3, 4}, 40))
	// Capacity 2, two appends filling the ring, then a board whose template
	// name is new: the intern table compacts before the first row, and the
	// template must be renumbered with the live records.
	f.Add([]byte{1, 0, 0, 0,
		0, 0, 0, 0, 1, 0, 0x10, 0, 2,
		0, 0, 0, 0, 1, 0, 0x10, 0, 3,
		0, 2, 0, 0, 1, 0, 0x01, 0, 1, 1, 4, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &journalScript{data: data}
		capacity := 1 + int(s.byte()%48)
		j := newJournal(capacity, uint(s.byte()%4))
		ref := &valueRing{buf: make([]Event, capacity)}
		var now time.Duration
		p := NewPlane(j, nil, func() time.Duration { return now })
		p.SetTraceSeed(int64(s.byte()))
		var tapTypes []EventType
		for k, mask := 0, s.byte(); k < len(scriptTypes); k++ {
			if mask&(1<<k) != 0 {
				tapTypes = append(tapTypes, scriptTypes[k])
			}
		}
		var seen, wantSeen []Event
		p.SetTap(func(ev Event) { seen = append(seen, ev) }, tapTypes...)
		seq := uint64(0) // the plane's span sequence, mirrored
		emitted := func(ev Event) {
			ref.append(ev)
			if slices.Contains(tapTypes, ev.Type) {
				wantSeen = append(wantSeen, ev)
			}
		}
		for ; len(s.data) > 0 && s.op < 300; s.op++ {
			now += time.Duration(s.byte()) * time.Millisecond
			switch s.byte() % 3 {
			case 0:
				ev := s.event()
				j.Append(ev)
				ref.append(ev)
			case 1:
				ev := s.event()
				want := ev
				want.At = now
				if want.Span == 0 {
					seq++
					want.Span = p.spanBase | seq
				}
				if got := p.EmitSpan(ev); got != want.Span {
					t.Fatalf("op %d: EmitSpan = %d, want %d", s.op, got, want.Span)
				}
				emitted(want)
			case 2:
				tmpl := s.event()
				rows := make([]BoardRow, int(s.byte())%(2*capacity+2))
				for i := range rows {
					rows[i] = BoardRow{Node: s.name(), Reason: s.name(),
						Value: s.float(), Want: s.float(), Local: s.float(), Remote: s.float()}
				}
				p.EmitBoard(tmpl, rows)
				for _, row := range rows {
					want := tmpl
					want.At = now
					seq++
					want.Span = p.spanBase | seq
					want.Node, want.Reason = row.Node, row.Reason
					want.Value, want.Want, want.Local, want.Remote = row.Value, row.Want, row.Local, row.Remote
					emitted(want)
				}
			}
			checkAgainstValueRing(t, s.op, j, ref)
			if !slices.Equal(seen, wantSeen) {
				t.Fatalf("op %d: tap saw %+v, want %+v", s.op, seen, wantSeen)
			}
		}
	})
}

func checkAgainstValueRing(t *testing.T, op int, j *Journal, ref *valueRing) {
	t.Helper()
	want := ref.events()
	if j.Len() != len(want) || j.Dropped() != ref.dropped {
		t.Fatalf("op %d: Len %d Dropped %d, want %d and %d", op, j.Len(), j.Dropped(), len(want), ref.dropped)
	}
	got := j.Events()
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("op %d: Events holds %d events, want %d; first difference at %d:\n%+v\nwant\n%+v",
			op, len(got), len(want), i, got[i:], want[i:])
	}
	for _, n := range []int{0, 1, 3, len(want) + 1} {
		for _, keep := range []func(EventType) bool{nil, isProbe} {
			if got, wantTail := j.Tail(n, keep), valueTail(want, n, keep); !slices.Equal(got, wantTail) {
				t.Fatalf("op %d: Tail(%d, probes only: %v) = %+v, want %+v", op, n, keep != nil, got, wantTail)
			}
		}
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := j.WriteJSONL(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&wantJSON, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("op %d: JSONL differs:\n%s\nwant\n%s", op, gotJSON.String(), wantJSON.String())
	}
}

func isProbe(t EventType) bool { return t == EventProbeFull || t == EventProbeHeadroom }

// valueTail is Tail over a slice: the newest n events keep accepts (all when
// keep is nil), oldest first; nil when none.
func valueTail(events []Event, n int, keep func(EventType) bool) []Event {
	var out []Event
	for i := len(events) - 1; i >= 0 && len(out) < n; i-- {
		if keep == nil || keep(events[i].Type) {
			out = append(out, events[i])
		}
	}
	slices.Reverse(out)
	return out
}

// BenchmarkEmitBoard journals one city-storm-sized scoreboard (196 rows)
// onto a full default ring: the per-choice cost of candidate rows.
func BenchmarkEmitBoard(b *testing.B) {
	p := NewPlane(NewJournal(0), nil, func() time.Duration { return time.Second })
	rows := make([]BoardRow, 196)
	for i := range rows {
		rows[i] = BoardRow{Node: fmt.Sprintf("n%d", i), Reason: "outscored", Value: float64(i), Want: 1}
	}
	tmpl := Event{Type: EventSchedCandidate, App: "chain-0001", Component: "c3", Cause: 9}
	for i := 0; i < DefaultJournalCapacity/len(rows)+1; i++ {
		p.EmitBoard(tmpl, rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EmitBoard(tmpl, rows)
	}
}

// BenchmarkJournalAppend appends one probe event to a full default ring.
func BenchmarkJournalAppend(b *testing.B) {
	j := NewJournal(0)
	ev := Event{Type: EventProbeHeadroom, Link: "a-b", Value: 1}
	for i := 0; i < DefaultJournalCapacity; i++ {
		j.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(ev)
	}
}
