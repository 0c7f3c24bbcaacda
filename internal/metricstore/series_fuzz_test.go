package metricstore

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// sampleRing is the reference a series is checked against: a plain []Sample
// ring of the newest MaxSamples samples, each kept as the instant appended,
// in the zone of the series' first sample.
type sampleRing struct {
	buf      []Sample
	start, n int
	loc      *time.Location
}

func (r *sampleRing) append(maxSamples int, at time.Time, v float64) {
	if r.loc == nil {
		r.loc = at.Location()
	}
	smp := Sample{At: at.In(r.loc), Value: v}
	if r.n < maxSamples {
		r.buf = append(r.buf, smp)
		r.n++
		return
	}
	r.buf[r.start] = smp
	r.start = (r.start + 1) % maxSamples
}

func (r *sampleRing) samples() []Sample {
	out := make([]Sample, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// seriesScript reads a fuzz input; past its end every read is zero.
type seriesScript struct {
	data []byte
	op   int
}

func (s *seriesScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

var (
	// fuzzMaxSamples straddle the 256-record chunk: rings of one chunk, of
	// one full chunk, and ones whose last chunk is cut short.
	fuzzMaxSamples = []int{1, 2, 5, 255, 256, 257, 300, 520}
	fuzzZones      = []*time.Location{time.UTC, time.FixedZone("east", 3600), time.FixedZone("west", -5*3600-1800), time.Local}
	// fuzzLabels are the script's series, all of metric "m"; the empty set
	// is written through Store.Append, the others through Handles.
	fuzzLabels = []map[string]string{nil, {"s": "a"}, {"s": "b"}, {"s": "a", "t": "x"}}
	// fuzzOutOfRange are instants no int64 Unix-nanosecond value holds.
	fuzzOutOfRange = []time.Time{{}, time.Unix(0, math.MinInt64).Add(-1), time.Unix(0, math.MaxInt64).Add(1),
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)}
)

// FuzzSeriesMatchesSampleRing drives the chunked record ring and a plain
// []Sample ring per series with the same appends — in and out of time order,
// in mixed zones, in bursts that cross chunk edges and wrap, and out of the
// int64 nanosecond range — and after every operation compares Snapshot and
// the ring's chunk layout, plus the result of each Query, Latest and AggOver
// the script asks for. The first byte picks MaxSamples.
func FuzzSeriesMatchesSampleRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 7})
	f.Add([]byte{2, 0, 1, 9, 1, 3, 0, 2, 200, 2, 4, 5, 3, 0, 0, 60, 10, 4, 1, 9, 20})
	// Bursts across the first chunk's edge, wrap and out-of-order appends.
	f.Add(bytes.Repeat([]byte{1, 1, 200, 2, 1, 2, 255, 1, 0, 3, 250, 5, 4, 0, 3, 30, 5, 2}, 6))
	f.Add(append([]byte{5}, bytes.Repeat([]byte{1, 3, 130, 1, 0, 0, 0, 6, 0, 2, 3, 1, 4, 1, 2, 40}, 8)...))
	f.Add(append([]byte{7}, bytes.Repeat([]byte{1, 0, 255, 2, 1, 1, 2, 3, 3, 4, 0, 0, 10, 200, 6, 3, 5, 1}, 10)...))
	f.Add(append([]byte{4}, bytes.Repeat([]byte{1, 2, 128, 3, 0, 1, 130, 9, 2, 3, 1, 4, 2, 5, 3, 255}, 6)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &seriesScript{data: data}
		maxSamples := fuzzMaxSamples[int(s.byte())%len(fuzzMaxSamples)]
		st := New(maxSamples)
		m := &storeModel{refs: make([]sampleRing, len(fuzzLabels))}
		handles := make([]Handle, len(fuzzLabels))
		base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
		clock := int64(0) // nanoseconds past base
		outOfRange := uint64(0)
		instant := func() time.Time {
			clock += (int64(int8(s.byte())) + 8) * int64(time.Second) / 4
			return base.Add(time.Duration(clock)).In(fuzzZones[int(s.byte())%len(fuzzZones)])
		}
		write := func(k int, at time.Time, v float64) {
			if k == 0 {
				st.Append("m", nil, at, v)
				return
			}
			if handles[k].s == nil {
				handles[k] = st.Handle("m", fuzzLabels[k])
				m.mint(k)
			}
			handles[k].Append(at, v)
		}
		appended := func(k int, at time.Time, v float64) {
			m.mint(k)
			m.refs[k].append(maxSamples, at, v)
		}
		for ; len(s.data) > 0 && s.op < 200; s.op++ {
			k := int(s.byte()) % len(fuzzLabels)
			switch s.byte() % 6 {
			case 0: // one sample, the clock stepping back or forward
				at, v := instant(), float64(int8(s.byte()))/2
				write(k, at, v)
				appended(k, at, v)
			case 1: // a burst in time order, across chunk edges
				n := 1 + int(s.byte())
				at := instant()
				for i := 0; i < n; i++ {
					at = at.Add(time.Duration(1+i%3) * time.Millisecond)
					write(k, at, float64(i))
					appended(k, at, float64(i))
				}
			case 2: // an instant out of range is refused
				write(k, fuzzOutOfRange[int(s.byte())%len(fuzzOutOfRange)], 1)
				outOfRange++
			case 3: // Query over [from, to]; a zero bound is open
				from, to := s.bound(base), s.bound(base)
				got := st.Query("m", fuzzLabels[k], from, to)
				want := m.query(k, from, to)
				if !equalSeries(got, want) {
					t.Fatalf("op %d: Query(%v, %v, %v) = %+v, want %+v", s.op, fuzzLabels[k], from, to, got, want)
				}
			case 4: // AggOver a trailing window
				now := s.bound(base)
				window := time.Duration(s.byte()) * time.Second / 2
				got, ok := st.AggOver("m", fuzzLabels[k], now, window)
				want, wantOK := m.aggOver(k, now, window)
				if got != want || ok != wantOK {
					t.Fatalf("op %d: AggOver(%v, %v, %v) = %+v %v, want %+v %v", s.op, fuzzLabels[k], now, window, got, ok, want, wantOK)
				}
			case 5: // Latest
				got, ok := st.Latest("m", fuzzLabels[k])
				want, wantOK := m.latest(k)
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Latest(%v) = %+v %v, want %+v %v", s.op, fuzzLabels[k], got, ok, want, wantOK)
				}
			}
			if got, want := st.Snapshot(), m.query(0, time.Time{}, time.Time{}); !equalSeries(got, want) {
				t.Fatalf("op %d: Snapshot = %+v, want %+v", s.op, got, want)
			}
			checkLayout(t, s.op, st, maxSamples)
			if got := st.Stats().OutOfRangeSamples; got != outOfRange {
				t.Fatalf("op %d: %d samples refused out of range, want %d", s.op, got, outOfRange)
			}
		}
	})
}

// bound reads a query bound: the zero Time, an instant out of range, or one
// in the script's first minute, in one of the zones.
func (s *seriesScript) bound(base time.Time) time.Time {
	switch b := s.byte(); {
	case b == 0:
		return time.Time{}
	case b == 1:
		return fuzzOutOfRange[int(s.byte())%len(fuzzOutOfRange)]
	default:
		return base.Add(time.Duration(b) * time.Second / 4).In(fuzzZones[int(s.byte())%len(fuzzZones)])
	}
}

// storeModel is the reference store: a sampleRing per script series, and
// the order the store minted them in.
type storeModel struct {
	refs    []sampleRing
	created []int
}

func (m *storeModel) mint(k int) {
	if !slices.Contains(m.created, k) {
		m.created = append(m.created, k)
	}
}

// matching lists the minted series carrying every label of series k's
// selector, in creation order: the order of window folds and Latest.
func (m *storeModel) matching(k int) []int {
	var out []int
	for _, i := range m.created {
		if matchesLabels(fuzzLabels[i], fuzzLabels[k]) {
			out = append(out, i)
		}
	}
	return out
}

// query is Query over the model: series by canonical key, samples in
// [from, to], a zero bound open.
func (m *storeModel) query(k int, from, to time.Time) []Series {
	byKey := m.matching(k)
	slices.SortFunc(byKey, func(a, b int) int {
		return strings.Compare(seriesKey("m", fuzzLabels[a]), seriesKey("m", fuzzLabels[b]))
	})
	var out []Series
	for _, i := range byKey {
		srs := Series{Metric: "m", Labels: fuzzLabels[i]}
		for _, smp := range m.refs[i].samples() {
			if (from.IsZero() || !smp.At.Before(from)) && (to.IsZero() || !smp.At.After(to)) {
				srs.Samples = append(srs.Samples, smp)
			}
		}
		out = append(out, srs)
	}
	return out
}

// aggOver folds every matching sample in [now-window, now], oldest first,
// series in creation order.
func (m *storeModel) aggOver(k int, now time.Time, window time.Duration) (Agg, bool) {
	var a Agg
	from := now.Add(-window)
	for _, i := range m.matching(k) {
		for _, smp := range m.refs[i].samples() {
			if !smp.At.Before(from) && !smp.At.After(now) {
				a.fold(smp.Value)
			}
		}
	}
	return a, a.Count > 0
}

// latest is the newest last sample of the matching series, the first
// minted on a tie.
func (m *storeModel) latest(k int) (Sample, bool) {
	var best Sample
	found := false
	for _, i := range m.matching(k) {
		r := &m.refs[i]
		if r.n == 0 {
			continue
		}
		if last := r.samples()[r.n-1]; !found || last.At.After(best.At) {
			best, found = last, true
		}
	}
	return best, found
}

// equalSeries compares series by metric, labels and samples; a sample's At
// is compared with ==, so its zone and the absence of a monotonic reading
// count.
func equalSeries(got, want []Series) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Metric != want[i].Metric || !matchesLabels(got[i].Labels, want[i].Labels) ||
			len(got[i].Labels) != len(want[i].Labels) || !slices.Equal(got[i].Samples, want[i].Samples) {
			return false
		}
	}
	return true
}

// checkLayout pins the ring's memory: a series holding n records has
// ⌈n/chunkLen⌉ chunks; the first starts at two records and grows by
// doubling, so it holds at most twice its records (or two), and each later
// one is chunkLen records, the last cut to what remains of MaxSamples.
// Records held never exceed MaxSamples.
func checkLayout(t *testing.T, op int, st *Store, maxSamples int) {
	t.Helper()
	for _, sr := range st.series {
		held := 0
		for c, chunk := range sr.chunks {
			held += cap(chunk)
			switch want := min(chunkLen, maxSamples-c*chunkLen); {
			case c == 0 && (cap(chunk) > want || cap(chunk) > max(2, 2*len(chunk))):
				t.Fatalf("op %d: series %q: first chunk holds %d records for %d, want ≤ min(%d, max(2, 2×%d))",
					op, sr.key, cap(chunk), len(chunk), want, len(chunk))
			case c > 0 && cap(chunk) != want:
				t.Fatalf("op %d: series %q: chunk %d holds %d records, want %d", op, sr.key, c, cap(chunk), want)
			}
		}
		if want := (sr.n + chunkLen - 1) >> chunkShift; len(sr.chunks) != want || held > maxSamples {
			t.Fatalf("op %d: series %q: %d chunks holding %d records for %d live, want %d chunks and ≤ %d",
				op, sr.key, len(sr.chunks), held, sr.n, want, maxSamples)
		}
	}
}

// TestRecordIsPointerFree pins a record at 16 bytes: an int64 instant and a
// float64 value, so 256 of them fill a 4 KiB chunk.
func TestRecordIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 16 {
		t.Errorf("record is %d bytes, want 16", got)
	}
	if got := chunkLen * unsafe.Sizeof(rec{}); got != 4096 {
		t.Errorf("chunk is %d bytes, want 4096", got)
	}
}

// TestOutOfRangeInstants pins the store's range: an instant an int64 of Unix
// nanoseconds cannot hold is refused and counted, never wrapped onto another
// instant, and one at either end of the range reads back exactly. Query and
// window bounds beyond the range clamp to it.
func TestOutOfRangeInstants(t *testing.T) {
	s := New(0)
	first, last := time.Unix(0, math.MinInt64).UTC(), time.Unix(0, math.MaxInt64).UTC()
	s.Append("m", nil, first, 1)
	s.Append("m", nil, last, 2)
	h := s.Handle("m", nil)
	for _, at := range fuzzOutOfRange {
		s.Append("m", nil, at, 3)
		h.Append(at, 3)
	}
	if got := s.Stats().OutOfRangeSamples; got != 2*uint64(len(fuzzOutOfRange)) {
		t.Errorf("OutOfRangeSamples = %d, want %d", got, 2*len(fuzzOutOfRange))
	}
	want := []Sample{{At: first, Value: 1}, {At: last, Value: 2}}
	if got := s.Query("m", nil, time.Time{}, time.Time{}); len(got) != 1 || !slices.Equal(got[0].Samples, want) {
		t.Fatalf("Query = %+v, want the two in-range samples %+v", got, want)
	}
	if got := s.Query("m", nil, fuzzOutOfRange[1], fuzzOutOfRange[2]); !slices.Equal(got[0].Samples, want) {
		t.Errorf("Query with bounds past both ends = %+v, want both samples", got[0].Samples)
	}
	if got := s.Query("m", nil, fuzzOutOfRange[2], time.Time{}); len(got[0].Samples) != 0 {
		t.Errorf("Query from past the range's end = %+v, want no samples", got[0].Samples)
	}
	if agg, ok := s.AggOver("m", nil, fuzzOutOfRange[2], time.Second); !ok || agg.Count != 1 || agg.Sum != 2 {
		t.Errorf("AggOver ending past the range = %+v %v, want the last sample", agg, ok)
	}
	if _, ok := s.AggOver("m", nil, fuzzOutOfRange[1], time.Second); ok {
		t.Error("AggOver ending before the range: want ok=false")
	}
	if got, ok := s.Latest("m", nil); !ok || got != want[1] {
		t.Errorf("Latest = %+v %v, want %+v", got, ok, want[1])
	}
}
