// Package metricstore is a minimal Prometheus-like time-series store: named
// metrics with label sets, append-only samples, range queries, windowed
// aggregates, and an HTTP query API. It plays the role Prometheus plays in
// the paper's implementation (§5): the sink the monitoring services log into
// and the source the bandwidth controller queries.
//
// Retention is bounded per series: a ring of the newest MaxSamples samples,
// and nothing older. Windowed aggregate queries (AggOver and the Selection
// reads) fold that ring, so a window reaching past retention counts only the
// samples still held. A window read costs O(log retention + samples in the
// window): the ring is time-ordered, so the fold binary-searches the window's
// start instead of walking history, and a Selection resolves a (metric,
// selector) pair once to the store's own list of its series — the read-side
// twin of the write-side Handle — so repeated reads examine no series but
// their own.
//
// A cardinality guard caps the number of distinct series; appends that would
// mint series beyond the cap are dropped and surfaced through the
// metricstore_dropped_samples_total self-metric instead of growing without
// bound.
package metricstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sample is one timestamped value.
type Sample struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// Series is a metric with one concrete label set.
type Series struct {
	Metric  string            `json:"metric"`
	Labels  map[string]string `json:"labels,omitempty"`
	Samples []Sample          `json:"samples"`
}

// Self-observation metrics: the store reports its own pathologies as
// ordinary series so a scrape sees them without a side channel.
const (
	// metricDroppedSamples counts samples dropped by the cardinality guard
	// (cumulative). It is appended to lazily, only when drops occur, so a
	// healthy store carries no extra series.
	metricDroppedSamples = "metricstore_dropped_samples_total"
)

// Config sizes a store's per-series retention and its cardinality guard.
// Zero fields take defaults.
type Config struct {
	// MaxSamples caps the sample ring per series (default 10000); an append
	// to a full ring evicts the series' oldest sample.
	MaxSamples int
	// MaxSeries caps distinct series; appends that would mint series
	// beyond it are dropped and counted (default 50000).
	MaxSeries int
}

func (c Config) withDefaults() Config {
	if c.MaxSamples <= 0 {
		c.MaxSamples = 10000
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 50000
	}
	return c
}

// keyEscaper escapes the key's structural characters inside metric names,
// label keys, and label values. Without it, distinct label sets collide:
// {a: "b|c=d"} and {a: "b", c: "d"} would canonicalise to the same key and
// silently merge into one series.
var keyEscaper = strings.NewReplacer(`\`, `\\`, "|", `\|`, "=", `\=`)

// seriesKey canonicalises (metric, labels) for map lookup. Every component is
// escaped, so the key parses unambiguously back into its parts.
func seriesKey(metric string, labels map[string]string) string {
	if len(labels) == 0 {
		return keyEscaper.Replace(metric)
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(keyEscaper.Replace(metric))
	for _, k := range keys {
		b.WriteString("|")
		b.WriteString(keyEscaper.Replace(k))
		b.WriteString("=")
		b.WriteString(keyEscaper.Replace(labels[k]))
	}
	return b.String()
}

// series is the internal representation: a ring of the newest samples. The
// exported Series shape is materialised on demand by Query/Snapshot.
type series struct {
	metric string
	labels map[string]string
	key    string

	// chunks hold the ring's records, allocated as it first fills: the
	// first starts at two records and grows by doubling up to chunkLen,
	// each later one is chunkLen records, and the last is cut to what
	// remains of MaxSamples.
	chunks   [][]rec
	start, n int // ring position of the oldest record, live records
	// loc is the zone of the series' first sample; every sample is read
	// back in it.
	loc *time.Location
	// unordered is set, for good, by the first append older than its
	// predecessor. While clear the ring is sorted by instant and window
	// reads binary-search it; once set they scan the whole ring.
	unordered bool
}

// rec is one retained sample: its instant in Unix nanoseconds and its value.
// It holds no pointer, so the garbage collector never scans a ring.
type rec struct {
	ns int64
	v  float64
}

// chunkShift sizes a ring's chunks: 1<<8 records, 4 KiB.
const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

// The instants a record holds: int64 Unix nanoseconds span 1677-09-21 to
// 2262-04-11 UTC.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// unixNano returns at in Unix nanoseconds, ok=false when at lies outside
// [minTime, maxTime] and an int64 cannot hold it.
func unixNano(at time.Time) (ns int64, ok bool) {
	if at.Before(minTime) || at.After(maxTime) {
		return 0, false
	}
	return at.UnixNano(), true
}

// lowerBound returns the least holdable instant at or after t, ok=false
// when there is none.
func lowerBound(t time.Time) (ns int64, ok bool) {
	if t.Before(minTime) {
		return math.MinInt64, true
	}
	return unixNano(t)
}

// upperBound returns the greatest holdable instant at or before t, ok=false
// when there is none.
func upperBound(t time.Time) (ns int64, ok bool) {
	if t.After(maxTime) {
		return math.MaxInt64, true
	}
	return unixNano(t)
}

// append adds a record at instant at (within [minTime, maxTime]), evicting
// the oldest once the ring holds maxSamples.
func (sr *series) append(maxSamples int, at time.Time, r rec) {
	if sr.loc == nil {
		sr.loc = at.Location()
	}
	if sr.n > 0 && r.ns < sr.at(sr.n-1).ns {
		sr.unordered = true
	}
	if sr.n == maxSamples {
		*sr.at(0) = r
		if sr.start++; sr.start == sr.n {
			sr.start = 0
		}
		return
	}
	c := sr.n >> chunkShift
	switch {
	case c == 0 && len(sr.chunks) == 0:
		sr.chunks = [][]rec{make([]rec, 0, min(2, maxSamples))}
	case c == 0 && len(sr.chunks[0]) == cap(sr.chunks[0]):
		first := make([]rec, len(sr.chunks[0]), min(2*cap(sr.chunks[0]), chunkLen, maxSamples))
		copy(first, sr.chunks[0])
		sr.chunks[0] = first
	case c == len(sr.chunks):
		sr.chunks = append(sr.chunks, make([]rec, 0, min(chunkLen, maxSamples-sr.n)))
	}
	sr.chunks[c] = append(sr.chunks[c], r)
	sr.n++
}

// at returns the i-th live record, oldest first. Until the ring is full
// start is 0, so a position wraps only in a full ring, whose length is n.
func (sr *series) at(i int) *rec {
	pos := sr.start + i
	if pos >= sr.n {
		pos -= sr.n // one wrap at most (i < n); a % here costs a division per sample folded
	}
	return &sr.chunks[pos>>chunkShift][pos&(chunkLen-1)]
}

// sample returns the i-th live record as a Sample, in the series' zone.
func (sr *series) sample(i int) Sample {
	r := sr.at(i)
	return Sample{At: time.Unix(0, r.ns).In(sr.loc), Value: r.v}
}

// Store holds series in memory. It is safe for concurrent use. Each series
// is capped at Config.MaxSamples samples (the oldest evicted first), bounding
// memory for long runs.
//
// One plain mutex guards it. Every writer appends from one goroutine (the
// simulation's event loop, or bassd's monitor) and reads are few (bassd's
// HTTP handlers, the SLO evaluator's one window read per epoch), so a
// reader-shared lock would buy no parallelism and its write unlock costs
// more per append.
type Store struct {
	mu       sync.Mutex
	cfg      Config
	series   map[string]*series
	byMetric map[string]*metricIndex
	dropped  uint64 // samples refused by the cardinality guard
	// outOfRange counts samples refused because no int64 Unix-nanosecond
	// instant holds their At.
	outOfRange uint64
	// visited counts the samples window reads have examined: a work count
	// for the complexity tests.
	visited uint64
}

// index is a list of series in creation order. Series are never deleted, so
// it only grows at its tail. A Selection holds a pointer to one and so sees
// every series appended to it after Select.
type index struct {
	srs []*series
	// few backs srs until a fifth series joins. Most label values name one
	// app's or one link's handful of series; this keeps their minting — which
	// happens mid-run, as deployments first report — off the heap.
	few [4]*series
}

func newIndex() *index {
	ix := &index{}
	ix.srs = ix.few[:0]
	return ix
}

// metricIndex is what the store knows about one metric name: every series,
// and the subset carrying each label pair. The label lists let a Selection
// find its series without examining the metric's others; a subsequence of
// creation order is still creation order, so they fold identically.
type metricIndex struct {
	all     *index
	byLabel map[labelPair]*index
}

type labelPair struct{ name, value string }

// metricIndexLocked returns the metric's index, creating it empty if absent.
func (s *Store) metricIndexLocked(metric string) *metricIndex {
	mi := s.byMetric[metric]
	if mi == nil {
		mi = &metricIndex{all: newIndex(), byLabel: make(map[labelPair]*index)}
		s.byMetric[metric] = mi
	}
	return mi
}

// labelIndex returns the list for one label pair, creating it empty if
// absent. Callers hold the store lock.
func (mi *metricIndex) labelIndex(lp labelPair) *index {
	ix := mi.byLabel[lp]
	if ix == nil {
		ix = newIndex()
		mi.byLabel[lp] = ix
	}
	return ix
}

// indexPair picks the selector pair whose list a read starts from: any
// pair's list holds every match, and taking the smallest label name makes
// the choice, and so a read's cost, the same run to run. ok=false for an
// empty selector, which every series of the metric matches.
func indexPair(selector map[string]string) (by labelPair, ok bool) {
	for name, value := range selector {
		if !ok || name < by.name {
			by, ok = labelPair{name, value}, true
		}
	}
	return by, ok
}

// candidates returns, in creation order, the metric's series that can match
// the selector: those carrying its index pair, which callers still match
// against the whole selector. Callers hold the store lock.
func (s *Store) candidates(metric string, selector map[string]string) []*series {
	mi := s.byMetric[metric]
	if mi == nil {
		return nil
	}
	by, ok := indexPair(selector)
	if !ok {
		return mi.all.srs
	}
	if ix := mi.byLabel[by]; ix != nil {
		return ix.srs
	}
	return nil
}

// New returns a store capping each series at maxSamples (default 10000 when
// ≤ 0), with the default cardinality guard.
func New(maxSamples int) *Store {
	return NewWithConfig(Config{MaxSamples: maxSamples})
}

// NewWithConfig returns a store with explicit retention/cardinality sizing.
func NewWithConfig(cfg Config) *Store {
	return &Store{
		cfg:      cfg.withDefaults(),
		series:   make(map[string]*series),
		byMetric: make(map[string]*metricIndex),
	}
}

// copyLabels returns a copy of the label set, so neither side of the store's
// boundary can rename a series the other holds.
func copyLabels(labels map[string]string) map[string]string {
	copied := make(map[string]string, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
	return copied
}

func (s *Store) newSeriesLocked(metric string, labels map[string]string, key string) *series {
	copied := copyLabels(labels)
	sr := &series{metric: metric, labels: copied, key: key}
	s.series[key] = sr
	mi := s.metricIndexLocked(metric)
	mi.all.srs = append(mi.all.srs, sr)
	for k, v := range copied {
		ix := mi.labelIndex(labelPair{k, v})
		ix.srs = append(ix.srs, sr)
	}
	return sr
}

// Append records a sample. When the sample would mint a new series beyond
// the cardinality guard it is dropped and counted in the
// metricstore_dropped_samples_total self-metric (which is exempt from the
// guard) — a series explosion degrades into a visible counter, not an OOM.
//
// A series holds instants as int64 Unix nanoseconds, so a sample whose At
// lies before 1677-09-21 or after 2262-04-11 UTC (the zero Time among them)
// is refused and counted in StoreStats.OutOfRangeSamples; it never wraps to
// another instant. A sample reads back at the same instant, in the zone of
// its series' first sample, without a monotonic clock reading.
func (s *Store) Append(metric string, labels map[string]string, at time.Time, value float64) {
	key := seriesKey(metric, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := unixNano(at)
	if !ok {
		s.outOfRange++
		return
	}
	sr, ok := s.series[key]
	if !ok {
		if len(s.series) >= s.cfg.MaxSeries {
			s.dropped++
			gk := seriesKey(metricDroppedSamples, nil)
			guard, ok := s.series[gk]
			if !ok {
				guard = s.newSeriesLocked(metricDroppedSamples, nil, gk)
			}
			guard.append(s.cfg.MaxSamples, at, rec{ns, float64(s.dropped)})
			return
		}
		sr = s.newSeriesLocked(metric, labels, key)
	}
	sr.append(s.cfg.MaxSamples, at, rec{ns, value})
}

// Handle is a pre-resolved series for repeated appends: the canonical key is
// computed once, so steady-state appends through it are allocation-free —
// the SLO evaluator's per-epoch write path.
type Handle struct {
	s  *Store
	sr *series
}

// Handle resolves (metric, labels) to a series eagerly (creating it, guard
// permitting) and returns an append handle. A zero Handle discards appends.
// The guard can refuse creation; the returned handle then discards and the
// drop is counted per append.
func (s *Store) Handle(metric string, labels map[string]string) Handle {
	key := seriesKey(metric, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		if len(s.series) >= s.cfg.MaxSeries {
			return Handle{}
		}
		sr = s.newSeriesLocked(metric, labels, key)
	}
	return Handle{s: s, sr: sr}
}

// Append records a sample on the pre-resolved series, refusing an At out of
// range as Store.Append does.
func (h Handle) Append(at time.Time, value float64) {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	if ns, ok := unixNano(at); ok {
		h.sr.append(h.s.cfg.MaxSamples, at, rec{ns, value})
	} else {
		h.s.outOfRange++
	}
	h.s.mu.Unlock()
}

// StoreStats is a point-in-time cardinality report.
type StoreStats struct {
	Series         int    `json:"series"`
	MaxSeries      int    `json:"max_series"`
	DroppedSamples uint64 `json:"dropped_samples"`
	// OutOfRangeSamples counts samples refused because their At lies
	// outside the int64 Unix-nanosecond range (years 1677–2262).
	OutOfRangeSamples uint64 `json:"out_of_range_samples"`
}

// SamplesVisited is how many samples window reads (AggOver and its
// Selection twins) have walked after their binary search, over the store's
// life.
func (s *Store) SamplesVisited() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.visited
}

// Stats reports current cardinality and guard activity.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Series: len(s.series), MaxSeries: s.cfg.MaxSeries, DroppedSamples: s.dropped,
		OutOfRangeSamples: s.outOfRange}
}

// matchesLabels reports whether the label set carries every selector label.
// A series must carry the label explicitly to match — an empty-string
// selector value matches only series labeled with the empty string, never
// series that lack the label (a plain labels[k] lookup cannot tell those
// apart).
func matchesLabels(labels, selector map[string]string) bool {
	for k, v := range selector {
		got, ok := labels[k]
		if !ok || got != v {
			return false
		}
	}
	return true
}

// Query returns copies of all series of the metric matching the selector
// labels, with samples restricted to [from, to] (zero times = unbounded).
func (s *Store) Query(metric string, selector map[string]string, from, to time.Time) []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	var matched []*series
	for _, sr := range s.candidates(metric, selector) {
		if matchesLabels(sr.labels, selector) {
			matched = append(matched, sr)
		}
	}
	sortByKey(matched)
	lo, hi, inRange := int64(math.MinInt64), int64(math.MaxInt64), true
	if !from.IsZero() {
		lo, inRange = lowerBound(from)
	}
	if !to.IsZero() && inRange {
		hi, inRange = upperBound(to)
	}
	var out []Series
	for _, sr := range matched {
		copied := Series{Metric: sr.metric, Labels: copyLabels(sr.labels)}
		for i := 0; i < sr.n && inRange; i++ {
			if r := sr.at(i); r.ns >= lo && r.ns <= hi {
				copied.Samples = append(copied.Samples, sr.sample(i))
			}
		}
		out = append(out, copied)
	}
	return out
}

// Latest returns the most recent sample across the series matching the
// metric and selector, with ok=false when absent or empty. It scans under the
// store lock without copying — going through Query would deep-copy every
// matching series' full sample history per call, O(total samples) on the
// controller's per-sweep read path just to look at the last element.
func (s *Store) Latest(metric string, selector map[string]string) (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *series
	for _, sr := range s.candidates(metric, selector) {
		if !matchesLabels(sr.labels, selector) || sr.n == 0 {
			continue
		}
		if best == nil || sr.at(sr.n-1).ns > best.at(best.n-1).ns {
			best = sr
		}
	}
	if best == nil {
		return Sample{}, false
	}
	return best.sample(best.n - 1), true
}

// Agg is a windowed aggregate over every matching sample.
type Agg struct {
	Sum      float64
	Min, Max float64
	Count    int
}

// Avg returns Sum/Count (0 when empty).
func (a Agg) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

func (a *Agg) fold(v float64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Sum += v
	a.Count++
}

// aggInto folds the series' samples in [lo, hi] (Unix nanoseconds) into a,
// oldest first, and returns how many samples its walk took in after the
// search. The fold starts at the first sample a walk of the whole ring would
// select and stops at the first one past the window, so it visits exactly
// the samples that walk selects, in the same order — sums are bit-equal to
// it. An unordered ring is walked whole.
func (sr *series) aggInto(a *Agg, lo, hi int64) (visited int) {
	i := 0
	if !sr.unordered {
		i = sort.Search(sr.n, func(i int) bool { return sr.at(i).ns >= lo })
	}
	start := i
	for ; i < sr.n; i++ {
		r := sr.at(i)
		if r.ns < lo || r.ns > hi {
			if sr.unordered {
				continue
			}
			break // sorted and searched past lo: this and all later ones are past hi
		}
		a.fold(r.v)
	}
	return i - start
}

// aggSeries is the one window fold behind every windowed read: the series of
// srs matching selector, in slice (= creation) order, each folded over
// [now-window, now]. Callers hold the store lock.
func (s *Store) aggSeries(srs []*series, selector map[string]string, now time.Time, window time.Duration) (Agg, bool) {
	var agg Agg
	lo, okLo := lowerBound(now.Add(-window))
	hi, okHi := upperBound(now)
	if !okLo || !okHi {
		return agg, false
	}
	visited := 0
	for _, sr := range srs {
		if matchesLabels(sr.labels, selector) {
			visited += sr.aggInto(&agg, lo, hi)
		}
	}
	s.visited += uint64(visited)
	return agg, agg.Count > 0
}

// AggOver aggregates every sample of the metric matching the selector in the
// trailing window [now-window, now] (inclusive). It allocates nothing,
// binary-searches each series' ring for the window start rather than scanning
// its history, and iterates series in creation order, so floating-point sums
// are identical run to run. ok=false when no sample falls in the window. A
// window that reaches past retention folds only the retained samples: each
// series holds its newest Config.MaxSamples and nothing older. Callers that
// repeat a read should Select once and read through the Selection, which
// examines only the series it matches rather than all of the metric's.
func (s *Store) AggOver(metric string, selector map[string]string, now time.Time, window time.Duration) (Agg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aggSeries(s.candidates(metric, selector), selector, now, window)
}

// Selection is a pre-resolved (metric, selector) pair for repeated windowed
// reads — the read-side twin of Handle. Select finds the store's own list of
// the series carrying the selector's label pair (or of all the metric's
// series, for an empty selector) and a read folds that list, in creation
// order, without examining any other series. The list is the store's, not a
// copy, so series minted after Select are in it the moment they exist.
// AggOver's result is identical to Store.AggOver given the same metric and
// selector. A Selection is immutable and safe for concurrent use.
type Selection struct {
	s    *Store
	from *index
	// filter is the whole selector, copied, when it has more than one pair:
	// from then lists the series carrying one of them and a read matches the
	// rest. nil when membership of from is the match.
	filter map[string]string
}

// Select resolves the selector to a Selection. It costs one index lookup
// however many series the metric has.
func (s *Store) Select(metric string, selector map[string]string) *Selection {
	sel := &Selection{s: s}
	s.mu.Lock()
	defer s.mu.Unlock()
	mi := s.metricIndexLocked(metric)
	if by, ok := indexPair(selector); ok {
		sel.from = mi.labelIndex(by)
	} else {
		sel.from = mi.all
	}
	if len(selector) > 1 {
		sel.filter = copyLabels(selector)
	}
	return sel
}

// AggOver is Store.AggOver over the selection.
func (sel *Selection) AggOver(now time.Time, window time.Duration) (Agg, bool) {
	sel.s.mu.Lock()
	defer sel.s.mu.Unlock()
	return sel.s.aggSeries(sel.from.srs, sel.filter, now, window)
}

// AvgOver is the mean of AggOver over the window.
func (sel *Selection) AvgOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Avg(), ok
}

// MinOver is the minimum of AggOver over the window.
func (sel *Selection) MinOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Min, ok
}

// MaxOver is the maximum of AggOver over the window.
func (sel *Selection) MaxOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Max, ok
}

// Metrics lists distinct metric names, sorted.
func (s *Store) Metrics() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byMetric))
	for m, mi := range s.byMetric {
		if len(mi.all.srs) > 0 {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// sortedSeriesLocked returns every series ordered by canonical key — the
// deterministic order of whole-store dumps. Callers hold the store lock.
func (s *Store) sortedSeriesLocked() []*series {
	all := make([]*series, 0, len(s.series))
	for _, sr := range s.series {
		all = append(all, sr)
	}
	sortByKey(all)
	return all
}

// sortByKey orders series by the canonical key each was minted under (unique
// per series, so the order is total).
func sortByKey(srs []*series) {
	sort.Slice(srs, func(i, j int) bool { return srs[i].key < srs[j].key })
}

// Snapshot returns copies of every series, sorted by canonical key — the
// deterministic whole-store dump behind bass-sim's -metrics-out.
func (s *Store) Snapshot() []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.series))
	for _, sr := range s.sortedSeriesLocked() {
		copied := Series{Metric: sr.metric, Labels: copyLabels(sr.labels)}
		copied.Samples = make([]Sample, sr.n)
		for i := range copied.Samples {
			copied.Samples[i] = sr.sample(i)
		}
		out = append(out, copied)
	}
	return out
}

// promLabelEscaper escapes label values per the Prometheus text exposition
// format (backslash, double quote, line feed).
var promLabelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the latest sample of every series in the
// Prometheus text exposition format (version 0.0.4): a # TYPE line per
// metric, then one sample line per series with millisecond timestamps.
// Series order is deterministic (sorted by canonical key). The dump is
// rendered under the store lock straight from each ring's newest slot — no
// sample history is copied — and written to w in one call after the lock is
// released, so a slow scraper never stalls appends.
func (s *Store) WritePrometheus(w io.Writer) error {
	_, err := w.Write(s.renderPrometheus())
	return err
}

func (s *Store) renderPrometheus() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b bytes.Buffer
	var keys []string
	lastMetric := ""
	for _, sr := range s.sortedSeriesLocked() {
		if sr.n == 0 {
			continue
		}
		if sr.metric != lastMetric {
			b.WriteString("# TYPE ")
			b.WriteString(sr.metric)
			b.WriteString(" gauge\n")
			lastMetric = sr.metric
		}
		b.WriteString(sr.metric)
		if len(sr.labels) > 0 {
			keys = keys[:0]
			for k := range sr.labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("{")
			for i, k := range keys {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(k)
				b.WriteString(`="`)
				_, _ = promLabelEscaper.WriteString(&b, sr.labels[k]) // bytes.Buffer writes cannot fail
				b.WriteString(`"`)
			}
			b.WriteString("}")
		}
		last := sr.sample(sr.n - 1)
		b.WriteString(" ")
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), last.Value, 'g', -1, 64))
		b.WriteString(" ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), last.At.UnixMilli(), 10))
		b.WriteString("\n")
	}
	return b.Bytes()
}

// PrometheusHandler serves WritePrometheus — the /metrics endpoint a real
// Prometheus server would scrape from bassd.
func (s *Store) PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WritePrometheus(w)
	})
}

// Handler serves the query API:
//
//	GET /api/v1/query?metric=<name>[&label.<k>=<v>...][&from=unix][&to=unix]
//	GET /api/v1/metrics
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Metrics())
	})
	mux.HandleFunc("/api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		metric := r.URL.Query().Get("metric")
		if metric == "" {
			http.Error(w, "missing metric parameter", http.StatusBadRequest)
			return
		}
		selector := make(map[string]string)
		for key, vals := range r.URL.Query() {
			if strings.HasPrefix(key, "label.") && len(vals) > 0 {
				selector[strings.TrimPrefix(key, "label.")] = vals[0]
			}
		}
		parseTime := func(name string) (time.Time, error) {
			raw := r.URL.Query().Get(name)
			if raw == "" {
				return time.Time{}, nil
			}
			unix, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return time.Time{}, fmt.Errorf("bad %s: %w", name, err)
			}
			return time.Unix(unix, 0), nil
		}
		from, err := parseTime("from")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		to, err := parseTime("to")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Query(metric, selector, from, to))
	})
	return mux
}
