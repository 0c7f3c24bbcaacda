// Package metricstore is a minimal Prometheus-like time-series store: named
// metrics with label sets, append-only samples, range queries, downsampled
// rollup rings, windowed aggregates, and an HTTP query API. It plays the role
// Prometheus plays in the paper's implementation (§5): the sink the
// monitoring services log into and the source the bandwidth controller
// queries.
//
// Retention is bounded per series: a raw ring of the newest MaxSamples
// samples, plus two downsampled rollup tiers (10-second and 5-minute buckets
// carrying sum/count/min/max and the exact first/last sample). Each sample is
// kept once: a rollup tier stores only the buckets of samples the raw ring
// has evicted, and a rollup read derives the newer buckets from the raw ring
// itself, so a store whose raw ring never fills holds no rollup buckets at
// all. Windowed aggregate queries (AvgOver, RateOver, ...)
// answer from raw samples when the window is fully covered and fall back to
// rollups for older data, so a store sized for hours of raw data still
// answers day-length windows. A raw window read costs O(log retention +
// samples in the window): the raw ring is time-ordered, so the fold
// binary-searches the window's start instead of walking history, and a
// Selection resolves a (metric, selector) pair once to the store's own list
// of its series — the read-side twin of the write-side Handle — so repeated
// reads examine no series but their own. A rollup read also walks the raw
// ring once, to rebuild the buckets its samples make.
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
	// MetricDroppedSamples counts samples dropped by the cardinality guard
	// (cumulative). It is appended to lazily, only when drops occur, so a
	// healthy store carries no extra series.
	MetricDroppedSamples = "metricstore_dropped_samples_total"
)

// Rollup bucket widths. The 10s and 5m tiers are independent: each folds the
// raw samples themselves (those the raw ring evicts on append, the rest on
// read), so their contents are exact, not re-derived from each other.
const (
	Rollup10sWidth = 10 * time.Second
	Rollup5mWidth  = 5 * time.Minute
)

// Config sizes a store's per-series retention and its cardinality guard.
// Zero fields take defaults.
type Config struct {
	// MaxSamples caps the raw ring per series (default 10000).
	MaxSamples int
	// MaxSeries caps distinct series; appends that would mint series
	// beyond it are dropped and counted (default 50000).
	MaxSeries int
	// Rollup10s caps the closed 10-second buckets a series answers from
	// (default 4096 ≈ 11 hours): the newest Rollup10s buckets, counting
	// those rebuilt from the raw ring on read, so the history it bounds
	// behind raw retention shrinks as raw spans more buckets.
	Rollup10s int
	// Rollup5m caps closed 5-minute buckets the same way (default 2048 ≈
	// 7 days).
	Rollup5m int
}

func (c Config) withDefaults() Config {
	if c.MaxSamples <= 0 {
		c.MaxSamples = 10000
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 50000
	}
	if c.Rollup10s <= 0 {
		c.Rollup10s = 4096
	}
	if c.Rollup5m <= 0 {
		c.Rollup5m = 2048
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

// bucket is one downsampled rollup interval: aggregate moments plus the
// exact first/last raw samples that fell into it (so counter rates survive
// downsampling).
type bucket struct {
	start       time.Time
	sum         float64
	min, max    float64
	count       int
	first, last Sample
}

func (b *bucket) reset(start time.Time, s Sample) {
	b.start = start
	b.sum = s.Value
	b.min, b.max = s.Value, s.Value
	b.count = 1
	b.first, b.last = s, s
}

func (b *bucket) fold(s Sample) {
	b.sum += s.Value
	if s.Value < b.min {
		b.min = s.Value
	}
	if s.Value > b.max {
		b.max = s.Value
	}
	b.count++
	if s.At.Before(b.first.At) {
		b.first = s
	}
	if !s.At.Before(b.last.At) {
		b.last = s
	}
}

// rollupRing is one rollup tier of a series. It stores only what the raw
// ring has evicted: buf holds the newest capN closed buckets of evicted
// samples and open the bucket they are filling. The buckets the raw ring's
// own samples make are rebuilt on read by continuing open over the ring
// (walkRaw). head and closed follow the eager fold of every append — the
// start of its open bucket and how many buckets it has closed — so a read
// retains, and pickRes sees evicted, exactly what folding every sample on
// append would have.
type rollupRing struct {
	buf            []bucket
	start, n       int
	pushed         int       // buckets ever pushed into buf
	evictedThrough time.Time // end of the newest bucket buf evicted
	open           bucket

	head   time.Time
	closed int
}

func (r *rollupRing) push(b bucket, width time.Duration, capN int) {
	r.pushed++
	if capN <= 0 {
		return
	}
	if r.n < capN {
		r.buf = append(r.buf, b)
		r.n++
		return
	}
	old := r.buf[r.start]
	if end := old.start.Add(width); end.After(r.evictedThrough) {
		r.evictedThrough = end
	}
	r.buf[r.start] = b
	r.start = (r.start + 1) % len(r.buf)
}

func (r *rollupRing) at(i int) *bucket {
	if i += r.start; i >= len(r.buf) {
		i -= len(r.buf) // one wrap at most (i < n ≤ len); a % here costs a division per bucket folded
	}
	return &r.buf[i]
}

// note counts smp into the eager fold's bucket sequence: a sample in a later
// bucket than head closes one. first marks the series' first append.
func (r *rollupRing) note(width time.Duration, smp Sample, first bool) {
	bs := smp.At.Truncate(width)
	if first {
		r.head = bs
	} else if bs.After(r.head) {
		r.head = bs
		r.closed++
	}
}

// evictedEnd is the tier's eviction state as pickRes reads it: whether the
// eager fold has closed more than capN buckets, and if so the end of the
// newest one it evicted — closing number closed−capN, counting from one.
// That bucket is in buf or was buf's newest eviction, or else it is one
// rebuilt from raw. A rebuilt bucket starts no earlier than open, which holds
// the raw ring's newest eviction, so open's end stands in for it: both lie
// past every window start pickRes asks the tier about.
func (r *rollupRing) evictedEnd(width time.Duration, capN int) (time.Time, bool) {
	j := r.closed - capN
	if j <= 0 {
		return time.Time{}, false
	}
	gone := r.pushed - r.n // closings buf has evicted; j ≥ gone always
	switch {
	case j == gone:
		return r.evictedThrough, true
	case j <= r.pushed:
		return r.at(j - gone - 1).start.Add(width), true
	}
	return r.open.start.Add(width), true
}

// series is the internal representation: a raw sample ring plus two rollup
// tiers behind it. The exported Series shape is materialised on demand by
// Query/Snapshot.
type series struct {
	metric string
	labels map[string]string
	key    string

	raw            []Sample
	rawStart, rawN int
	evicted        bool
	evictedThrough time.Time // At of the newest evicted raw sample
	// unordered is set, for good, by the first append older than its
	// predecessor. While clear the raw ring is sorted by At and window reads
	// binary-search it; once set they scan the whole ring.
	unordered bool

	r10, r5m rollupRing
}

func (sr *series) append(cfg Config, smp Sample) {
	first := sr.rawN == 0
	if !first && smp.At.Before(sr.rawAt(sr.rawN-1).At) {
		sr.unordered = true
	}
	if sr.rawN < cfg.MaxSamples {
		sr.raw = append(sr.raw, smp)
		sr.rawN++
	} else {
		old := sr.raw[sr.rawStart]
		sr.evicted = true
		if old.At.After(sr.evictedThrough) {
			sr.evictedThrough = old.At
		}
		foldRollup(&sr.r10, Rollup10sWidth, cfg.Rollup10s, old)
		foldRollup(&sr.r5m, Rollup5mWidth, cfg.Rollup5m, old)
		sr.raw[sr.rawStart] = smp
		sr.rawStart = (sr.rawStart + 1) % len(sr.raw)
	}
	sr.r10.note(Rollup10sWidth, smp, first)
	sr.r5m.note(Rollup5mWidth, smp, first)
}

// foldRollup folds a sample the raw ring evicts into the tier, closing the
// open bucket into buf when the sample crosses into a later one.
func foldRollup(r *rollupRing, width time.Duration, capN int, smp Sample) {
	foldInto(&r.open, width, smp, func(b bucket) { r.push(b, width, capN) })
}

// foldInto adds a sample to the open bucket, first passing the bucket to
// closeFn when the sample falls in a later one. Samples older than the open
// bucket (out-of-order appends) fold into it rather than rewriting closed
// history; rollup exactness assumes per-series appends arrive in time order,
// which every writer in this repo satisfies.
func foldInto(open *bucket, width time.Duration, smp Sample, closeFn func(bucket)) {
	bs := smp.At.Truncate(width)
	switch {
	case open.count == 0:
		open.reset(bs, smp)
	case bs.After(open.start):
		closeFn(*open)
		open.reset(bs, smp)
	default:
		open.fold(smp)
	}
}

// walkRaw continues the tier's open bucket over the raw ring in ring (=
// append) order, as if each raw sample had been folded on append: emit gets
// every bucket a sample closes, oldest first, and the bucket left open is
// returned. Evicted samples preceded the raw ring, so the reset/fold calls
// are the ones an eager fold of every append makes, and sums are bit-equal.
func (sr *series) walkRaw(r *rollupRing, width time.Duration, emit func(bucket)) bucket {
	open := r.open
	for i := 0; i < sr.rawN; i++ {
		foldInto(&open, width, sr.rawAt(i), emit)
	}
	return open
}

func (sr *series) rawAt(i int) Sample {
	if i += sr.rawStart; i >= len(sr.raw) {
		i -= len(sr.raw) // one wrap at most (i < rawN ≤ len); a % here costs a division per sample folded
	}
	return sr.raw[i]
}

// Store holds series in memory. It is safe for concurrent use. Each series
// is capped at Config.MaxSamples raw samples (oldest folded into rollups),
// bounding memory for long runs.
type Store struct {
	mu       sync.RWMutex
	cfg      Config
	series   map[string]*series
	byMetric map[string]*metricIndex
	dropped  uint64 // samples refused by the cardinality guard
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
// absent. Callers hold the store's write lock.
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
// ≤ 0), with default rollup retention and cardinality guard.
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

func (s *Store) newSeriesLocked(metric string, labels map[string]string, key string) *series {
	copied := make(map[string]string, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
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
func (s *Store) Append(metric string, labels map[string]string, at time.Time, value float64) {
	key := seriesKey(metric, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		if len(s.series) >= s.cfg.MaxSeries {
			s.dropped++
			gk := seriesKey(MetricDroppedSamples, nil)
			guard, ok := s.series[gk]
			if !ok {
				guard = s.newSeriesLocked(MetricDroppedSamples, nil, gk)
			}
			guard.append(s.cfg, Sample{At: at, Value: float64(s.dropped)})
			return
		}
		sr = s.newSeriesLocked(metric, labels, key)
	}
	sr.append(s.cfg, Sample{At: at, Value: value})
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

// Append records a sample on the pre-resolved series.
func (h Handle) Append(at time.Time, value float64) {
	if h.s == nil {
		return
	}
	h.s.mu.Lock()
	h.sr.append(h.s.cfg, Sample{At: at, Value: value})
	h.s.mu.Unlock()
}

// StoreStats is a point-in-time cardinality report.
type StoreStats struct {
	Series         int    `json:"series"`
	MaxSeries      int    `json:"max_series"`
	DroppedSamples uint64 `json:"dropped_samples"`
}

// Stats reports current cardinality and guard activity.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return StoreStats{Series: len(s.series), MaxSeries: s.cfg.MaxSeries, DroppedSamples: s.dropped}
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	var matched []*series
	for _, sr := range s.candidates(metric, selector) {
		if matchesLabels(sr.labels, selector) {
			matched = append(matched, sr)
		}
	}
	sortByKey(matched)
	var out []Series
	for _, sr := range matched {
		copied := Series{Metric: sr.metric, Labels: sr.labels}
		for i := 0; i < sr.rawN; i++ {
			sample := sr.rawAt(i)
			if !from.IsZero() && sample.At.Before(from) {
				continue
			}
			if !to.IsZero() && sample.At.After(to) {
				continue
			}
			copied.Samples = append(copied.Samples, sample)
		}
		out = append(out, copied)
	}
	return out
}

// Latest returns the most recent sample across the series matching the
// metric and selector, with ok=false when absent or empty. It scans under the
// read lock without copying — going through Query would deep-copy every
// matching series' full sample history per call, O(total samples) on the
// controller's per-sweep read path just to look at the last element.
func (s *Store) Latest(metric string, selector map[string]string) (Sample, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best Sample
	found := false
	for _, sr := range s.candidates(metric, selector) {
		if !matchesLabels(sr.labels, selector) {
			continue
		}
		if sr.rawN > 0 {
			last := sr.rawAt(sr.rawN - 1)
			if !found || last.At.After(best.At) {
				best = last
				found = true
			}
		}
	}
	return best, found
}

// Resolution selects which retention tier a windowed aggregate reads from.
type Resolution int

const (
	// ResAuto answers from raw samples when the window is fully inside raw
	// retention, else from 10s rollups, else from 5m rollups — per series.
	ResAuto Resolution = iota
	ResRaw
	Res10s
	Res5m
)

// Agg is a windowed aggregate over every matching sample: moments plus the
// first/last sample in the window (exact even when answered from rollups,
// which retain them per bucket).
type Agg struct {
	Sum         float64
	Min, Max    float64
	Count       int
	First, Last Sample
}

// Avg returns Sum/Count (0 when empty).
func (a Agg) Avg() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

func (a *Agg) foldSample(s Sample) {
	if a.Count == 0 {
		a.Min, a.Max = s.Value, s.Value
		a.First, a.Last = s, s
	} else {
		if s.Value < a.Min {
			a.Min = s.Value
		}
		if s.Value > a.Max {
			a.Max = s.Value
		}
		if s.At.Before(a.First.At) {
			a.First = s
		}
		if !s.At.Before(a.Last.At) {
			a.Last = s
		}
	}
	a.Sum += s.Value
	a.Count++
}

func (a *Agg) foldBucket(b *bucket) {
	if a.Count == 0 {
		a.Min, a.Max = b.min, b.max
		a.First, a.Last = b.first, b.last
	} else {
		if b.min < a.Min {
			a.Min = b.min
		}
		if b.max > a.Max {
			a.Max = b.max
		}
		if b.first.At.Before(a.First.At) {
			a.First = b.first
		}
		if !b.last.At.Before(a.Last.At) {
			a.Last = b.last
		}
	}
	a.Sum += b.sum
	a.Count += b.count
}

// pickRes chooses the finest tier that still covers the window start.
// Falls through to 5m rollups as the best effort when nothing covers.
func (sr *series) pickRes(cfg *Config, from time.Time) Resolution {
	if !sr.evicted || from.After(sr.evictedThrough) {
		return ResRaw
	}
	if end, ok := sr.r10.evictedEnd(Rollup10sWidth, cfg.Rollup10s); !ok || from.After(end) {
		return Res10s
	}
	return Res5m
}

func bucketOverlaps(b *bucket, width time.Duration, from, to time.Time) bool {
	return !b.start.After(to) && b.start.Add(width).After(from)
}

// aggInto folds the series' samples in [from, to] into a, oldest first.
// Every tier is read in ring order from the first entry that can reach the
// window to the first one past it, so the fold visits exactly the entries a
// walk of the whole ring would select, in the same order — sums are
// bit-equal to that walk at any retention depth.
func (sr *series) aggInto(a *Agg, cfg *Config, from, to time.Time, res Resolution) {
	if res == ResAuto {
		res = sr.pickRes(cfg, from)
	}
	switch res {
	case ResRaw:
		i := 0
		if !sr.unordered {
			i = sort.Search(sr.rawN, func(i int) bool { return !sr.rawAt(i).At.Before(from) })
		}
		for ; i < sr.rawN; i++ {
			smp := sr.rawAt(i)
			if smp.At.Before(from) || smp.At.After(to) {
				if sr.unordered {
					continue
				}
				break // sorted and searched past from: this and all later ones are past to
			}
			a.foldSample(smp)
		}
	case Res10s:
		sr.aggRollup(a, &sr.r10, Rollup10sWidth, cfg.Rollup10s, from, to)
	case Res5m:
		sr.aggRollup(a, &sr.r5m, Rollup5mWidth, cfg.Rollup5m, from, to)
	}
}

// aggRollup folds the tier's buckets overlapping [from, to] — the closed
// ones in buf, those rebuilt from the raw ring, then the open one — keeping
// only the newest capN closed buckets of the whole sequence, as an eager
// tier retains. Bucket starts strictly increase whatever order samples
// arrived in (foldInto only ever opens a later bucket), so the search over
// buf needs no fallback.
func (sr *series) aggRollup(a *Agg, r *rollupRing, width time.Duration, capN int, from, to time.Time) {
	oldest := r.closed - capN // closings numbered up to here are evicted
	lo := oldest - (r.pushed - r.n)
	if lo < 0 {
		lo = 0
	}
	if lo < r.n {
		i := lo + sort.Search(r.n-lo, func(i int) bool { return r.at(lo + i).start.Add(width).After(from) })
		for ; i < r.n; i++ {
			b := r.at(i)
			if b.start.After(to) {
				break
			}
			a.foldBucket(b)
		}
	}
	ord := r.pushed
	open := sr.walkRaw(r, width, func(b bucket) {
		if ord++; ord > oldest && bucketOverlaps(&b, width, from, to) {
			a.foldBucket(&b)
		}
	})
	if open.count > 0 && bucketOverlaps(&open, width, from, to) {
		a.foldBucket(&open)
	}
}

// aggSeries is the one window fold behind every windowed read: the series of
// srs matching selector, in slice (= creation) order, each folded over
// [now-window, now] at the given resolution. Callers hold the store lock.
func aggSeries(cfg *Config, srs []*series, selector map[string]string, now time.Time, window time.Duration, res Resolution) (Agg, bool) {
	from := now.Add(-window)
	var agg Agg
	for _, sr := range srs {
		if matchesLabels(sr.labels, selector) {
			sr.aggInto(&agg, cfg, from, now, res)
		}
	}
	return agg, agg.Count > 0
}

// AggOver aggregates every sample of the metric matching the selector in the
// trailing window [now-window, now] (inclusive), auto-selecting resolution
// per series. It allocates nothing, binary-searches each series' ring for
// the window start rather than scanning its history, and iterates series in
// creation order, so floating-point sums are identical run to run. ok=false
// when no sample falls in the window. Callers that repeat a read should
// Select once and read through the Selection, which examines only the
// series it matches rather than all of the metric's.
func (s *Store) AggOver(metric string, selector map[string]string, now time.Time, window time.Duration) (Agg, bool) {
	return s.AggOverRes(metric, selector, now, window, ResAuto)
}

// AggOverRes is AggOver pinned to a retention tier. Rollup answers include
// every bucket overlapping the window, so a window not aligned to bucket
// boundaries may over-cover by up to one bucket width at each edge; aligned
// windows are exact. A rollup read also walks each series' raw ring once, to
// rebuild the buckets its samples make, so it costs O(MaxSamples) per series
// where a raw read costs O(log MaxSamples + samples in the window).
func (s *Store) AggOverRes(metric string, selector map[string]string, now time.Time, window time.Duration, res Resolution) (Agg, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return aggSeries(&s.cfg, s.candidates(metric, selector), selector, now, window, res)
}

// AvgOver returns the mean sample value over the trailing window.
func (s *Store) AvgOver(metric string, selector map[string]string, now time.Time, window time.Duration) (float64, bool) {
	agg, ok := s.AggOver(metric, selector, now, window)
	return agg.Avg(), ok
}

// MinOver returns the minimum sample value over the trailing window.
func (s *Store) MinOver(metric string, selector map[string]string, now time.Time, window time.Duration) (float64, bool) {
	agg, ok := s.AggOver(metric, selector, now, window)
	return agg.Min, ok
}

// MaxOver returns the maximum sample value over the trailing window.
func (s *Store) MaxOver(metric string, selector map[string]string, now time.Time, window time.Duration) (float64, bool) {
	agg, ok := s.AggOver(metric, selector, now, window)
	return agg.Max, ok
}

// RateOver returns the per-second increase of a cumulative counter over the
// trailing window: (last−first)/elapsed across all matching samples.
// ok=false with fewer than two samples or zero elapsed time.
func (s *Store) RateOver(metric string, selector map[string]string, now time.Time, window time.Duration) (float64, bool) {
	agg, ok := s.AggOver(metric, selector, now, window)
	if !ok || agg.Count < 2 {
		return 0, false
	}
	dt := agg.Last.At.Sub(agg.First.At).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return (agg.Last.Value - agg.First.Value) / dt, true
}

// Rate computes the average of the samples within the trailing window ending
// at now — the controller's "traffic over the last interval" query.
func (s *Store) Rate(metric string, selector map[string]string, now time.Time, window time.Duration) (float64, bool) {
	return s.AvgOver(metric, selector, now, window)
}

// Selection is a pre-resolved (metric, selector) pair for repeated windowed
// reads — the read-side twin of Handle. Select finds the store's own list of
// the series carrying the selector's label pair (or of all the metric's
// series, for an empty selector) and a read folds that list, in creation
// order, without examining any other series. The list is the store's, not a
// copy, so series minted after Select are in it the moment they exist.
// Results are identical to the Store methods of the same name given the same
// metric and selector. A Selection is immutable and safe for concurrent use.
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
		sel.filter = make(map[string]string, len(selector))
		for name, value := range selector {
			sel.filter[name] = value
		}
	}
	return sel
}

// AggOver is Store.AggOver over the selection.
func (sel *Selection) AggOver(now time.Time, window time.Duration) (Agg, bool) {
	sel.s.mu.RLock()
	defer sel.s.mu.RUnlock()
	return aggSeries(&sel.s.cfg, sel.from.srs, sel.filter, now, window, ResAuto)
}

// AvgOver is Store.AvgOver over the selection.
func (sel *Selection) AvgOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Avg(), ok
}

// MinOver is Store.MinOver over the selection.
func (sel *Selection) MinOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Min, ok
}

// MaxOver is Store.MaxOver over the selection.
func (sel *Selection) MaxOver(now time.Time, window time.Duration) (float64, bool) {
	agg, ok := sel.AggOver(now, window)
	return agg.Max, ok
}

// Metrics lists distinct metric names, sorted.
func (s *Store) Metrics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Series, 0, len(s.series))
	for _, sr := range s.sortedSeriesLocked() {
		copied := Series{Metric: sr.metric, Labels: sr.labels}
		copied.Samples = make([]Sample, 0, sr.rawN)
		for i := 0; i < sr.rawN; i++ {
			copied.Samples = append(copied.Samples, sr.rawAt(i))
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
// rendered under the read lock straight from each ring's newest slot — no
// sample history is copied — and written to w in one call after the lock is
// released, so a slow scraper never stalls appends.
func (s *Store) WritePrometheus(w io.Writer) error {
	_, err := w.Write(s.renderPrometheus())
	return err
}

func (s *Store) renderPrometheus() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b bytes.Buffer
	var keys []string
	lastMetric := ""
	for _, sr := range s.sortedSeriesLocked() {
		if sr.rawN == 0 {
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
		last := sr.rawAt(sr.rawN - 1)
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
