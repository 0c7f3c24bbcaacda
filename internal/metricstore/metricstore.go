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
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

	raw            []Sample
	rawStart, rawN int
	// unordered is set, for good, by the first append older than its
	// predecessor. While clear the ring is sorted by At and window reads
	// binary-search it; once set they scan the whole ring.
	unordered bool
}

func (sr *series) append(cfg Config, smp Sample) {
	if sr.rawN > 0 && smp.At.Before(sr.rawAt(sr.rawN-1).At) {
		sr.unordered = true
	}
	if sr.rawN < cfg.MaxSamples {
		sr.raw = append(sr.raw, smp)
		sr.rawN++
		return
	}
	sr.raw[sr.rawStart] = smp
	sr.rawStart = (sr.rawStart + 1) % len(sr.raw)
}

func (sr *series) rawAt(i int) Sample {
	if i += sr.rawStart; i >= len(sr.raw) {
		i -= len(sr.raw) // one wrap at most (i < rawN ≤ len); a % here costs a division per sample folded
	}
	return sr.raw[i]
}

// Store holds series in memory. It is safe for concurrent use. Each series
// is capped at Config.MaxSamples samples (the oldest evicted first), bounding
// memory for long runs.
type Store struct {
	mu       sync.RWMutex
	cfg      Config
	series   map[string]*series
	byMetric map[string]*metricIndex
	dropped  uint64 // samples refused by the cardinality guard
	// visited counts the samples window reads have examined: a work count
	// for the complexity tests. Reads share the lock, so it is atomic.
	visited atomic.Uint64
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
func (s *Store) Append(metric string, labels map[string]string, at time.Time, value float64) {
	key := seriesKey(metric, labels)
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[key]
	if !ok {
		if len(s.series) >= s.cfg.MaxSeries {
			s.dropped++
			gk := seriesKey(metricDroppedSamples, nil)
			guard, ok := s.series[gk]
			if !ok {
				guard = s.newSeriesLocked(metricDroppedSamples, nil, gk)
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

// SamplesVisited is how many samples window reads (AggOver and its
// Selection twins) have walked after their binary search, over the store's
// life.
func (s *Store) SamplesVisited() uint64 { return s.visited.Load() }

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
		copied := Series{Metric: sr.metric, Labels: copyLabels(sr.labels)}
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

func (a *Agg) foldSample(s Sample) {
	if a.Count == 0 {
		a.Min, a.Max = s.Value, s.Value
	} else {
		if s.Value < a.Min {
			a.Min = s.Value
		}
		if s.Value > a.Max {
			a.Max = s.Value
		}
	}
	a.Sum += s.Value
	a.Count++
}

// aggInto folds the series' samples in [from, to] into a, oldest first, and
// returns how many samples its walk took in after the search. The fold starts at
// the first sample a walk of the whole ring would select and stops at the
// first one past the window, so it visits exactly the samples that walk
// selects, in the same order — sums are bit-equal to it. An unordered ring
// is walked whole.
func (sr *series) aggInto(a *Agg, from, to time.Time) (visited int) {
	i := 0
	if !sr.unordered {
		i = sort.Search(sr.rawN, func(i int) bool { return !sr.rawAt(i).At.Before(from) })
	}
	start := i
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
	return i - start
}

// aggSeries is the one window fold behind every windowed read: the series of
// srs matching selector, in slice (= creation) order, each folded over
// [now-window, now]. Callers hold the store lock.
func (s *Store) aggSeries(srs []*series, selector map[string]string, now time.Time, window time.Duration) (Agg, bool) {
	from := now.Add(-window)
	var agg Agg
	visited := 0
	for _, sr := range srs {
		if matchesLabels(sr.labels, selector) {
			visited += sr.aggInto(&agg, from, now)
		}
	}
	s.visited.Add(uint64(visited))
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	sel.s.mu.RLock()
	defer sel.s.mu.RUnlock()
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
		copied := Series{Metric: sr.metric, Labels: copyLabels(sr.labels)}
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
