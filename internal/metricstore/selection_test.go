package metricstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// ringModel is the reference the window fold is checked against. It knows
// nothing of the store's layout: it records every sample appended, per series
// in creation order, keeps the newest MaxSamples of each, and answers by
// walking those end to end with a per-sample window test.
type ringModel struct {
	cfg     Config
	order   map[string][]string // metric -> series keys in creation order
	labels  map[string]map[string]string
	samples map[string][]Sample
}

func newRingModel(cfg Config) *ringModel {
	return &ringModel{cfg: cfg.withDefaults(), order: map[string][]string{},
		labels: map[string]map[string]string{}, samples: map[string][]Sample{}}
}

func (m *ringModel) append(metric string, labels map[string]string, at time.Time, v float64) {
	key := seriesKey(metric, labels)
	if _, ok := m.samples[key]; !ok {
		m.order[metric] = append(m.order[metric], key)
		m.labels[key] = labels
	}
	m.samples[key] = append(m.samples[key], Sample{At: at, Value: v})
}

// modelSeries is one series as the model retains it: its newest MaxSamples
// samples in append order.
type modelSeries struct {
	labels map[string]string
	kept   []Sample
}

// build snapshots the model: metric -> series in creation order.
func (m *ringModel) build() map[string][]modelSeries {
	out := map[string][]modelSeries{}
	for metric, keys := range m.order {
		for _, key := range keys {
			kept := m.samples[key]
			if drop := len(kept) - m.cfg.MaxSamples; drop > 0 {
				kept = kept[drop:]
			}
			out[metric] = append(out[metric], modelSeries{labels: m.labels[key], kept: kept})
		}
	}
	return out
}

func refAgg(snap map[string][]modelSeries, metric string, selector map[string]string, now time.Time, window time.Duration) (Agg, bool) {
	from := now.Add(-window)
	var a Agg
	for _, ms := range snap[metric] {
		match := true
		for k, v := range selector {
			if got, ok := ms.labels[k]; !ok || got != v {
				match = false
			}
		}
		if !match {
			continue
		}
		for _, smp := range ms.kept {
			if !smp.At.Before(from) && !smp.At.After(now) {
				a.fold(smp.Value)
			}
		}
	}
	return a, a.Count > 0
}

// TestWindowFoldDifferential drives random stores — few or many series,
// rings small enough to wrap, ties, gaps, out-of-order appends, selections
// taken before and after the series they match were minted — and requires
// the window fold, through Store.AggOver and through Selections, to equal the
// ring reference model on every field, sums bit for bit.
func TestWindowFoldDifferential(t *testing.T) {
	labelSets := []map[string]string{
		nil,
		{"a": "x"},
		{"a": ""},
		{"a": "x", "b": "p"},
		{"a": "x", "b": "q"},
		{"a": "y"},
		{"b": "p"},
		{"a": "y", "b": "p", "c": "z"},
		// Enough a=x series that the label's list outgrows its inline buffer.
		{"a": "x", "c": "1"},
		{"a": "x", "c": "2"},
		{"a": "x", "b": "p", "c": "z"},
	}
	selectors := []map[string]string{
		nil,
		{},
		{"a": "x"},
		{"a": ""},
		{"b": "p"},
		{"a": "x", "b": "q"},
		{"c": "z"},
		{"a": "nobody"},
	}
	windows := []time.Duration{0, time.Second, 29 * time.Second, 5 * time.Minute, time.Hour, 48 * time.Hour}

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MaxSamples: 2 + rng.Intn(40)}
		s := NewWithConfig(cfg)
		model := newRingModel(cfg)
		unordered := rng.Intn(3) == 0
		steps := 30 + rng.Intn(500)
		// Selections are taken at random points of the append stream; label
		// sets are introduced progressively, so most selections predate some
		// of the series they must come to include.
		sels := make([]*Selection, len(selectors))
		selectAt := make([]int, len(selectors))
		for i := range selectAt {
			selectAt[i] = rng.Intn(steps)
		}
		ok := true
		var snap map[string][]modelSeries // the model at the current append
		verify := func(now time.Time, edges bool) {
			// With edges, besides the fixed windows start one just before, at
			// and just after every series' oldest retained sample, where a
			// window stops reaching past retention.
			ws := append([]time.Duration(nil), windows...)
			for _, ms := range snap["m"] {
				if !edges {
					break
				}
				oldest := ms.kept[0].At
				for _, d := range []time.Duration{-time.Second, 0, time.Second} {
					if w := now.Sub(oldest.Add(d)); w >= 0 {
						ws = append(ws, w)
					}
				}
			}
			for si, selector := range selectors {
				for _, w := range ws {
					want, wantOK := refAgg(snap, "m", selector, now, w)
					if got, gotOK := s.AggOver("m", selector, now, w); got != want || gotOK != wantOK {
						t.Errorf("seed %d: AggOver(%v, %v) = %+v %v, reference %+v %v", seed, selector, w, got, gotOK, want, wantOK)
						ok = false
					}
					sel := sels[si]
					if sel == nil {
						continue
					}
					if got, gotOK := sel.AggOver(now, w); got != want || gotOK != wantOK {
						t.Errorf("seed %d: Selection(%v).AggOver(%v) = %+v %v, reference %+v %v", seed, selector, w, got, gotOK, want, wantOK)
						ok = false
					}
					avg, _ := sel.AvgOver(now, w)
					mn, _ := sel.MinOver(now, w)
					mx, _ := sel.MaxOver(now, w)
					if avg != want.Avg() || mn != want.Min || mx != want.Max {
						t.Errorf("seed %d: Selection(%v) avg/min/max over %v = %v/%v/%v, reference %v/%v/%v", seed, selector, w, avg, mn, mx, want.Avg(), want.Min, want.Max)
						ok = false
					}
				}
			}
		}
		clock := time.Duration(0)
		for step := 0; step < steps && ok; step++ {
			switch rng.Intn(10) {
			case 0: // tie with the previous sample
			case 1:
				clock += time.Duration(rng.Intn(900)) * time.Second
			default:
				clock += time.Duration(rng.Intn(40000)) * time.Millisecond
			}
			stamp := clock
			if unordered && rng.Intn(6) == 0 {
				stamp -= time.Duration(rng.Intn(120000)) * time.Millisecond
			}
			known := 1 + step*len(labelSets)/steps // label sets in play so far
			ts := time.Unix(0, 0).UTC().Add(stamp)
			ls, v := labelSets[rng.Intn(known)], rng.NormFloat64()*10
			s.Append("m", ls, ts, v)
			model.append("m", ls, ts, v)
			if rng.Intn(4) == 0 {
				ls := labelSets[rng.Intn(len(labelSets))]
				s.Append("other", ls, ts, 1e6)
				model.append("other", ls, ts, 1e6)
			}
			for i := range sels {
				if selectAt[i] == step {
					sels[i] = s.Select("m", selectors[i])
				}
			}
			if rng.Intn(25) == 0 || step == steps-1 {
				now := time.Unix(0, 0).UTC().Add(clock)
				snap = model.build()
				verify(now, true)
				verify(now.Add(-time.Duration(rng.Intn(90))*time.Second), false)
				verify(now.Add(time.Duration(rng.Intn(400))*time.Second), false)
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestSelectionTracksNewSeries pins the lifecycle by hand: a selection taken
// on an empty store picks up matching series as they are minted, ignores
// non-matching ones, is unaffected by later edits to the caller's selector
// map, and keeps creation order. The cam values make the float64 sum depend
// on that order: folded in creation order, 1e16+1 rounds back to 1e16 and the
// sum is 0; folded in key order (edge 0, 1, 2) the large pair cancels first
// and the sum is 1.
func TestSelectionTracksNewSeries(t *testing.T) {
	s := New(0)
	selector := map[string]string{"app": "cam"}
	sel := s.Select("goodput", selector)
	selector["app"] = "mutated"
	if _, ok := sel.AggOver(at(10), time.Hour); ok {
		t.Fatal("selection on an empty store: want ok=false")
	}
	s.Append("goodput", map[string]string{"app": "cam", "edge": "1"}, at(1), 1e16)
	s.Append("goodput", map[string]string{"app": "web"}, at(2), 100)
	s.Append("goodput", map[string]string{"app": "cam", "edge": "2"}, at(3), 1)
	s.Append("goodput", map[string]string{"app": "mutated"}, at(3), 1000)
	s.Append("goodput", map[string]string{"app": "cam", "edge": "0"}, at(4), -1e16)
	agg, ok := sel.AggOver(at(10), time.Hour)
	if !ok || agg.Count != 3 || agg.Sum != 0 || agg.Min != -1e16 || agg.Max != 1e16 {
		t.Fatalf("selection after minting = %+v ok=%v, want the three cam series folded in creation order (sum 0)", agg, ok)
	}
	if want, _ := s.AggOver("goodput", map[string]string{"app": "cam"}, at(10), time.Hour); agg != want {
		t.Errorf("selection %+v != store %+v", agg, want)
	}
}

// historyWindow spans the newest ten samples of a historyStore series (both
// ends inclusive), however many epochs it retains.
const historyWindow = 9 * 30 * time.Second

// historyStore fills one series per app with epochs samples at 30 s spacing
// — the SLO evaluator's slo_good shape — and returns the time of the last.
func historyStore(apps, epochs int) (*Store, time.Time) {
	s := New(0)
	for a := 0; a < apps; a++ {
		h := s.Handle("slo_good", map[string]string{"slo": fmt.Sprintf("goodput/app%04d", a)})
		for e := 0; e < epochs; e++ {
			h.Append(at(30*e), float64(e%7%2))
		}
	}
	return s, at(30 * (epochs - 1))
}

// BenchmarkAggOverHistory reads the newest ten samples of one series among
// 1,400, through the selector-taking method and through a Selection, with 10
// and 1,000 epochs retained. The window is the same either way, so ns/op
// must not follow the history (TestAggOverCostIgnoresHistory pins that for
// the Selection).
func BenchmarkAggOverHistory(b *testing.B) {
	for _, epochs := range []int{10, 1000} {
		s, now := historyStore(1400, epochs)
		selector := map[string]string{"slo": "goodput/app0700"}
		sel := s.Select("slo_good", selector)
		b.Run(fmt.Sprintf("store/epochs=%d", epochs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				aggSink, _ = s.AggOver("slo_good", selector, now, historyWindow)
			}
		})
		b.Run(fmt.Sprintf("selection/epochs=%d", epochs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				aggSink, _ = sel.AggOver(now, historyWindow)
			}
		})
	}
}

var aggSink Agg
