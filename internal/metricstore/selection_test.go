package metricstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// eagerModel is the reference the window fold is checked against. It knows
// nothing of the store's layout: it records every sample appended, per series
// in creation order, and rebuilds from them the store as it was when every
// append folded eagerly into both rollup tiers — a raw ring of the newest
// MaxSamples samples, and per tier every closed bucket, of which the newest
// capN are retained — then answers by walking each of those end to end with a
// per-entry window test.
type eagerModel struct {
	cfg     Config
	order   map[string][]string // metric -> series keys in creation order
	labels  map[string]map[string]string
	samples map[string][]Sample
}

func newEagerModel(cfg Config) *eagerModel {
	return &eagerModel{cfg: cfg.withDefaults(), order: map[string][]string{},
		labels: map[string]map[string]string{}, samples: map[string][]Sample{}}
}

func (m *eagerModel) append(metric string, labels map[string]string, at time.Time, v float64) {
	key := seriesKey(metric, labels)
	if _, ok := m.samples[key]; !ok {
		m.order[metric] = append(m.order[metric], key)
		m.labels[key] = labels
	}
	m.samples[key] = append(m.samples[key], Sample{At: at, Value: v})
}

// eagerTier is one rollup tier folded from every append.
type eagerTier struct {
	width          time.Duration
	kept           []bucket // the newest capN closed buckets
	open           bucket
	evicted        bool
	evictedThrough time.Time
}

func foldEager(samples []Sample, width time.Duration, capN int) eagerTier {
	t := eagerTier{width: width}
	var closed []bucket
	for _, smp := range samples {
		bs := smp.At.Truncate(width)
		switch {
		case t.open.count == 0:
			t.open.reset(bs, smp)
		case bs.After(t.open.start):
			closed = append(closed, t.open)
			t.open.reset(bs, smp)
		default:
			t.open.fold(smp)
		}
	}
	if len(closed) > capN {
		t.evicted = true
		t.evictedThrough = closed[len(closed)-capN-1].start.Add(width)
		closed = closed[len(closed)-capN:]
	}
	t.kept = closed
	return t
}

// eagerSeries is one series as the eager store held it.
type eagerSeries struct {
	labels         map[string]string
	raw            []Sample
	evicted        bool
	evictedThrough time.Time
	r10, r5m       eagerTier
}

// build snapshots the eager store: metric -> series in creation order.
func (m *eagerModel) build() map[string][]eagerSeries {
	out := map[string][]eagerSeries{}
	for metric, keys := range m.order {
		for _, key := range keys {
			all := m.samples[key]
			es := eagerSeries{labels: m.labels[key], raw: all}
			if drop := len(all) - m.cfg.MaxSamples; drop > 0 {
				es.evicted = true
				for _, smp := range all[:drop] {
					if smp.At.After(es.evictedThrough) {
						es.evictedThrough = smp.At
					}
				}
				es.raw = all[drop:]
			}
			es.r10 = foldEager(all, Rollup10sWidth, m.cfg.Rollup10s)
			es.r5m = foldEager(all, Rollup5mWidth, m.cfg.Rollup5m)
			out[metric] = append(out[metric], es)
		}
	}
	return out
}

func refAgg(snap map[string][]eagerSeries, metric string, selector map[string]string, now time.Time, window time.Duration, res Resolution) (Agg, bool) {
	from := now.Add(-window)
	var a Agg
	for _, es := range snap[metric] {
		match := true
		for k, v := range selector {
			if got, ok := es.labels[k]; !ok || got != v {
				match = false
			}
		}
		if !match {
			continue
		}
		r := res
		if r == ResAuto {
			switch {
			case !es.evicted || from.After(es.evictedThrough):
				r = ResRaw
			case !es.r10.evicted || from.After(es.r10.evictedThrough):
				r = Res10s
			default:
				r = Res5m
			}
		}
		tier := &es.r10
		switch r {
		case ResRaw:
			for _, smp := range es.raw {
				if !smp.At.Before(from) && !smp.At.After(now) {
					a.foldSample(smp)
				}
			}
			continue
		case Res5m:
			tier = &es.r5m
		}
		for i := range tier.kept {
			if b := &tier.kept[i]; bucketOverlaps(b, tier.width, from, now) {
				a.foldBucket(b)
			}
		}
		if tier.open.count > 0 && bucketOverlaps(&tier.open, tier.width, from, now) {
			a.foldBucket(&tier.open)
		}
	}
	return a, a.Count > 0
}

// TestWindowFoldDifferential drives random stores — few or many series,
// rings small enough to wrap and to push windows down to both rollup tiers,
// ties, gaps, out-of-order appends, selections taken before and after the
// series they match were minted — and requires the window fold, through the
// Store methods at every resolution and through Selections, to equal the
// eager reference model on every field, sums bit for bit.
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
	resolutions := []Resolution{ResAuto, ResRaw, Res10s, Res5m}

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			MaxSamples: 2 + rng.Intn(40),
			Rollup10s:  1 + rng.Intn(12),
			Rollup5m:   1 + rng.Intn(6),
		}
		s := NewWithConfig(cfg)
		model := newEagerModel(cfg)
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
		var snap map[string][]eagerSeries // the model at the current append
		verify := func(now time.Time, edges bool) {
			// With edges, besides the fixed windows start one at, just
			// before and just after every eviction edge, where ResAuto
			// changes tier; only ResAuto reads are checked on those.
			ws := append([]time.Duration(nil), windows...)
			for _, es := range snap["m"] {
				if !edges {
					break
				}
				for _, edge := range []time.Time{es.evictedThrough, es.r10.evictedThrough} {
					for _, d := range []time.Duration{-time.Second, 0, time.Second} {
						if w := now.Sub(edge.Add(d)); !edge.IsZero() && w >= 0 {
							ws = append(ws, w)
						}
					}
				}
			}
			for si, selector := range selectors {
				for wi, w := range ws {
					want, wantOK := refAgg(snap, "m", selector, now, w, ResAuto)
					for _, res := range resolutions {
						if res != ResAuto && wi >= len(windows) {
							continue
						}
						ref, refOK := want, wantOK
						if res != ResAuto {
							ref, refOK = refAgg(snap, "m", selector, now, w, res)
						}
						if got, gotOK := s.AggOverRes("m", selector, now, w, res); got != ref || gotOK != refOK {
							t.Errorf("seed %d: AggOverRes(%v, %v, res %d) = %+v %v, reference %+v %v", seed, selector, w, res, got, gotOK, ref, refOK)
							ok = false
						}
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
				// Window edges landing exactly on bucket boundaries.
				verify(now.Truncate(Rollup10sWidth), false)
				verify(now.Truncate(Rollup5mWidth), false)
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
// map, and keeps creation order.
func TestSelectionTracksNewSeries(t *testing.T) {
	s := New(0)
	selector := map[string]string{"app": "cam"}
	sel := s.Select("goodput", selector)
	selector["app"] = "mutated"
	if _, ok := sel.AggOver(at(10), time.Hour); ok {
		t.Fatal("selection on an empty store: want ok=false")
	}
	s.Append("goodput", map[string]string{"app": "cam", "edge": "1"}, at(1), 0.25)
	s.Append("goodput", map[string]string{"app": "web"}, at(2), 100)
	s.Append("goodput", map[string]string{"app": "cam", "edge": "0"}, at(3), 0.5)
	s.Append("goodput", map[string]string{"app": "mutated"}, at(3), 1000)
	agg, ok := sel.AggOver(at(10), time.Hour)
	if !ok || agg.Count != 2 || agg.Sum != 0.75 || agg.First.Value != 0.25 || agg.Last.Value != 0.5 {
		t.Fatalf("selection after minting = %+v ok=%v, want the two cam series", agg, ok)
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
