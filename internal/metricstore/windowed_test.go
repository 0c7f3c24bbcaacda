package metricstore

import (
	"fmt"
	"testing"
	"time"
)

func TestAggOverBasics(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Append("mbps", nil, at(i), float64(i))
	}
	agg, ok := s.AggOver("mbps", nil, at(9), 3*time.Second)
	if !ok {
		t.Fatal("AggOver: no samples")
	}
	// Samples at t=6..9 (window inclusive at both ends).
	if agg.Count != 4 || agg.Sum != 30 || agg.Min != 6 || agg.Max != 9 {
		t.Errorf("agg = %+v", agg)
	}
	if agg.First.Value != 6 || agg.Last.Value != 9 {
		t.Errorf("first/last = %v/%v", agg.First, agg.Last)
	}
	if avg := agg.Avg(); avg != 7.5 {
		t.Errorf("Avg = %v, want 7.5", avg)
	}
	if _, ok := s.AggOver("ghost", nil, at(9), time.Second); ok {
		t.Error("AggOver on missing metric: want ok=false")
	}
}

// TestRollupRawEquivalence pins the rollup schema: on windows aligned to
// bucket boundaries (with samples strictly inside buckets), aggregates
// answered from the 10s and 5m rings must equal the raw answer exactly —
// same Sum, Count, Min, Max, and the identical first/last samples.
func TestRollupRawEquivalence(t *testing.T) {
	s := New(0)
	labels := map[string]string{"link": "a-b"}
	// 30 minutes of samples every 2s. Values are 0.25-quantized so every
	// partial sum is exactly representable in float64: bucket-sums-of-sums
	// equal the flat raw sum bit for bit, making Agg equality exact rather
	// than tolerance-based.
	for sec := 0; sec < 1800; sec += 2 {
		s.Append("headroom", labels, at(sec), float64((sec*7)%13)+0.25)
	}
	now := at(1799)
	for _, window := range []time.Duration{100 * time.Second, 10 * time.Minute, 25 * time.Minute} {
		r10, ok10 := s.AggOverRes("headroom", labels, now, window, Res10s)
		r5m, ok5m := s.AggOverRes("headroom", labels, now, window, Res5m)
		if !ok10 {
			t.Fatalf("window %v: r10 ok=%v", window, ok10)
		}
		// Rollup windows round out to bucket boundaries, so compare against
		// a raw query over the rounded-out window.
		from10 := now.Add(-window).Truncate(Rollup10sWidth)
		rawAligned10, _ := s.AggOverRes("headroom", labels, now, now.Sub(from10), ResRaw)
		if r10 != rawAligned10 {
			t.Errorf("window %v: 10s rollup %+v != raw-aligned %+v", window, r10, rawAligned10)
		}
		if ok5m {
			from5m := now.Add(-window).Truncate(Rollup5mWidth)
			rawAligned5m, _ := s.AggOverRes("headroom", labels, now, now.Sub(from5m), ResRaw)
			if r5m != rawAligned5m {
				t.Errorf("window %v: 5m rollup %+v != raw-aligned %+v", window, r5m, rawAligned5m)
			}
		}
	}
}

// TestRollupOutlivesRawRetention pins the fallback: once raw samples are
// evicted, ResAuto answers long windows from rollups instead of silently
// under-counting from the truncated raw ring.
func TestRollupOutlivesRawRetention(t *testing.T) {
	s := NewWithConfig(Config{MaxSamples: 10, Rollup10s: 1000, Rollup5m: 1000})
	for sec := 0; sec < 600; sec++ {
		s.Append("m", nil, at(sec), 1)
	}
	// Raw ring holds only the last 10 samples; a 10-minute window must still
	// see (roughly) all 600 via rollups.
	agg, ok := s.AggOver("m", nil, at(599), 600*time.Second)
	if !ok {
		t.Fatal("no samples")
	}
	if agg.Count != 600 {
		t.Errorf("auto agg count = %d, want 600 (rollup fallback)", agg.Count)
	}
	if agg.First.At != at(0) || agg.Last.At != at(599) {
		t.Errorf("first/last = %v/%v", agg.First.At, agg.Last.At)
	}
	// A short window fully covered by raw still answers from raw.
	short, _ := s.AggOver("m", nil, at(599), 5*time.Second)
	if short.Count != 6 {
		t.Errorf("short window count = %d, want 6", short.Count)
	}
}

// TestRetentionBound pins memory: per-series retention is exactly the
// configured caps regardless of how many samples flow through, across a
// 10k-series synthetic load.
func TestRetentionBound(t *testing.T) {
	cfg := Config{MaxSamples: 16, Rollup10s: 8, Rollup5m: 4, MaxSeries: 20000}
	s := NewWithConfig(cfg)
	const nSeries = 10000
	const epochs = 200 // each series sees 200 appends at 10s spacing
	labels := make([]map[string]string, nSeries)
	for i := range labels {
		labels[i] = map[string]string{"link": fmt.Sprintf("l%d", i)}
	}
	for e := 0; e < epochs; e++ {
		ts := at(10 * e)
		for i := 0; i < nSeries; i++ {
			s.Append("headroom", labels[i], ts, float64(e+i))
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if got := len(s.series); got != nSeries {
		t.Fatalf("series = %d, want %d", got, nSeries)
	}
	for _, sr := range s.series {
		if sr.rawN > cfg.MaxSamples || len(sr.raw) > cfg.MaxSamples {
			t.Fatalf("raw ring grew past cap: n=%d len=%d cap=%d", sr.rawN, len(sr.raw), cfg.MaxSamples)
		}
		if sr.r10.n > cfg.Rollup10s || len(sr.r10.buf) > cfg.Rollup10s {
			t.Fatalf("10s ring grew past cap: n=%d", sr.r10.n)
		}
		if sr.r5m.n > cfg.Rollup5m || len(sr.r5m.buf) > cfg.Rollup5m {
			t.Fatalf("5m ring grew past cap: n=%d", sr.r5m.n)
		}
	}
}

func TestCardinalityGuard(t *testing.T) {
	s := NewWithConfig(Config{MaxSeries: 3})
	for i := 0; i < 10; i++ {
		s.Append("m", map[string]string{"id": fmt.Sprintf("%d", i)}, at(i), 1)
	}
	stats := s.Stats()
	// 3 real series + the guard's own series.
	if stats.Series != 4 {
		t.Errorf("series = %d, want 4 (3 capped + guard)", stats.Series)
	}
	if stats.DroppedSamples != 7 {
		t.Errorf("dropped = %d, want 7", stats.DroppedSamples)
	}
	// The guard surfaces as an ordinary queryable metric.
	last, ok := s.Latest(MetricDroppedSamples, nil)
	if !ok || last.Value != 7 {
		t.Errorf("guard metric latest = %+v ok=%v, want 7", last, ok)
	}
	// Existing series keep accepting samples at the cap.
	s.Append("m", map[string]string{"id": "0"}, at(100), 2)
	if last, _ := s.Latest("m", map[string]string{"id": "0"}); last.Value != 2 {
		t.Errorf("existing series rejected at cap: %+v", last)
	}
}

// TestAggOverZeroAlloc pins the SLO evaluator's per-epoch read path: windowed
// aggregates must not allocate, whether through the selector-taking methods
// with a prebuilt selector or through a resolved Selection.
func TestAggOverZeroAlloc(t *testing.T) {
	s := New(0)
	labels := map[string]string{"link": "a-b"}
	for sec := 0; sec < 1000; sec++ {
		s.Append("headroom", labels, at(sec), float64(sec%17))
	}
	now := at(999)
	sel := s.Select("headroom", labels)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.AggOver("headroom", labels, now, 60*time.Second); !ok {
			t.Fatal("no samples")
		}
		if _, ok := sel.AggOver(now, 60*time.Second); !ok {
			t.Fatal("no samples through the selection")
		}
		_, _ = sel.MinOver(now, 60*time.Second)
	})
	if allocs > 0 {
		t.Errorf("windowed reads allocated %.1f times per run, want 0", allocs)
	}

	// Rollup reads, which rebuild the newest buckets from the raw ring, on a
	// series whose raw ring has evicted into both tiers.
	ev := NewWithConfig(Config{MaxSamples: 100})
	for sec := 0; sec < 1000; sec++ {
		ev.Append("headroom", labels, at(sec), float64(sec%17))
	}
	allocs = testing.AllocsPerRun(100, func() {
		for _, res := range []Resolution{Res10s, Res5m, ResAuto} {
			if _, ok := ev.AggOverRes("headroom", labels, now, 900*time.Second, res); !ok {
				t.Fatal("no samples")
			}
		}
	})
	if allocs > 0 {
		t.Errorf("rollup reads allocated %.1f times per run, want 0", allocs)
	}
}

// TestRollupsHoldOnlyEvicted pins the memory shape: a sample is kept once.
// While the raw ring has room no rollup bucket is stored, yet rollup reads
// answer as before; once it wraps, a tier stores only the buckets of evicted
// samples.
func TestRollupsHoldOnlyEvicted(t *testing.T) {
	s := NewWithConfig(Config{MaxSamples: 600})
	for sec := 0; sec < 600; sec++ {
		s.Append("m", nil, at(sec), 1)
	}
	sr := s.series[seriesKey("m", nil)]
	if sr.r10.n != 0 || sr.r5m.n != 0 || sr.r10.buf != nil || sr.r5m.buf != nil {
		t.Fatalf("unfilled raw ring: 10s/5m tiers hold %d/%d closed buckets, want 0/0", sr.r10.n, sr.r5m.n)
	}
	if agg, _ := s.AggOverRes("m", nil, at(599), 599*time.Second, Res10s); agg.Count != 600 {
		t.Errorf("10s read over an unfilled raw ring counts %d samples, want 600", agg.Count)
	}
	// 60 more samples evict seconds 0..59: six 10s buckets close, and the
	// 5m bucket holding them is still open.
	for sec := 600; sec < 660; sec++ {
		s.Append("m", nil, at(sec), 1)
	}
	if sr.r10.n != 5 || sr.r10.open.count != 10 || sr.r5m.n != 0 || sr.r5m.open.count != 60 {
		t.Errorf("after 60 evictions: 10s tier %d closed + %d open, 5m tier %d closed + %d open; want 5+10, 0+60",
			sr.r10.n, sr.r10.open.count, sr.r5m.n, sr.r5m.open.count)
	}
}

// TestRingQueryOrder pins that Query/Snapshot unwrap the raw ring in time
// order after wraparound.
func TestRingQueryOrder(t *testing.T) {
	s := NewWithConfig(Config{MaxSamples: 4})
	for i := 0; i < 10; i++ {
		s.Append("m", nil, at(i), float64(i))
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Samples) != 4 {
		t.Fatalf("query = %+v", got)
	}
	for i, smp := range got[0].Samples {
		if smp.Value != float64(6+i) {
			t.Errorf("sample[%d] = %v, want %v", i, smp.Value, 6+i)
		}
	}
}

// BenchmarkAppendRetained measures the steady-state append path at the
// retention cap (ring overwrite + two rollup folds), which used to be an
// O(MaxSamples) copy-shift per append.
func BenchmarkAppendRetained(b *testing.B) {
	s := NewWithConfig(Config{MaxSamples: 1024})
	labels := map[string]string{"link": "a-b"}
	for i := 0; i < 2048; i++ {
		s.Append("m", labels, at(i), float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append("m", labels, at(2048+i), float64(i))
	}
}

// BenchmarkRetention10kSeries is the synthetic million-user-day shape: 10k
// series under continuous load, memory bounded by per-series caps.
func BenchmarkRetention10kSeries(b *testing.B) {
	cfg := Config{MaxSamples: 64, Rollup10s: 32, Rollup5m: 8, MaxSeries: 20000}
	s := NewWithConfig(cfg)
	const nSeries = 10000
	labels := make([]map[string]string, nSeries)
	for i := range labels {
		labels[i] = map[string]string{"link": fmt.Sprintf("l%d", i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append("headroom", labels[i%nSeries], at(10*(i/nSeries)), float64(i))
	}
}
