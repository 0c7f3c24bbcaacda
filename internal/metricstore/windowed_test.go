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
	if avg := agg.Avg(); avg != 7.5 {
		t.Errorf("Avg = %v, want 7.5", avg)
	}
	if _, ok := s.AggOver("ghost", nil, at(9), time.Second); ok {
		t.Error("AggOver on missing metric: want ok=false")
	}
}

// TestWindowPastRetentionFoldsRetained pins the retention contract: a
// window that reaches past the oldest retained sample folds only the samples
// the ring still holds, and a window inside retention is unaffected.
func TestWindowPastRetentionFoldsRetained(t *testing.T) {
	s := NewWithConfig(Config{MaxSamples: 10})
	for sec := 0; sec < 600; sec++ {
		s.Append("m", nil, at(sec), 1)
	}
	// The ring holds seconds 590..599; a 10-minute window reaches back to 0.
	agg, ok := s.AggOver("m", nil, at(599), 600*time.Second)
	if !ok || agg.Count != 10 || agg.Sum != 10 {
		t.Errorf("600 s window = %+v ok=%v, want the 10 retained samples", agg, ok)
	}
	short, _ := s.AggOver("m", nil, at(599), 5*time.Second)
	if short.Count != 6 {
		t.Errorf("5 s window count = %d, want 6", short.Count)
	}
}

// TestRetentionBound pins memory: per-series retention is exactly the
// configured cap regardless of how many samples flow through, across a
// 10k-series synthetic load.
func TestRetentionBound(t *testing.T) {
	cfg := Config{MaxSamples: 16, MaxSeries: 20000}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if got := len(s.series); got != nSeries {
		t.Fatalf("series = %d, want %d", got, nSeries)
	}
	// Live records and the records the chunks hold stay within the cap.
	for _, sr := range s.series {
		if sr.n > cfg.MaxSamples {
			t.Fatalf("series %q holds %d live records, cap %d", sr.key, sr.n, cfg.MaxSamples)
		}
	}
	checkLayout(t, epochs, s, cfg.MaxSamples)
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
	last, ok := s.Latest(metricDroppedSamples, nil)
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
// retention cap (one ring overwrite), which used to be an O(MaxSamples)
// copy-shift per append.
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
	cfg := Config{MaxSamples: 64, MaxSeries: 20000}
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

// BenchmarkHandleAppend is the per-epoch write path: one append through a
// pre-resolved handle, as the SLO evaluator and the monitor's headroom
// series make, onto a full ring (the write is a lock and a record store).
func BenchmarkHandleAppend(b *testing.B) {
	s := NewWithConfig(Config{MaxSamples: 1024})
	h := s.Handle("slo_good", map[string]string{"slo": "goodput/app0001"})
	for i := 0; i < 1024; i++ {
		h.Append(at(i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Append(at(1024+i), 1)
	}
}
