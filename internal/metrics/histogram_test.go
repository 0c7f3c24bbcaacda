package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// newHistogram returns a histogram with capacity preallocated for hint
// samples.
func newHistogram(hint int) *Histogram {
	return &Histogram{samples: make([]float64, 0, hint)}
}

func TestHistogramBasics(t *testing.T) {
	h := newHistogram(8)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := h.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	if got := h.Median(); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := h.Sum(); got != 15 {
		t.Errorf("Sum = %v, want 15", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Median() != 0 || h.Min() != 0 || h.Max() != 0 || h.StdDev() != 0 {
		t.Error("empty histogram must report zeros")
	}
	if pts := h.CDF(); pts != nil {
		t.Errorf("empty CDF = %v, want nil", pts)
	}
}

func TestHistogramIgnoresNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(2)
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1 (non-finite ignored)", h.Count())
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 100},
		{0.5, 50.5},
		{0.99, 99.01},
		{0.25, 25.75},
	}
	for _, tt := range tests {
		if got := h.Quantile(tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Median() // forces sort
	h.Observe(1)
	if got := h.Min(); got != 1 {
		t.Errorf("Min after late observe = %v, want 1", got)
	}
}

func TestHistogramStdDev(t *testing.T) {
	var h Histogram
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if got := h.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 1, 2, 3} {
		h.Observe(v)
	}
	pts := h.CDF()
	want := []CDFPoint{{Value: 1, Fraction: 0.5}, {Value: 2, Fraction: 0.75}, {Value: 3, Fraction: 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Reset()
	if h.Count() != 0 {
		t.Errorf("Count after reset = %d", h.Count())
	}
}

func TestHistogramSnapshotIsCopy(t *testing.T) {
	var h Histogram
	h.Observe(2)
	h.Observe(1)
	snap := h.Snapshot()
	snap[0] = 99
	if got := h.Min(); got != 1 {
		t.Errorf("mutating snapshot changed histogram: Min = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(1)
	s := h.Summary().String()
	if s == "" {
		t.Error("Summary.String is empty")
	}
}

// TestQuantileProperties property-checks quantile monotonicity and bounds.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false // must be monotone in q
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCDFProperties property-checks that the CDF is monotone in both value
// and fraction and ends at 1.
func TestCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			h.Observe(v)
		}
		pts := h.CDF()
		if h.Count() == 0 {
			return pts == nil
		}
		if pts[len(pts)-1].Fraction != 1 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(b.N)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

func BenchmarkHistogramP99(b *testing.B) {
	h := newHistogram(10000)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i * 7919 % 10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.P99()
	}
}
