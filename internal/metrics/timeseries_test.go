package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeSeriesAppendAndAt(t *testing.T) {
	ts := NewTimeSeries(4)
	ts.Append(0, 1)
	ts.Append(time.Second, 2)
	ts.Append(2*time.Second, 3)

	if got := ts.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	v, ok := ts.At(1500 * time.Millisecond)
	if !ok || v != 2 {
		t.Errorf("At(1.5s) = %v,%v, want 2,true", v, ok)
	}
	if _, ok := ts.At(-time.Second); ok {
		t.Error("At before first point must report ok=false")
	}
	v, ok = ts.At(10 * time.Second)
	if !ok || v != 3 {
		t.Errorf("At(10s) = %v,%v, want last value 3", v, ok)
	}
}

func TestTimeSeriesOutOfOrderInsert(t *testing.T) {
	ts := NewTimeSeries(0)
	ts.Append(2*time.Second, 3)
	ts.Append(0, 1)
	ts.Append(time.Second, 2)
	pts := ts.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatalf("points not sorted: %v", pts)
		}
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Errorf("points = %v", pts)
	}
}

func TestTimeSeriesMean(t *testing.T) {
	ts := NewTimeSeries(0)
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		ts.Append(time.Duration(i)*time.Second, v)
	}
	if got := ts.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

// TestAtMatchesLinearScan property-checks the binary-search lookup against a
// naive scan.
func TestAtMatchesLinearScan(t *testing.T) {
	f := func(offsets []uint16, query uint16) bool {
		ts := NewTimeSeries(0)
		for i, off := range offsets {
			ts.Append(time.Duration(off)*time.Millisecond, float64(i))
		}
		q := time.Duration(query) * time.Millisecond
		got, gotOK := ts.At(q)
		// Naive scan over the sorted points.
		var want float64
		wantOK := false
		for _, p := range ts.Points() {
			if p.At <= q {
				want = p.Value
				wantOK = true
			}
		}
		return got == want && gotOK == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
