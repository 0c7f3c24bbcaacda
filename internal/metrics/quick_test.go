package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// sampleSet is a non-empty batch of finite samples for property tests.
// Generate draws 1–64 values spread across several orders of magnitude,
// including negatives and exact duplicates, the shapes that break naive
// order-statistic code.
type sampleSet []float64

func (sampleSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(64)
	s := make(sampleSet, n)
	for i := range s {
		v := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(7)-3))
		if i > 0 && r.Intn(4) == 0 {
			v = s[r.Intn(i)] // force duplicates
		}
		s[i] = v
	}
	return reflect.ValueOf(s)
}

func histOf(s sampleSet) *Histogram {
	h := newHistogram(len(s))
	for _, v := range s {
		h.Observe(v)
	}
	return h
}

// TestQuickQuantileInvariants checks, for arbitrary sample sets: the
// extremes hit Min/Max exactly, quantiles are monotone in q, every quantile
// stays inside [Min, Max], and Min ≤ Mean ≤ Max.
func TestQuickQuantileInvariants(t *testing.T) {
	prop := func(s sampleSet, qa, qb float64) bool {
		h := histOf(s)
		qa, qb = math.Abs(qa)-math.Floor(math.Abs(qa)), math.Abs(qb)-math.Floor(math.Abs(qb))
		if qa > qb {
			qa, qb = qb, qa
		}
		lo, hi := h.Min(), h.Max()
		if h.Quantile(0) != lo || h.Quantile(1) != hi {
			t.Logf("extremes: q0=%v min=%v q1=%v max=%v", h.Quantile(0), lo, h.Quantile(1), hi)
			return false
		}
		va, vb := h.Quantile(qa), h.Quantile(qb)
		if va > vb {
			t.Logf("monotonicity: Q(%v)=%v > Q(%v)=%v", qa, va, qb, vb)
			return false
		}
		if va < lo || vb > hi {
			t.Logf("range: Q(%v)=%v Q(%v)=%v outside [%v, %v]", qa, va, qb, vb, lo, hi)
			return false
		}
		mean := h.Mean()
		// Summation order can nudge the mean past an extreme by rounding when
		// all samples are (nearly) equal; allow a relative epsilon.
		eps := 1e-9 * math.Max(math.Abs(lo), math.Abs(hi))
		if mean < lo-eps || mean > hi+eps {
			t.Logf("mean %v outside [%v, %v]", mean, lo, hi)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickCDFInvariants checks, for arbitrary sample sets: CDF values are
// strictly increasing, fractions are monotone non-decreasing in (0, 1], the
// final fraction is exactly 1, and the CDF agrees with a direct count of
// samples ≤ v at every point.
func TestQuickCDFInvariants(t *testing.T) {
	prop := func(s sampleSet) bool {
		h := histOf(s)
		cdf := h.CDF()
		if len(cdf) == 0 {
			return false
		}
		if last := cdf[len(cdf)-1].Fraction; last != 1 {
			t.Logf("final fraction %v != 1", last)
			return false
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		prevFrac := 0.0
		for i, p := range cdf {
			if i > 0 && cdf[i-1].Value >= p.Value {
				t.Logf("values not strictly increasing at %d: %v >= %v", i, cdf[i-1].Value, p.Value)
				return false
			}
			if p.Fraction <= prevFrac || p.Fraction > 1 {
				t.Logf("fraction out of order at %d: %v after %v", i, p.Fraction, prevFrac)
				return false
			}
			prevFrac = p.Fraction
			count := sort.SearchFloat64s(sorted, p.Value)
			for count < len(sorted) && sorted[count] == p.Value {
				count++
			}
			if want := float64(count) / float64(len(sorted)); p.Fraction != want {
				t.Logf("fraction at %v = %v, want %v", p.Value, p.Fraction, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickQuantileMatchesSnapshot cross-checks Quantile against the sorted
// snapshot: for q = k/(n-1) the quantile must be the k-th order statistic
// exactly (no interpolation at lattice points).
func TestQuickQuantileMatchesSnapshot(t *testing.T) {
	prop := func(s sampleSet) bool {
		h := histOf(s)
		sorted := h.Snapshot()
		n := len(sorted)
		if n == 1 {
			return h.Quantile(0.5) == sorted[0]
		}
		for k := 0; k < n; k++ {
			q := float64(k) / float64(n-1)
			got := h.Quantile(q)
			// pos = q*(n-1) lands on an integer only up to rounding; accept
			// either neighbouring order statistic at the boundary.
			if got != sorted[k] {
				lo := int(math.Floor(q * float64(n-1)))
				if lo >= 0 && lo < n-1 && (got < sorted[lo] || got > sorted[lo+1]) {
					t.Logf("Q(%v)=%v not in [%v, %v]", q, got, sorted[lo], sorted[lo+1])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
