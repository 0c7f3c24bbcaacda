package trace

import (
	"math/rand"
	"testing"
	"time"
)

// model is the per-sample reference a Trace must read like: the samples in a
// plain slice, read by index arithmetic. It shares no code with the runs.
type model struct {
	step time.Duration
	xs   []float64
}

// at is At by indexing: clamp before zero, wrap past the end.
func (m model) at(d time.Duration) float64 {
	if len(m.xs) == 0 {
		return 0
	}
	if d < 0 {
		return m.xs[0]
	}
	return m.xs[int(d/m.step)%len(m.xs)]
}

// nextChangeAfter is NextChangeAfter by brute force: walk the sample
// boundaries k·step after d, one by one, until a sample differs from the one
// before it (across the wrap). One cycle of boundaries visits every pair of
// neighbours, so a trace with no change in it never changes.
func (m model) nextChangeAfter(d time.Duration) (time.Duration, bool) {
	n := len(m.xs)
	k := 1
	if d >= 0 {
		k = int(d/m.step) + 1
	}
	for j := 0; j < n; j, k = j+1, k+1 {
		if m.xs[k%n] != m.xs[(k-1)%n] {
			return time.Duration(k) * m.step, true
		}
	}
	return 0, false
}

// stepModel evaluates StepTrace's rule at every sample: the last level in
// slice order whose From ≤ i·step, or 0 while none applies.
func stepModel(step, total time.Duration, levels []Level) model {
	m := model{step: step, xs: make([]float64, int(total/step))}
	for i := range m.xs {
		for _, l := range levels {
			if l.From <= time.Duration(i)*step {
				m.xs[i] = l.Mbps
			}
		}
	}
	return m
}

// fromSamples builds a trace from samples through the constructors' shared
// samples→runs helper, the path of Generate, ReadCSV and RollingMean.
func fromSamples(name string, step time.Duration, xs ...float64) *Trace {
	t := &Trace{Name: name, Step: step}
	for _, v := range xs {
		t.add(v, 1)
	}
	return t
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// decodeLevels turns fuzz bytes into a StepTrace shape: a step of 250 ms to
// 1.25 s, a total that need not be a multiple of it, and levels in any
// order whose starts run from before zero to past the total, land off step
// multiples and repeat. Levels take a handful of values, so equal
// neighbours are common.
func decodeLevels(data []byte) (step, total time.Duration, levels []Level) {
	r := byteReader(data)
	step = time.Duration(1+r.next()%5) * 250 * time.Millisecond
	total = time.Duration(r.next()) * 173 * time.Millisecond
	for len(r) >= 2 {
		from := time.Duration(int8(r.next())) * 211 * time.Millisecond
		levels = append(levels, Level{From: from, Mbps: float64(r.next() % 4)})
	}
	return step, total, levels
}

// decodeSamples turns fuzz bytes into a sample array: a step of 250 ms to
// 1.25 s, then one sample per byte from a handful of values, so runs of
// equal neighbours of every length occur.
func decodeSamples(data []byte) model {
	r := byteReader(data)
	m := model{step: time.Duration(1+r.next()%5) * 250 * time.Millisecond}
	for len(r) > 0 {
		m.xs = append(m.xs, float64(r.next()%4)/2)
	}
	return m
}

// checkModel requires the trace to read exactly like the model through every
// accessor.
func checkModel(t *testing.T, got *Trace, want model) {
	t.Helper()
	n := len(want.xs)
	if got.Len() != n || got.Duration() != time.Duration(n)*want.step {
		t.Fatalf("Len/Duration = %d/%v, model %d/%v", got.Len(), got.Duration(), n, time.Duration(n)*want.step)
	}
	samples := got.Samples()
	if len(samples) != n {
		t.Fatalf("Samples has %d values, model %d", len(samples), n)
	}
	for i := range samples {
		if samples[i] != want.xs[i] {
			t.Fatalf("Samples()[%d] = %v, model %v", i, samples[i], want.xs[i])
		}
	}
	// Offsets from before zero through three replay cycles, on and between
	// sample boundaries.
	end := 3*got.Duration() + 2*want.step
	for d := -2 * want.step; d <= end; d += want.step / 2 {
		if g, w := got.At(d), want.at(d); g != w {
			t.Fatalf("At(%v) = %v, model %v", d, g, w)
		}
		gc, gok := got.NextChangeAfter(d)
		wc, wok := want.nextChangeAfter(d)
		if gc != wc || gok != wok {
			t.Fatalf("NextChangeAfter(%v) = %v %v, model %v %v", d, gc, gok, wc, wok)
		}
	}
}

// checkBytes decodes the bytes both ways, as StepTrace levels and as a
// sample array, and checks each trace against its model. The sample array's
// trailing means are checked too, against the same loop run on the model.
func checkBytes(t *testing.T, data []byte) {
	t.Helper()
	step, total, levels := decodeLevels(data)
	checkModel(t, StepTrace("s", step, total, levels), stepModel(step, total, levels))

	m := decodeSamples(data)
	tr := fromSamples("x", m.step, m.xs...)
	checkModel(t, tr, m)
	w := 1 + len(data)%3
	rm := model{step: m.step, xs: make([]float64, len(m.xs))}
	var sum float64
	for i, v := range m.xs {
		sum += v
		if i >= w {
			sum -= m.xs[i-w]
		}
		rm.xs[i] = sum / float64(min(i+1, w))
	}
	checkModel(t, tr.RollingMean(time.Duration(w)*m.step), rm)
}

// TestStepTraceMatchesDense is the differential pin on random inputs.
func TestStepTraceMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 2+rng.Intn(24))
		rng.Read(data)
		checkBytes(t, data)
	}
}

// TestConstantMatchesModel pins Constant, the one constructor that skips
// the per-sample path, against n copies of its value.
func TestConstantMatchesModel(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		m := model{step: 250 * time.Millisecond, xs: make([]float64, n)}
		for i := range m.xs {
			m.xs[i] = 12.5
		}
		checkModel(t, Constant("c", m.step, 12.5, n), m)
	}
}

// TestStepTraceStoresLevels pins the memory shape: a level-built trace
// keeps one run per distinct level, not one value per sample.
func TestStepTraceStoresLevels(t *testing.T) {
	tr := StepTrace("s", time.Second, 5*time.Hour, []Level{
		{From: 0, Mbps: 20}, {From: time.Hour, Mbps: 5}, {From: 2 * time.Hour, Mbps: 20},
	})
	if tr.Len() != 18000 || len(tr.runs) != 3 {
		t.Fatalf("5 h step trace: Len %d, %d runs; want 18000, 3", tr.Len(), len(tr.runs))
	}
	if c := Constant("c", time.Second, 25, 18000); len(c.runs) != 1 {
		t.Fatalf("constant trace: %d runs, want 1", len(c.runs))
	}
}

func FuzzStepTraceMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 0, 1, 30, 2, 200, 3, 30, 1})
	f.Add([]byte{3, 255, 10, 1, 246, 2, 127, 3, 0, 0, 10, 2})
	f.Add([]byte{1, 2, 2, 2, 6, 6, 1, 1, 1, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBytes(t, data)
	})
}
