package trace

import (
	"math/rand"
	"testing"
	"time"
)

// denseStep is the dense StepTrace that level-built traces replaced: every
// sample evaluated by the last-in-slice-order rule and stored.
func denseStep(name string, step, total time.Duration, levels []Level) *Trace {
	n := int(total / step)
	out := &Trace{Name: name, Step: step, Mbps: make([]float64, n)}
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		v := 0.0
		for _, l := range levels {
			if l.From <= at {
				v = l.Mbps
			}
		}
		out.Mbps[i] = v
	}
	return out
}

// decodeLevels turns fuzz bytes into a StepTrace shape: a step of 250 ms to
// 1.25 s, a total that need not be a multiple of it, and levels in any
// order whose starts run from before zero to past the total, land off step
// multiples and repeat. Levels take a handful of values, so equal
// neighbours are common.
func decodeLevels(data []byte) (step, total time.Duration, levels []Level) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	step = time.Duration(1+next()%5) * 250 * time.Millisecond
	total = time.Duration(next()) * 173 * time.Millisecond
	for len(data) >= 2 {
		from := time.Duration(int8(next())) * 211 * time.Millisecond
		levels = append(levels, Level{From: from, Mbps: float64(next() % 4)})
	}
	return step, total, levels
}

// checkStepTrace requires the level-built trace the bytes decode to to read
// exactly like the dense one through every accessor.
func checkStepTrace(t *testing.T, data []byte) {
	t.Helper()
	step, total, levels := decodeLevels(data)
	got := StepTrace("s", step, total, levels)
	want := denseStep("s", step, total, levels)
	if got.Len() != want.Len() || got.Duration() != want.Duration() {
		t.Fatalf("Len/Duration = %d/%v, dense %d/%v", got.Len(), got.Duration(), want.Len(), want.Duration())
	}
	samples := got.Samples()
	if len(samples) != len(want.Mbps) {
		t.Fatalf("Samples has %d values, dense %d", len(samples), len(want.Mbps))
	}
	for i := range samples {
		if samples[i] != want.Mbps[i] {
			t.Fatalf("Samples()[%d] = %v, dense %v", i, samples[i], want.Mbps[i])
		}
	}
	gs, gerr := got.Summarize()
	ws, werr := want.Summarize()
	if gs != ws || (gerr == nil) != (werr == nil) {
		t.Fatalf("Summarize = %+v %v, dense %+v %v", gs, gerr, ws, werr)
	}
	// Offsets from before zero through three replay cycles, on and between
	// sample boundaries.
	end := 3*want.Duration() + 2*step
	for d := -2 * step; d <= end; d += step / 2 {
		if g, w := got.At(d), want.At(d); g != w {
			t.Fatalf("At(%v) = %v, dense %v", d, g, w)
		}
		gc, gok := got.NextChangeAfter(d)
		wc, wok := want.NextChangeAfter(d)
		if gc != wc || gok != wok {
			t.Fatalf("NextChangeAfter(%v) = %v %v, dense %v %v", d, gc, gok, wc, wok)
		}
	}
}

// TestStepTraceMatchesDense is the differential pin on random level lists.
func TestStepTraceMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 2+rng.Intn(24))
		rng.Read(data)
		checkStepTrace(t, data)
	}
}

// TestStepTraceStoresLevels pins the memory shape: a level-built trace
// keeps one run per distinct level, not one value per sample.
func TestStepTraceStoresLevels(t *testing.T) {
	tr := StepTrace("s", time.Second, 5*time.Hour, []Level{
		{From: 0, Mbps: 20}, {From: time.Hour, Mbps: 5}, {From: 2 * time.Hour, Mbps: 20},
	})
	if tr.Len() != 18000 || len(tr.Mbps) != 0 || len(tr.cp) != 3 {
		t.Fatalf("5 h step trace: Len %d, %d dense samples, %d runs; want 18000, 0, 3", tr.Len(), len(tr.Mbps), len(tr.cp))
	}
}

func FuzzStepTraceMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 0, 1, 30, 2, 200, 3, 30, 1})
	f.Add([]byte{3, 255, 10, 1, 246, 2, 127, 3, 0, 0, 10, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStepTrace(t, data)
	})
}
