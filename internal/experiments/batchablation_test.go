package experiments

import (
	"math"
	"testing"
)

func TestBatchSweepShape(t *testing.T) {
	full := batchSweep(1, false)
	if len(full) != 6 {
		t.Fatalf("full sweep has %d configs, want 6", len(full))
	}
	quick := batchSweep(1, true)
	if len(quick) != 2 {
		t.Fatalf("quick sweep has %d configs, want 2", len(quick))
	}
	for _, o := range quick {
		if o.Nodes != 64 {
			t.Errorf("quick sweep should stay on the town mesh, got %d nodes", o.Nodes)
		}
	}
	if quick[0].Density != 1 || quick[1].Density != 10 {
		t.Errorf("quick densities = %d,%d, want 1,10", quick[0].Density, quick[1].Density)
	}
	for _, o := range append(full, quick...) {
		if o.Apps != o.Density*8 && o.Apps != o.Density*14 {
			t.Errorf("config %+v: apps not base×density", o)
		}
	}
}

// TestBatchAblationImprovesAtDensity pins the quick sweep at seed 42 exactly:
// on the town grid at 1× both modes deliver everything, and at the contended
// 10× density batch goodput beats greedy by ~10 %. Batch must never fall
// below greedy at 10×, whatever the exact values.
func TestBatchAblationImprovesAtDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ablation; skipped in -short")
	}
	type pinned struct {
		density                     int
		greedyGoodput, batchGoodput float64
		greedyCross, batchCross     int
	}
	want := []pinned{
		{1, 1, 1, 16, 16},
		{10, 0.7780700128707537, 0.8554025753202965, 223, 189},
	}
	sweep := batchSweep(42, true)
	if len(sweep) != len(want) {
		t.Fatalf("quick sweep has %d configs, want %d", len(sweep), len(want))
	}
	for i, opts := range sweep {
		e, err := runBatchPair(opts)
		if err != nil {
			t.Fatal(err)
		}
		got := pinned{e.Density, e.GreedyGoodput, e.BatchGoodput, e.GreedyCross, e.BatchCross}
		if got != want[i] {
			t.Errorf("town %d×: got %+v, want %+v", opts.Density, got, want[i])
		}
		if e.Density >= 10 && e.BatchGoodput < e.GreedyGoodput {
			t.Errorf("batch goodput %v regressed below greedy %v at %d× density",
				e.BatchGoodput, e.GreedyGoodput, e.Density)
		}
	}
}

// TestBatchAblationDeterministic pins that everything except wall-clock solve
// time is identical across repeated runs of the same configuration.
func TestBatchAblationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ablation; skipped in -short")
	}
	opts := BatchAblationOptions{Nodes: 16, Apps: 8, Density: 1, Seed: 5}
	a, err := runBatchPair(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBatchPair(opts)
	if err != nil {
		t.Fatal(err)
	}
	a.GreedySolveMS, a.BatchSolveMS = 0, 0
	b.GreedySolveMS, b.BatchSolveMS = 0, 0
	if a != b {
		t.Errorf("paired runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}

func TestBatchPairEntryGain(t *testing.T) {
	e := batchPairEntry(
		BatchAblationResult{Nodes: 64, Apps: 8, Density: 1, Goodput: 0.5, CrossEdges: 10, SolveMS: 1},
		BatchAblationResult{Nodes: 64, Apps: 8, Density: 1, Goodput: 0.6, CrossEdges: 8, SolveMS: 2, Budget: 256, Batch: true},
	)
	if math.Abs(e.GainFrac-0.2) > 1e-12 {
		t.Errorf("GainFrac = %v, want 0.2", e.GainFrac)
	}
	if e.Budget != 256 || e.GreedyCross != 10 || e.BatchCross != 8 {
		t.Errorf("entry fields wrong: %+v", e)
	}
	zero := batchPairEntry(BatchAblationResult{}, BatchAblationResult{Goodput: 0.5})
	if zero.GainFrac != 0 {
		t.Errorf("zero greedy goodput should leave GainFrac 0, got %v", zero.GainFrac)
	}
}
