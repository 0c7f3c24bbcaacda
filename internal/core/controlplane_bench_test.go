//go:build !race

package core

import (
	"fmt"
	"testing"
)

// The BenchmarkControlPlane family measures one controller epoch — probe
// sweep, per-app evaluation through the path oracle, candidate selection —
// at town (64 nodes) and city (196 nodes) meshes across 1×/10×/100× app
// density, quiet and storm. Cycles are driven directly (no data-plane time
// passes between iterations), so the numbers isolate control-plane cost; the
// city-storm workload of `go run ./bench` measures end-to-end runs,
// migrations included. Excluded from -race runs: AllocsPerRun and timing are both
// meaningless under the race detector.

func benchControlPlane(b *testing.B, rows, cols, apps int, storm bool) {
	s := setupControlPlane(b, rows, cols, apps, storm)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Orch.controlCycle()
	}
	b.StopTimer()
	if secPerOp := b.Elapsed().Seconds() / float64(b.N); secPerOp > 0 {
		b.ReportMetric(float64(apps)/secPerOp, "decisions/sec")
	}
}

// BenchmarkControlPlane is the town mesh (8×8 = 64 nodes) across densities.
func BenchmarkControlPlane(b *testing.B) {
	for _, d := range []int{1, 10, 100} {
		apps := 8 * d
		for _, load := range []string{"quiet", "storm"} {
			storm := load == "storm"
			b.Run(fmt.Sprintf("town/%dx-%s", d, load), func(b *testing.B) {
				benchControlPlane(b, 8, 8, apps, storm)
			})
		}
	}
}

// BenchmarkControlPlaneCity is the city mesh (14×14 = 196 nodes). Separately
// named so CI's bench-smoke can -skip it: at 100× density one setup deploys
// 1400 chains.
func BenchmarkControlPlaneCity(b *testing.B) {
	for _, d := range []int{1, 10, 100} {
		apps := 14 * d
		for _, load := range []string{"quiet", "storm"} {
			storm := load == "storm"
			b.Run(fmt.Sprintf("city/%dx-%s", d, load), func(b *testing.B) {
				benchControlPlane(b, 14, 14, apps, storm)
			})
		}
	}
}

// TestQuietEpochZeroAlloc pins the hot path's allocation contract: once the
// mesh is steady and no violations are in flight, a whole controller epoch —
// probe sweep, oracle-backed evaluation of every app, empty candidate
// reports — runs without allocating. The only tolerated source is the
// amortized growth of the evaluations log (one append per app per cycle),
// which stays far below one allocation per epoch on average.
func TestQuietEpochZeroAlloc(t *testing.T) {
	s := setupControlPlane(t, 8, 8, 8, false)
	defer s.Close()
	avg := testing.AllocsPerRun(100, func() {
		s.Orch.controlCycle()
	})
	if avg >= 1 {
		t.Fatalf("quiet controller epoch allocates: %.2f allocs/op, want < 1", avg)
	}
	if cs := s.Orch.ControlStats(); cs.SLOTickNS != 0 {
		t.Errorf("SLOTickNS = %d with no evaluator attached, want 0", cs.SLOTickNS)
	}
}

// TestQuietEpochZeroAllocSLO extends the contract to the observed control
// plane: with a journal, a metric store, and the SLO evaluator all attached,
// a quiet epoch — probe sweep, metric emission through pre-resolved handles,
// SLI evaluation, burn-rate checks — still allocates nothing once every ring
// has reached capacity.
func TestQuietEpochZeroAllocSLO(t *testing.T) {
	s := setupControlPlaneObserved(t, 8, 8, 8, false, true)
	defer s.Close()
	// Prefill past every ring cap (store MaxSamples 256, journal 4096) so
	// steady-state appends overwrite instead of growing.
	for i := 0; i < 300; i++ {
		s.Orch.controlCycle()
	}
	avg := testing.AllocsPerRun(100, func() {
		s.Orch.controlCycle()
	})
	if avg >= 1 {
		t.Fatalf("quiet observed epoch allocates: %.2f allocs/op, want < 1", avg)
	}
	// The tick is timed apart from the cycles WallNS covers.
	if cs := s.Orch.ControlStats(); cs.SLOTickNS <= 0 || cs.WallNS <= 0 {
		t.Errorf("ControlStats = %+v, want SLOTickNS and WallNS both > 0 after %d observed epochs", cs, cs.Cycles)
	}
}
