//go:build !race

package reconcile

import (
	"fmt"
	"testing"
	"time"

	"bass/internal/metricstore"
	"bass/internal/obs"
)

// Excluded from -race runs: AllocsPerRun and timing are both meaningless
// under the race detector.

// convergedReconciler registers apps three-component specs on a
// cluster-backed host with a journal and a metric store attached, and ticks
// until every component is placed and the gauges' rings have wrapped.
func convergedReconciler(tb testing.TB, apps int) *Reconciler {
	tb.Helper()
	h := newClusterHost(tb, 8)
	plane := obs.NewPlane(obs.NewJournal(4096), metricstore.NewWithConfig(metricstore.Config{MaxSamples: 256}), func() time.Duration { return h.now })
	plane.SetTraceSeed(1)
	r := New(Config{}, h)
	r.SetObserver(plane)
	for i := 0; i < apps; i++ {
		r.SetSpec(spec1(fmt.Sprintf("chain-%04d", i), i%3, "src", "mid", "dst"))
	}
	for i := 0; !r.Converged(); i++ {
		if i > 3*apps {
			tb.Fatalf("no convergence after %d ticks: drift=%d", i, r.OutstandingDrift())
		}
		r.Tick()
	}
	for i := 0; i < 300; i++ {
		r.Tick()
	}
	return r
}

// TestQuietReconcileTickZeroAlloc pins the quiet tick's allocation contract:
// once every spec is converged, a tick — the sorted merge of each spec
// against the cluster's per-app index, settle, and the loop's gauges —
// allocates nothing.
func TestQuietReconcileTickZeroAlloc(t *testing.T) {
	r := convergedReconciler(t, 80)
	if avg := testing.AllocsPerRun(100, r.Tick); avg != 0 {
		t.Fatalf("quiet reconcile tick allocates: %.2f allocs/op, want 0", avg)
	}
	if !r.Converged() || r.ActionsTotal() != 240 {
		t.Fatalf("quiet ticks acted: converged=%v actions=%d, want 240 placements only",
			r.Converged(), r.ActionsTotal())
	}
}

// BenchmarkReconcileQuietTick measures one converged tick over 80
// three-component specs: the bench's reconcile.tick_quiet_ns in isolation.
func BenchmarkReconcileQuietTick(b *testing.B) {
	r := convergedReconciler(b, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tick()
	}
}
