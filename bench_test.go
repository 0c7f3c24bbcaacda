// Benchmarks that regenerate the BASS paper's tables and figures — one
// testing.B target per table/figure, each driving the corresponding
// experiment harness on the simulated substrate and reporting its headline
// quantity as a custom metric. Run all of them with:
//
//	go test -bench=. -benchmem
//
// Iterations use reduced horizons where the full experiment would dominate
// the benchmark run; cmd/benchtab runs the full-scale versions and prints
// the complete tables.
package bass_test

import (
	"fmt"
	"testing"
	"time"

	"bass/internal/experiments"
	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/simnet"
	"bass/internal/trace"
)

func BenchmarkFig2TraceVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(int64(i+1), 20*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Volatile.StdPctMean, "volatile_std_pct")
	}
}

func BenchmarkFig4PionBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(int64(i+1), []int{4, 12}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].PacketLossFrac, "loss_at_12")
	}
}

func BenchmarkFig5SocialThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ThrottledSec/r.CalmSec, "inflation_x")
	}
}

func BenchmarkFig6Heuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8MigrationTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Migrations)), "migrations")
	}
}

func BenchmarkFig10CameraPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10(int64(i+1), 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].MeanSec*1e3, "bfs_mean_ms")
		b.ReportMetric(r.Rows[2].MeanSec*1e3, "k3s_mean_ms")
	}
}

func BenchmarkFig11SocialP99(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig11(int64(i+1), []float64{300})
		if err != nil {
			b.Fatal(err)
		}
		// Rows: [lp/unrestricted, k3s/unrestricted, lp/restricted,
		// k3s/restricted] at the single rate.
		b.ReportMetric(r.Rows[3].P99Sec/nonZero(r.Rows[2].P99Sec), "k3s_over_lp_restricted")
	}
}

func BenchmarkFig12VideoconfMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig12(int64(i+1), []int{30, 0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].MeanMbpsDuringRestriction, "mbps_30s_interval")
		b.ReportMetric(r.Rows[1].MeanMbpsDuringRestriction, "mbps_no_migration")
	}
}

func BenchmarkFig13SocialMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13(int64(i+1), []int{30, 0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].ThrottledTailMeanSec, "tail_mean_s_30s")
		b.ReportMetric(r.Rows[1].ThrottledTailMeanSec, "tail_mean_s_nomig")
	}
}

func BenchmarkTable1MigrationIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig13(int64(i+1), []int{30})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, ev := range r.Evaluations {
			total += ev.Migrated
		}
		b.ReportMetric(float64(total), "migrated_total")
	}
}

func BenchmarkTable2CityLabCamera(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(int64(i+1), 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		// Cells: [bfs, lp, k3s] × [static, varying].
		b.ReportMetric(r.Cells[5].MedianSec/nonZero(r.Cells[2].MedianSec), "k3s_inflation_x")
	}
}

func BenchmarkFig14aRestartCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14a(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RestartMeanSec/nonZero(r.BaselineMeanSec), "restart_inflation_x")
	}
}

func BenchmarkFig14bSchedulerCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14b(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		// Rows: [lp+mig, bfs+mig, lp, k3s].
		b.ReportMetric(r.Rows[3].P99Sec/nonZero(r.Rows[0].P99Sec), "k3s_over_lpmig_p99")
	}
}

func BenchmarkFig14cdThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig14cd(int64(i+1), []int{25, 65, 95}, []int{20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Cells)), "cells")
	}
}

func BenchmarkFig15bVideoconfThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig15b(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		var noMig, with65 float64
		for _, row := range r.Rows {
			if row.Node == "node2" {
				switch row.Strategy {
				case "no-migration":
					noMig = row.MedianBitrateMbps
				case "65%":
					with65 = row.MedianBitrateMbps
				}
			}
		}
		b.ReportMetric(with65/nonZero(noMig), "node2_gain_x")
	}
}

func BenchmarkFig16ExponentialArrival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig16(int64(i+1), []int{25, 95})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].P90Sec, "p90_s_t25")
		b.ReportMetric(r.Rows[1].P90Sec, "p90_s_t95")
	}
}

func BenchmarkTable3SchedulingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable34(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].PerComponentUS, "bass_social_us")
	}
}

func BenchmarkTable4DAGProcessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable34(20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].DAGProcessUS, "bass_social_dag_us")
	}
}

// benchMesh builds an 8-node ring where one link follows a step trace and
// the rest stay constant — the mostly-quiet regime community mesh traces
// show, where the incremental allocator earns its keep. A ring (rather than
// a full mesh) forces multi-hop paths, so every water-filling pass touches
// several links per flow and iterates under contention.
func benchMesh() *mesh.Topology {
	topo := mesh.NewTopology()
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		topo.AddNode(names[i])
	}
	for i, from := range names {
		to := names[(i+1)%len(names)]
		var tr *trace.Trace
		if i == 0 {
			tr = trace.StepTrace("n0-n1", time.Second, time.Minute, []trace.Level{
				{From: 0, Mbps: 200},
				{From: 20 * time.Second, Mbps: 60},
				{From: 40 * time.Second, Mbps: 200},
			})
		} else {
			tr = trace.Constant(from+"-"+to, time.Second, 200, 60)
		}
		topo.MustAddLink(from, to, tr, time.Millisecond)
	}
	return topo
}

// benchQuietMesh builds the same 8-node ring with every link constant — the
// long quiet stretches community mesh traces actually spend most of their
// time in, where the event-driven driver schedules nothing at all.
func benchQuietMesh() *mesh.Topology {
	topo := mesh.NewTopology()
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		topo.AddNode(names[i])
	}
	for i, from := range names {
		to := names[(i+1)%len(names)]
		topo.MustAddLink(from, to, trace.Constant(from+"-"+to, time.Second, 200, 60), time.Millisecond)
	}
	return topo
}

// benchNetRun drives 120 concurrent streams over the given mesh for five
// simulated minutes per iteration (traces wrap past their horizon), with the
// given allocator and capacity-driver configuration. Only the Run is timed.
func benchNetRun(b *testing.B, mkTopo func() *mesh.Topology, fullRecompute, polling bool) {
	b.Helper()
	var stats simnet.AllocStats
	for i := 0; i < b.N; i++ {
		b.StopTimer() // topology construction and stream arrival are not under test
		eng := sim.NewEngine(1)
		net := simnet.New(eng, mkTopo())
		net.SetFullRecompute(fullRecompute)
		net.SetPolling(polling)
		net.Start()
		for f := 0; f < 120; f++ {
			src := fmt.Sprintf("n%d", f%8)
			dst := fmt.Sprintf("n%d", (f+2+f/8%3)%8)
			if src == dst {
				dst = "n0"
			}
			if _, err := net.AddStream(fmt.Sprintf("f%d", f), src, dst, 2+float64(f%5)); err != nil {
				b.Fatal(err)
			}
		}
		base := net.AllocStats()
		b.StartTimer()
		if err := eng.Run(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		s := net.AllocStats()
		stats = simnet.AllocStats{
			FullPasses:    s.FullPasses - base.FullPasses,
			SkippedPasses: s.SkippedPasses - base.SkippedPasses,
		}
	}
	b.ReportMetric(float64(stats.FullPasses), "full_passes")
	b.ReportMetric(float64(stats.SkippedPasses), "skipped_passes")
}

// BenchmarkReallocate compares the incremental allocator against full
// per-epoch water-filling, both under the per-second polling driver so every
// second issues a reallocation request:
//
//	go test -bench=Reallocate -benchtime=10x -benchmem
func BenchmarkReallocate(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchNetRun(b, benchMesh, false, true) })
	b.Run("full", func(b *testing.B) { benchNetRun(b, benchMesh, true, true) })
}

// BenchmarkEventDriven compares the event-driven capacity scheduler against
// the polling driver with the incremental allocator on in both: "quiet" runs
// the all-constant ring (the driver schedules zero events), "steppy" the
// ring with one stepping link (two observed capacity changes per simulated
// minute). The drivers produce bit-identical simulation output (asserted by
// the simnet differential tests); this measures the
// wall-clock and allocation cost of getting there. No observability plane is
// attached, so the run also pins the disabled-tracing contract: the network's
// span-threaded flow lifecycle (ambient cause stamping, nil-plane EmitSpan at
// park/resume/fail sites) must keep quiet/event at 0 allocs/op:
//
//	go test -bench=EventDriven -benchtime=10x -benchmem
func BenchmarkEventDriven(b *testing.B) {
	b.Run("quiet/event", func(b *testing.B) { benchNetRun(b, benchQuietMesh, false, false) })
	b.Run("quiet/polling", func(b *testing.B) { benchNetRun(b, benchQuietMesh, false, true) })
	b.Run("steppy/event", func(b *testing.B) { benchNetRun(b, benchMesh, false, false) })
	b.Run("steppy/polling", func(b *testing.B) { benchNetRun(b, benchMesh, false, true) })
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1e-12
	}
	return v
}
