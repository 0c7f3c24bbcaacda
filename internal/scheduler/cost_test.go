//go:build !race

package scheduler

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bass/internal/dag"
)

// countingRecorder counts scoreboard rows and keeps none of them.
type countingRecorder struct{ rows int }

func (r *countingRecorder) RecordExplanation(ex Explanation) { r.rows += len(ex.Candidates) }

// chainApp is a k-stage chain of 1-CPU components with 4 Mbps edges.
func chainApp(k int) *dag.Graph {
	g := dag.NewGraph("chain")
	for i := 0; i < k; i++ {
		g.MustAddComponent(dag.Component{Name: fmt.Sprintf("s%02d", i), CPU: 1, MemoryMB: 128})
		if i > 0 {
			g.MustAddEdge(fmt.Sprintf("s%02d", i-1), fmt.Sprintf("s%02d", i), 4)
		}
	}
	return g
}

// packingNodes is an n-node list with varied free CPU and link capacity.
func packingNodes(n int) []NodeInfo {
	nodes := make([]NodeInfo, n)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("n%03d", i), FreeCPU: float64(2 + i%5), FreeMemoryMB: 4096,
			TotalCPU: 8, TotalMemoryMB: 4096, LinkCapacityMbps: float64(10 + i%7)}
	}
	return nodes
}

// TestChoicePassSteadyStateAllocs pins the cost of a warm choice pass. A
// migration choice over 196 nodes allocates at most 2 objects per op with or
// without a (non-retaining) recorder: the scored candidates, their ranking
// and the scoreboard all live in pooled scratch. A Bass packing pass
// allocates per component, never per node: quadrupling the node list must
// add neither allocations nor bytes.
func TestChoicePassSteadyStateAllocs(t *testing.T) {
	g, assignment, nodes, pathAvail := hubChoice(196, 0)
	cfg := MigrationConfig{HeadroomMbps: 1}
	rec := &countingRecorder{}
	for name, opt := range map[string]TargetOptions{"no recorder": {}, "recorder": {Recorder: rec}} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("migration choice over 196 nodes, %s: %.1f allocs/op, want ≤ 2", name, allocs)
		}
	}
	if rec.rows == 0 {
		t.Fatal("recorder saw no scoreboard rows")
	}

	app := chainApp(12)
	sched := NewBass(HeuristicLongestPath)
	type cost struct{ allocs, bytes float64 }
	scheduleCost := func(n int, rec Recorder) cost {
		nodes := packingNodes(n)
		pass := func() {
			if _, err := sched.Schedule(app, nodes, rec); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		c := cost{allocs: testing.AllocsPerRun(runs, pass), bytes: math.Inf(1)}
		// Best of three: a collection that empties the scratch pool
		// mid-trial charges one rebuild of the scratch to that trial.
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				pass()
			}
			runtime.ReadMemStats(&after)
			c.bytes = math.Min(c.bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return c
	}
	for name, rec := range map[string]Recorder{"no recorder": nil, "recorder": &countingRecorder{}} {
		small, large := scheduleCost(49, rec), scheduleCost(196, rec)
		if large.allocs > small.allocs || large.bytes > 1.05*small.bytes {
			t.Errorf("Bass.Schedule, %s: %+v per op on 196 nodes vs %+v on 49: cost grows with nodes", name, large, small)
		}
	}
}

// BenchmarkChooseMigrationTarget is one warm migration choice over 196
// nodes, the city-storm cluster size, with and without a recorder.
func BenchmarkChooseMigrationTarget(b *testing.B) {
	g, assignment, nodes, pathAvail := hubChoice(196, 0)
	cfg := MigrationConfig{HeadroomMbps: 1}
	for _, run := range []struct {
		name string
		opt  TargetOptions
	}{{"norec", TargetOptions{}}, {"rec", TargetOptions{Recorder: &countingRecorder{}}}} {
		opt := run.opt
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBassSchedule packs a 12-stage chain onto 196 nodes, recording
// every placement scoreboard.
func BenchmarkBassSchedule(b *testing.B) {
	app, nodes := chainApp(12), packingNodes(196)
	sched := NewBass(HeuristicLongestPath)
	rec := &countingRecorder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(app, nodes, rec); err != nil {
			b.Fatal(err)
		}
	}
}
