package experiments

import (
	"fmt"
	"time"

	"bass/internal/mesh"
	"bass/internal/scenario"
)

// table2Cell is one (scheduler, variation) measurement.
type table2Cell struct {
	Scheduler  string
	Varying    bool
	MedianSec  float64
	MeanSec    float64
	Migrations int
}

// table2Result is the camera pipeline on the emulated CityLab mesh.
type table2Result struct {
	Cells []table2Cell
}

// runTable2 reproduces Table 2: median camera-pipeline latency on the
// CityLab subset, with link capacities either pinned to their trace maxima
// ("no variation") or replaying the trace, for BFS, longest-path, and k3s.
// The paper's medians (ms): BFS 540/538, longest-path 551/552, k3s 577/692 —
// BASS placements are insensitive to the variation while k3s inflates ~20%.
func runTable2(seed int64, horizon time.Duration) (table2Result, error) {
	if horizon == 0 {
		horizon = 20 * time.Minute
	}
	pinned, err := pinnedCityLab(seed, horizon)
	if err != nil {
		return table2Result{}, err
	}
	var out table2Result
	for _, varying := range []bool{false, true} {
		for _, sched := range []string{"bfs", "longest-path", "k3s"} {
			spec := table2Spec(seed, horizon, sched)
			if !varying {
				spec.Links = pinned
			}
			r, err := complete(spec)
			if err != nil {
				return out, err
			}
			h := r.Camera.Latency().Histogram()
			out.Cells = append(out.Cells, table2Cell{
				Scheduler:  r.Policy,
				Varying:    varying,
				MedianSec:  h.Median(),
				MeanSec:    h.Mean(),
				Migrations: len(r.Sim.Orch.Migrations()),
			})
		}
	}
	return out, nil
}

// table2Spec is one Table 2 cell on the trace-driven CityLab mesh. Migration
// is disabled to isolate initial-placement effects; the paper likewise
// observed zero migrations in this workload.
func table2Spec(seed int64, horizon time.Duration, sched string) scenario.Spec {
	return scenario.Spec{
		Scheduler:   sched,
		ReservedCPU: 1,
		// The camera feed enters the mesh at node2 (a physical camera on a
		// pole), and the 30 KB frames (≈7.2 Mbps) press on node2's volatile
		// 7.62 Mbps link unless the sampler is co-located — which is
		// exactly what the bandwidth-aware heuristics do.
		Apps:       []scenario.App{{Camera: &scenario.Camera{FrameKB: 30, PinCamera: mesh.CityLabNode2}}},
		HorizonSec: secs(horizon),
		Seed:       seed,
	}
}

// pinnedCityLab is the "no variation" baseline as links entries: each
// CityLab link pinned to the maximum of its seeded trace over horizon.
func pinnedCityLab(seed int64, horizon time.Duration) ([]scenario.Link, error) {
	topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: seed, Duration: horizon})
	if err != nil {
		return nil, err
	}
	var pinned []scenario.Link
	for _, l := range mesh.CityLabLinks() {
		link, _ := topo.Link(l.A, l.B)
		pinned = append(pinned, scenario.Link{A: l.A, B: l.B, Mbps: link.CapacityFwd().Max()})
	}
	return pinned, nil
}

// Table renders the grid.
func (r table2Result) Table() Table {
	t := Table{
		Title:  "Table 2: camera median latency on CityLab mesh (paper ms: BFS 540/538, longest-path 551/552, k3s 577/692)",
		Header: []string{"scenario", "scheduler", "median_ms", "mean_ms", "migrations"},
	}
	for _, c := range r.Cells {
		scenario := "no variation"
		if c.Varying {
			scenario = "with variation"
		}
		t.Rows = append(t.Rows, []string{
			scenario, c.Scheduler, ms(c.MedianSec), ms(c.MeanSec),
			fmt.Sprintf("%d", c.Migrations),
		})
	}
	return t
}
