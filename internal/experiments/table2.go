package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scenario"
	"bass/internal/scheduler"
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
	policies := []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicBFS),
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	}
	var out table2Result
	for _, varying := range []bool{false, true} {
		for _, policy := range policies {
			topo, err := mesh.CityLab(mesh.CityLabOptions{
				Seed:     seed,
				Duration: horizon,
				Static:   !varying,
			})
			if err != nil {
				return out, err
			}
			// The camera feed enters the mesh at node2 (a physical camera on
			// a pole), and the 30 KB frames (≈7.2 Mbps) press on node2's
			// volatile 7.62 Mbps link unless the sampler is co-located —
			// which is exactly what the bandwidth-aware heuristics do.
			app, err := camera.New(camera.Config{FrameKB: 30, PinCamera: mesh.CityLabNode2})
			if err != nil {
				return out, err
			}
			// Migration is disabled to isolate initial-placement effects;
			// the paper likewise observed zero migrations in this workload.
			r, err := complete(scenario.Spec{
				Topo:        topo,
				Nodes:       CityLabWorkers(),
				Policy:      policy,
				ReservedCPU: 1,
				Deploy:      []core.Workload{app},
				HorizonSec:  int(horizon / time.Second),
				Seed:        seed,
			})
			if err != nil {
				return out, err
			}
			h := app.Latency().Histogram()
			out.Cells = append(out.Cells, table2Cell{
				Scheduler:  policy.Name(),
				Varying:    varying,
				MedianSec:  h.Median(),
				MeanSec:    h.Mean(),
				Migrations: len(r.Sim.Orch.Migrations()),
			})
		}
	}
	return out, nil
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
