package experiments

import (
	"sort"
	"strings"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/core"
	"bass/internal/scheduler"
)

// Fig10Row is one scheduler's camera-pipeline outcome.
type Fig10Row struct {
	Scheduler string
	MeanSec   float64
	MedianSec float64
	// Placement maps node → components, for the Fig 10(b) view.
	Placement map[string][]string
}

// Fig10Result compares schedulers for the camera pipeline on a LAN.
type Fig10Result struct {
	Rows []Fig10Row
}

// runCamera deploys the camera pipeline under one policy and returns the
// latency stats and placement.
func runCamera(seed int64, policy scheduler.Policy, horizon time.Duration) (Fig10Row, error) {
	nodes := LANNodes(3, 16, 131072)
	topo := LANTopology(nodes, horizon)
	sim, err := core.NewSimulation(topo, nodes, seed, core.Config{
		Policy:      policy,
		ReservedCPU: 1,
	})
	if err != nil {
		return Fig10Row{}, err
	}
	defer sim.Close()
	app, err := camera.New(camera.Config{})
	if err != nil {
		return Fig10Row{}, err
	}
	if _, err := sim.Orch.Deploy("camera", app); err != nil {
		return Fig10Row{}, err
	}
	if err := sim.Run(horizon); err != nil {
		return Fig10Row{}, err
	}
	h := app.Latency().Histogram()
	placement := make(map[string][]string)
	for _, p := range sim.Cluster.Placements() {
		placement[p.Node] = append(placement[p.Node], p.Component)
	}
	return Fig10Row{
		Scheduler: policy.Name(),
		MeanSec:   h.Mean(),
		MedianSec: h.Median(),
		Placement: placement,
	}, nil
}

// RunFig10 reproduces Fig 10: the camera pipeline for 30 minutes on three
// c6525-class machines with no bandwidth limits, under the BFS,
// longest-path, and default k3s schedulers. The paper measures means of
// 410/428/433 ms; the shape to reproduce is BASS ≤ k3s with BFS
// co-locating the camera stream and sampler.
func RunFig10(seed int64, horizon time.Duration) (Fig10Result, error) {
	if horizon == 0 {
		horizon = 30 * time.Minute
	}
	policies := []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicBFS),
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	}
	var out Fig10Result
	for _, p := range policies {
		row, err := runCamera(seed, p, horizon)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders latency and placements.
func (r Fig10Result) Table() Table {
	t := Table{
		Title:  "Fig 10: camera pipeline e2e latency by scheduler, 3-node LAN (paper means: BFS 410 ms, longest-path 428 ms, k3s 433 ms)",
		Header: []string{"scheduler", "mean_ms", "median_ms", "placement"},
	}
	for _, row := range r.Rows {
		nodes := make([]string, 0, len(row.Placement))
		for n := range row.Placement {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		var parts []string
		for _, n := range nodes {
			comps := append([]string(nil), row.Placement[n]...)
			sort.Strings(comps)
			parts = append(parts, n+"{"+strings.Join(comps, ",")+"}")
		}
		t.Rows = append(t.Rows, []string{
			row.Scheduler,
			ms(row.MeanSec),
			ms(row.MedianSec),
			strings.Join(parts, " "),
		})
	}
	return t
}

func init() {
	register("fig10", func(p Params) ([]Table, error) {
		return oneTable(RunFig10(p.Seed, p.Horizon(30*time.Minute)))
	})
}
