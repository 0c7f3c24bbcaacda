package experiments

import (
	"sort"
	"strings"
	"time"

	"bass/internal/scenario"
)

// fig10Row is one scheduler's camera-pipeline outcome.
type fig10Row struct {
	Scheduler string
	MeanSec   float64
	MedianSec float64
	// Placement maps node → components, for the Fig 10(b) view.
	Placement map[string][]string
}

// fig10Result compares schedulers for the camera pipeline on a LAN.
type fig10Result struct {
	Rows []fig10Row
}

// cameraLAN is Fig 10's testbed: the camera pipeline under the named
// scheduler on three c6525-class machines with no bandwidth limits.
func cameraLAN(seed int64, sched string, horizon time.Duration) scenario.Spec {
	return scenario.Spec{
		Topology:    "lan",
		Nodes:       lanNodes(3, 16, 131072),
		Apps:        []scenario.App{{Camera: &scenario.Camera{}}},
		Scheduler:   sched,
		ReservedCPU: 1,
		HorizonSec:  secs(horizon),
		Seed:        seed,
	}
}

// runCamera runs a cameraLAN spec and returns the latency stats and
// placement.
func runCamera(spec scenario.Spec) (fig10Row, error) {
	r, err := complete(spec)
	if err != nil {
		return fig10Row{}, err
	}
	h := r.Camera.Latency().Histogram()
	placement := make(map[string][]string)
	for _, p := range r.Sim.Cluster.Placements() {
		placement[p.Node] = append(placement[p.Node], p.Component)
	}
	return fig10Row{
		Scheduler: r.Policy,
		MeanSec:   h.Mean(),
		MedianSec: h.Median(),
		Placement: placement,
	}, nil
}

// runFig10 reproduces Fig 10: the camera pipeline for 30 minutes on three
// c6525-class machines with no bandwidth limits, under the BFS,
// longest-path, and default k3s schedulers. The paper measures means of
// 410/428/433 ms; the shape to reproduce is BASS ≤ k3s with BFS
// co-locating the camera stream and sampler.
func runFig10(seed int64, horizon time.Duration) (fig10Result, error) {
	if horizon == 0 {
		horizon = 30 * time.Minute
	}
	var out fig10Result
	for _, sched := range []string{"bfs", "longest-path", "k3s"} {
		row, err := runCamera(cameraLAN(seed, sched, horizon))
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders latency and placements.
func (r fig10Result) Table() Table {
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
