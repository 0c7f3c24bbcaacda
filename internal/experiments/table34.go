package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/apps/socialnet"
	"bass/internal/apps/videoconf"
	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/metrics"
	"bass/internal/scheduler"
)

// appGraphs builds the three evaluation applications' DAGs.
func appGraphs() (map[string]*dag.Graph, error) {
	social, err := socialnet.New(socialnet.Config{ClientNode: mesh.CityLabNode1})
	if err != nil {
		return nil, err
	}
	conf, err := videoconf.New(videoconf.Config{
		ClientsPerNode: map[string]int{
			mesh.CityLabNode1: 3, mesh.CityLabNode2: 3,
			mesh.CityLabNode3: 3, mesh.CityLabNode4: 3,
		},
	})
	if err != nil {
		return nil, err
	}
	cam, err := camera.New(camera.Config{})
	if err != nil {
		return nil, err
	}
	return map[string]*dag.Graph{
		"social-network": social.Graph(),
		"video-conf":     conf.Graph(),
		"camera":         cam.Graph(),
	}, nil
}

// table34Row measures scheduling overheads for one (app, policy) pair.
type table34Row struct {
	App        string
	Policy     string
	Components int
	// PerComponentUS is the mean per-component scheduling latency in µs.
	PerComponentUS float64
	PerComponentSD float64
	// DAGProcessUS is the mean whole-DAG processing time in µs (Table 4).
	DAGProcessUS float64
	DAGProcessSD float64
}

// table34Result holds the measurements behind Tables 3 and 4.
type table34Result struct {
	Rows []table34Row
}

// runTable34 measures per-component scheduling latency (Table 3) and DAG
// processing time (Table 4) for the three applications under the BASS
// longest-path scheduler and the k3s baseline, over `trials` wall-clock
// timed runs. The paper's absolute numbers include k3s API round-trips
// (≈1.3 ms/component); the shape to reproduce is BASS ≈ k3s per component,
// with DAG processing growing with component count yet remaining a
// negligible one-time cost.
func runTable34(trials int) (table34Result, error) {
	if trials <= 0 {
		trials = 100
	}
	graphs, err := appGraphs()
	if err != nil {
		return table34Result{}, err
	}
	nodes := []scheduler.NodeInfo{
		{Name: mesh.CityLabNode1, FreeCPU: 64, FreeMemoryMB: 65536, TotalCPU: 64, TotalMemoryMB: 65536, LinkCapacityMbps: 50},
		{Name: mesh.CityLabNode2, FreeCPU: 64, FreeMemoryMB: 65536, TotalCPU: 64, TotalMemoryMB: 65536, LinkCapacityMbps: 30},
		{Name: mesh.CityLabNode3, FreeCPU: 64, FreeMemoryMB: 65536, TotalCPU: 64, TotalMemoryMB: 65536, LinkCapacityMbps: 40},
		{Name: mesh.CityLabNode4, FreeCPU: 64, FreeMemoryMB: 65536, TotalCPU: 64, TotalMemoryMB: 65536, LinkCapacityMbps: 35},
	}
	policies := []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	}
	var out table34Result
	for _, appName := range []string{"social-network", "video-conf", "camera"} {
		g := graphs[appName]
		for _, policy := range policies {
			var dagHist, perHist metrics.Histogram
			for i := 0; i < trials; i++ {
				start := time.Now()
				if _, err := policy.Schedule(g, nodes, nil); err != nil {
					return out, fmt.Errorf("table3/4: %s with %s: %w", appName, policy.Name(), err)
				}
				elapsed := time.Since(start)
				dagHist.Observe(float64(elapsed.Microseconds()))
				perHist.Observe(float64(elapsed.Microseconds()) / float64(g.NumComponents()))
			}
			out.Rows = append(out.Rows, table34Row{
				App:            appName,
				Policy:         policy.Name(),
				Components:     g.NumComponents(),
				PerComponentUS: perHist.Mean(),
				PerComponentSD: perHist.StdDev(),
				DAGProcessUS:   dagHist.Mean(),
				DAGProcessSD:   dagHist.StdDev(),
			})
		}
	}
	return out, nil
}

// Table3 renders per-component scheduling latency.
func (r table34Result) Table3() Table {
	t := Table{
		Title:  "Table 3: per-component scheduling latency (paper: ≈1.3-1.5 ms incl. k3s API; in-process here, shape: BASS ≈ k3s)",
		Header: []string{"app", "policy", "per_component_us", "sd_us"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, row.Policy, f2(row.PerComponentUS), f2(row.PerComponentSD),
		})
	}
	return t
}

// Table4 renders DAG processing times.
func (r table34Result) Table4() Table {
	t := Table{
		Title:  "Table 4: DAG processing time (paper: social 27 comps ≈ 64 ms, videoconf ≈ 26 ms, camera ≈ 31 ms incl. k3s API)",
		Header: []string{"app", "policy", "components", "dag_process_us", "sd_us"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, row.Policy, fmt.Sprintf("%d", row.Components),
			f2(row.DAGProcessUS), f2(row.DAGProcessSD),
		})
	}
	return t
}

// table34Trials returns the timing-trial count for the Table 3/4 jobs.
func table34Trials(quick bool) int {
	if quick {
		return 30
	}
	return 200
}
