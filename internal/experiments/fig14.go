package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/mesh"
	"bass/internal/metrics"
	"bass/internal/scenario"
)

// fig14aResult quantifies the component-restart overhead.
type fig14aResult struct {
	BaselineMeanSec float64
	RestartMeanSec  float64
	CDF             []metrics.CDFPoint
}

// runFig14a reproduces Fig 14(a): the social network on the
// CityLab mesh; mid-run one busy component is restarted. Mean end-to-end
// latency during the restart window rises from ≈0.5 s to several seconds
// (paper: 552 ms → 4.9 s).
func runFig14a(seed int64) (fig14aResult, error) {
	const restartAt = 5 * time.Minute
	r, err := scenario.Build(fig14aSpec(seed))
	if err != nil {
		return fig14aResult{}, err
	}
	sim, app := r.Sim, r.Social
	defer sim.Close()
	if err := sim.Run(restartAt); err != nil {
		return fig14aResult{}, err
	}
	// Restart the post-storage service on another worker.
	from := sim.Cluster.NodeOf("socialnet", socialnet.SvcPostStorage)
	target := mesh.CityLabNode4
	if from == target {
		target = mesh.CityLabNode3
	}
	if err := sim.Orch.ForceMigrate("socialnet", socialnet.SvcPostStorage, target); err != nil {
		return fig14aResult{}, err
	}
	if err := sim.Run(r.Horizon); err != nil {
		return fig14aResult{}, err
	}

	series := app.Latency().Series()
	var calm, hot []float64
	for _, p := range series.Points() {
		switch {
		case p.At < restartAt-5*time.Second:
			calm = append(calm, p.Value)
		case p.At >= restartAt && p.At < restartAt+10*time.Second:
			hot = append(hot, p.Value)
		}
	}
	return fig14aResult{
		BaselineMeanSec: mean(calm),
		RestartMeanSec:  mean(hot),
		CDF:             app.Latency().Histogram().CDF(),
	}, nil
}

// Table renders the restart overhead.
func (r fig14aResult) Table() Table {
	return Table{
		Title:  "Fig 14a: latency during a component restart (paper: 552 ms → 4.9 s)",
		Header: []string{"phase", "mean_latency_s"},
		Rows: [][]string{
			{"steady state", f(r.BaselineMeanSec)},
			{"restart window", f(r.RestartMeanSec)},
			{"inflation (x)", f(r.RestartMeanSec / nonZero(r.BaselineMeanSec))},
		},
	}
}

// fig14bRow is one scheduler variant on the CityLab trace.
type fig14bRow struct {
	Variant    string
	MedianSec  float64
	P90Sec     float64
	P99Sec     float64
	Migrations int
}

// fig14bResult compares scheduler/migration variants under the trace.
type fig14bResult struct {
	Rows []fig14bRow
}

// runFig14bVariant runs one CityLab testbed spec as a named variant.
func runFig14bVariant(name string, spec scenario.Spec) (fig14bRow, error) {
	r, err := complete(spec)
	if err != nil {
		return fig14bRow{}, err
	}
	h := r.Social.Latency().Histogram()
	return fig14bRow{
		Variant:    name,
		MedianSec:  h.Median(),
		P90Sec:     h.P90(),
		P99Sec:     h.P99(),
		Migrations: len(r.Sim.Orch.Migrations()),
	}, nil
}

// fig14aSpec is citySocial for 10 minutes.
func fig14aSpec(seed int64) scenario.Spec {
	spec := citySocial(seed)
	spec.HorizonSec = 10 * 60
	return spec
}

// runFig14b reproduces Fig 14(b): latency distributions of the longest-path
// and BFS schedulers with migration, k3s, and longest-path without
// migration, all under the CityLab bandwidth trace. (The paper runs 50 RPS;
// our lighter per-request traffic model reaches the same operating point —
// cross-node flows pressed against dipping links — at 150 RPS.) The paper
// reports p99 of 28 s for longest-path+migration vs 66 s for default k3s.
func runFig14b(seed int64) (fig14bResult, error) {
	variants := []struct {
		name, sched string
		migrate     bool
	}{
		{"longest-path+mig", "longest-path", true},
		{"bfs+mig", "bfs", true},
		{"longest-path", "longest-path", false},
		{"k3s-default", "k3s", false},
	}
	var out fig14bResult
	for _, v := range variants {
		row, err := runFig14bVariant(v.name, fig14bSpec(seed, v.sched, v.migrate))
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// fig14bSpec is one Fig 14(b) variant: citySocial under sched, migrating
// when migrate, with 2 Mbps headroom.
func fig14bSpec(seed int64, sched string, migrate bool) scenario.Spec {
	spec := citySocial(seed)
	spec.Scheduler, spec.Migration, spec.Controller.HeadroomMbps = sched, migrate, 2
	return spec
}

// Table renders the distribution comparison.
func (r fig14bResult) Table() Table {
	t := Table{
		Title:  "Fig 14b: social-network latency on the CityLab trace (paper: longest-path+mig p99 28 s vs k3s 66 s)",
		Header: []string{"variant", "p50_s", "p90_s", "p99_s", "migrations"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Variant, f(row.MedianSec), f(row.P90Sec), f(row.P99Sec),
			fmt.Sprintf("%d", row.Migrations),
		})
	}
	return t
}

// fig14cdCell is one (threshold, headroom) sweep cell.
type fig14cdCell struct {
	Heuristic     string
	ThresholdPct  int
	HeadroomPct   int
	MedianSec     float64
	UpperQuartile float64
	Migrations    int
}

// fig14cdResult is the threshold × headroom grid of Figs 14(c) and (d).
type fig14cdResult struct {
	Cells []fig14cdCell
}

// runFig14cd reproduces Figs 14(c,d): the social network on the CityLab
// trace, sweeping the migration threshold (25-95% link utilization) and
// headroom (10-30% of capacity) for both heuristics. The paper finds 50-65%
// thresholds balance premature and late migrations.
func runFig14cd(seed int64, thresholds, headrooms []int) (fig14cdResult, error) {
	if len(thresholds) == 0 {
		thresholds = []int{25, 50, 65, 75, 95}
	}
	if len(headrooms) == 0 {
		headrooms = []int{10, 20, 30}
	}
	var out fig14cdResult
	for _, sched := range []string{"bfs", "longest-path"} {
		for _, th := range thresholds {
			for _, hr := range headrooms {
				row, err := runFig14bVariant(fmt.Sprintf("%s/t%d/h%d", sched, th, hr), fig14cdSpec(seed, sched, th, hr))
				if err != nil {
					return out, err
				}
				out.Cells = append(out.Cells, fig14cdCell{
					Heuristic:     sched,
					ThresholdPct:  th,
					HeadroomPct:   hr,
					MedianSec:     row.MedianSec,
					UpperQuartile: row.P90Sec,
					Migrations:    row.Migrations,
				})
			}
		}
	}
	return out, nil
}

// fig14cdSpec is the Figs 14(c,d) cell of the named scheduler with migration
// at thresholdPct link utilization and headroomPct of a 20 Mbps-class mesh
// link as headroom.
func fig14cdSpec(seed int64, sched string, thresholdPct, headroomPct int) scenario.Spec {
	spec := citySocial(seed)
	spec.Scheduler, spec.Migration = sched, true
	spec.Controller.UtilizationThreshold, spec.Controller.HeadroomMbps = float64(thresholdPct)/100, float64(headroomPct)/100*20
	return spec
}

// Table renders the sweep grid.
func (r fig14cdResult) Table() Table {
	t := Table{
		Title:  "Fig 14c/d: latency under different migration thresholds and headroom (paper: 50-65% thresholds best for fixed arrivals)",
		Header: []string{"heuristic", "threshold_pct", "headroom_pct", "p50_s", "p90_s", "migrations"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Heuristic,
			fmt.Sprintf("%d", c.ThresholdPct),
			fmt.Sprintf("%d", c.HeadroomPct),
			f(c.MedianSec),
			f(c.UpperQuartile),
			fmt.Sprintf("%d", c.Migrations),
		})
	}
	return t
}
