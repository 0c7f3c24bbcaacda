package experiments

import (
	"fmt"
	"time"

	"bass/internal/scheduler"
)

// Fig16Row is one migration threshold under exponential arrivals.
type Fig16Row struct {
	ThresholdPct int
	MedianSec    float64
	P90Sec       float64
	Migrations   int
}

// Fig16Result sweeps migration thresholds under a bursty workload.
type Fig16Result struct {
	Rows []Fig16Row
}

// RunFig16 reproduces Fig 16: the longest-path scheduler with exponential
// request arrivals (20% headroom) on the CityLab trace,
// sweeping the link-utilization migration threshold. With bursty arrivals,
// lower thresholds (earlier migration) perform better than they do under
// fixed arrivals, because bursts make high-utilization states transient
// precursors of saturation.
func RunFig16(seed int64, thresholds []int) (Fig16Result, error) {
	if len(thresholds) == 0 {
		thresholds = []int{25, 50, 65, 75, 95}
	}
	var out Fig16Result
	for _, th := range thresholds {
		oc, err := citySocial{
			policy:  scheduler.NewBass(scheduler.HeuristicLongestPath),
			migrate: true,
			ctrl:    thresholdController(float64(th)/100, 0.2*20), // 20% of a 20 Mbps-class link
			bursty:  true,
			horizon: 20 * time.Minute,
		}.run(seed)
		if err != nil {
			return out, err
		}
		h := oc.app.Latency().Histogram()
		out.Rows = append(out.Rows, Fig16Row{
			ThresholdPct: th,
			MedianSec:    h.Median(),
			P90Sec:       h.P90(),
			Migrations:   len(oc.sim.Orch.Migrations()),
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r Fig16Result) Table() Table {
	t := Table{
		Title:  "Fig 16: longest-path scheduler with exponential arrivals (bursty arrivals), by migration threshold (paper: lower thresholds win under bursts)",
		Header: []string{"threshold_pct", "p50_s", "p90_s", "migrations"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.ThresholdPct),
			f(row.MedianSec),
			f(row.P90Sec),
			fmt.Sprintf("%d", row.Migrations),
		})
	}
	return t
}

func init() {
	register("fig16", func(p Params) ([]Table, error) {
		thresholds := []int{25, 50, 65, 75, 95}
		if p.Quick {
			thresholds = []int{25, 65, 95}
		}
		return oneTable(RunFig16(p.Seed, thresholds))
	})
}
