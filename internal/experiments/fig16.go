package experiments

import (
	"fmt"

	"bass/internal/scenario"
)

// fig16Row is one migration threshold under exponential arrivals.
type fig16Row struct {
	ThresholdPct int
	MedianSec    float64
	P90Sec       float64
	Migrations   int
}

// fig16Result sweeps migration thresholds under a bursty workload.
type fig16Result struct {
	Rows []fig16Row
}

// runFig16 reproduces Fig 16: the longest-path scheduler with exponential
// request arrivals (20% headroom) on the CityLab trace,
// sweeping the link-utilization migration threshold. With bursty arrivals,
// lower thresholds (earlier migration) perform better than they do under
// fixed arrivals, because bursts make high-utilization states transient
// precursors of saturation.
func runFig16(seed int64, thresholds []int) (fig16Result, error) {
	if len(thresholds) == 0 {
		thresholds = []int{25, 50, 65, 75, 95}
	}
	var out fig16Result
	for _, th := range thresholds {
		r, err := complete(fig16Spec(seed, th))
		if err != nil {
			return out, err
		}
		h := r.Social.Latency().Histogram()
		out.Rows = append(out.Rows, fig16Row{
			ThresholdPct: th,
			MedianSec:    h.Median(),
			P90Sec:       h.P90(),
			Migrations:   len(r.Sim.Orch.Migrations()),
		})
	}
	return out, nil
}

// fig16Spec is citySocial with bursty arrivals and migration at
// thresholdPct link utilization, keeping the default headroom (20% of a
// 20 Mbps-class link).
func fig16Spec(seed int64, thresholdPct int) scenario.Spec {
	spec := citySocial(seed)
	spec.Migration, spec.Controller.UtilizationThreshold = true, float64(thresholdPct)/100
	spec.Apps[0].Socialnet.Bursty = true
	return spec
}

// Table renders the sweep.
func (r fig16Result) Table() Table {
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
