package experiments

import (
	"fmt"
	"time"

	"bass/internal/core"
	"bass/internal/scenario"
)

// fig13Row is one monitoring-interval configuration of Fig 13.
type fig13Row struct {
	IntervalSec int // 0 = no migration
	MeanSec     float64
	P99Sec      float64
	// ThrottledMeanSec averages the per-second latency during the
	// restriction window.
	ThrottledMeanSec float64
	// ThrottledTailMeanSec averages the final minute of the restriction —
	// where migration benefits have accrued (the paper's "up to 50% higher
	// without migration").
	ThrottledTailMeanSec float64
	Migrations           int
}

// fig13Result compares monitoring intervals for social-network migration.
type fig13Result struct {
	Rows []fig13Row
	// Evaluations feeds Table 1: the controller's per-cycle violation and
	// migration counts for the 30 s interval run.
	Evaluations []core.EvaluationRecord
}

// throttledLAN is the Fig 13 testbed for seed, shared by Fig 13, Table 1
// and the pack-limit ablation: socialLAN at 400 RPS
// (profiled at 400) on three workers. 10 s in, the outgoing interfaces of
// node1 and node2 are throttled to 25 Mbps for 3 minutes (tc on two of the
// three nodes, as in the paper); node3 keeps full egress and becomes the
// migration refuge. intervalSec is the monitor interval (0 disables
// migration); packLimit caps node packing so nodes keep room to receive
// migrated components.
func throttledLAN(seed int64, intervalSec int, packLimit float64) scenario.Spec {
	spec := socialLAN(3, 400, seed)
	spec.Apps[0].Socialnet.ProfileRPS = 400
	spec.PackLimit = packLimit
	spec.Migration = intervalSec > 0
	spec.MonitorIntervalSec = intervalSec
	spec.MigrationDowntimeSec = 4.3
	spec.HorizonSec = int(lanHorizon / time.Second)
	throttle := throttleWindow(lanThrottleAt, lanThrottleEnd-lanThrottleAt, lanHorizon, 25)
	spec.Links = []scenario.Link{{Egress: "node1", Phases: throttle}, {Egress: "node2", Phases: throttle}}
	return spec
}

const (
	lanThrottleAt  = 10 * time.Second
	lanThrottleEnd = lanThrottleAt + 3*time.Minute
	lanHorizon     = 5 * time.Minute
)

// throttledMeans averages a throttledLAN run's per-second latency over the
// restriction window and over its final minute, where migration benefits
// have accrued.
func throttledMeans(r *scenario.Run) (during, tail float64) {
	var all, last []float64
	for _, p := range r.Social.Latency().Series().Points() {
		if p.At >= lanThrottleAt && p.At < lanThrottleEnd {
			all = append(all, p.Value)
			if p.At >= lanThrottleEnd-time.Minute {
				last = append(last, p.Value)
			}
		}
	}
	return mean(all), mean(last)
}

// runFig13 reproduces Fig 13 (and records Table 1's data) on throttledLAN
// with packing capped at 80% ("we enable component scheduling on all 3
// nodes"). BASS with a 30 s monitoring interval migrates the offending
// components and cuts the latency inflation; without migration, latency
// stays up to ~50% higher.
func runFig13(seed int64, intervals []int) (fig13Result, error) {
	if len(intervals) == 0 {
		intervals = []int{30, 60, 90, 0}
	}
	var out fig13Result
	for _, interval := range intervals {
		r, err := complete(throttledLAN(seed, interval, 0.8))
		if err != nil {
			return out, err
		}
		h := r.Social.Latency().Histogram()
		during, tail := throttledMeans(r)
		out.Rows = append(out.Rows, fig13Row{
			IntervalSec:          interval,
			MeanSec:              h.Mean(),
			P99Sec:               h.P99(),
			ThrottledMeanSec:     during,
			ThrottledTailMeanSec: tail,
			Migrations:           len(r.Sim.Orch.Migrations()),
		})
		if interval == 30 {
			out.Evaluations = r.Sim.Orch.Evaluations()
		}
	}
	return out, nil
}

// Table renders the interval comparison.
func (r fig13Result) Table() Table {
	t := Table{
		Title:  "Fig 13: social-network latency under throttling, by monitoring interval (0 = no migration; paper: no-migration up to 50% worse, 30 s interval best)",
		Header: []string{"interval_s", "mean_s", "p99_s", "throttled_mean_s", "throttle_tail_mean_s", "migrations"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.IntervalSec),
			f(row.MeanSec),
			f(row.P99Sec),
			f(row.ThrottledMeanSec),
			f(row.ThrottledTailMeanSec),
			fmt.Sprintf("%d", row.Migrations),
		})
	}
	return t
}

// Table1 renders the controller's successive iterations for the 30 s run —
// the paper's Table 1 ("components exceeding link utilization quota" vs
// "components migrated": 6/2, 1/1, 1/1).
func (r fig13Result) Table1() Table {
	t := Table{
		Title:  "Table 1: social-network component migration across scheduler iterations (30 s interval)",
		Header: []string{"iteration", "t_s", "violating", "candidates", "migrated"},
	}
	iter := 0
	for _, ev := range r.Evaluations {
		if ev.Violating == 0 && ev.Migrated == 0 {
			continue
		}
		iter++
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", iter),
			fmt.Sprintf("%.0f", ev.At.Seconds()),
			fmt.Sprintf("%d", ev.Violating),
			fmt.Sprintf("%d", ev.Candidates),
			fmt.Sprintf("%d", ev.Migrated),
		})
	}
	return t
}

// fig13Sweep runs the monitoring-interval sweep that fig13 and table1 both
// render.
func fig13Sweep(p Params) (fig13Result, error) {
	if p.Quick {
		return runFig13(p.Seed, []int{30, 0})
	}
	return runFig13(p.Seed, nil)
}
