package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/core"
	"bass/internal/scheduler"
	"bass/internal/trace"
	"bass/internal/workload"
)

// Fig13Row is one monitoring-interval configuration of Fig 13.
type Fig13Row struct {
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

// Fig13Result compares monitoring intervals for social-network migration.
type Fig13Result struct {
	Rows []Fig13Row
	// Evaluations feeds Table 1: the controller's per-cycle violation and
	// migration counts for the 30 s interval run.
	Evaluations []core.EvaluationRecord
}

// throttledLAN is the Fig 13 testbed, shared by Fig 13, Table 1 and the
// pack-limit ablation: the social network at 400 RPS (exponential) on three
// d710-class nodes plus a client host. 10 s in, the outgoing interfaces of
// node1 and node2 are throttled to 25 Mbps for 3 minutes (tc on two of the
// three nodes, as in the paper); node3 keeps full egress and becomes the
// migration refuge. Its fields are what those jobs vary.
type throttledLAN struct {
	// interval is the monitor interval; zero disables migration.
	interval time.Duration
	// packLimit caps node packing so nodes keep room to receive migrated
	// components.
	packLimit float64
}

const (
	lanThrottleAt  = 10 * time.Second
	lanThrottleEnd = lanThrottleAt + 3*time.Minute
	lanHorizon     = 5 * time.Minute
)

// run executes the testbed for seed and leaves the simulation closed.
func (b throttledLAN) run(seed int64) (socialOutcome, error) {
	nodes := withClientHost(microbenchNodes(3), "node4")
	topo := LANTopology(nodes, lanHorizon)
	return socialScenario{
		topo:  topo,
		nodes: nodes,
		seed:  seed,
		simCfg: core.Config{
			Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath, scheduler.WithPackLimit(b.packLimit)),
			EnableMigration:   b.interval > 0,
			MonitorInterval:   b.interval,
			MigrationDowntime: 4300 * time.Millisecond,
		},
		appCfg: socialnet.Config{
			ClientNode: "node4",
			Arrival:    workload.Exponential{MeanPerSecond: 400},
			ProfileRPS: 400,
		},
		horizon: lanHorizon,
		prepared: func(*socialnet.App, *core.Simulation) error {
			shaped := trace.StepTrace("throttle", time.Second, lanHorizon, []trace.Level{
				{From: 0, Mbps: 1000},
				{From: lanThrottleAt, Mbps: 25},
				{From: lanThrottleEnd, Mbps: 1000},
			})
			for _, node := range []string{"node1", "node2"} {
				if err := topo.ThrottleEgress(node, shaped); err != nil {
					return err
				}
			}
			return nil
		},
	}.run()
}

// throttledMeans averages a throttledLAN run's per-second latency over the
// restriction window and over its final minute, where migration benefits
// have accrued.
func throttledMeans(oc socialOutcome) (during, tail float64) {
	var all, last []float64
	for _, p := range oc.app.Latency().Series().Points() {
		if p.At >= lanThrottleAt && p.At < lanThrottleEnd {
			all = append(all, p.Value)
			if p.At >= lanThrottleEnd-time.Minute {
				last = append(last, p.Value)
			}
		}
	}
	return mean(all), mean(last)
}

// RunFig13 reproduces Fig 13 (and records Table 1's data) on throttledLAN
// with packing capped at 80% ("we enable component scheduling on all 3
// nodes"). BASS with a 30 s monitoring interval migrates the offending
// components and cuts the latency inflation; without migration, latency
// stays up to ~50% higher.
func RunFig13(seed int64, intervals []int) (Fig13Result, error) {
	if len(intervals) == 0 {
		intervals = []int{30, 60, 90, 0}
	}
	var out Fig13Result
	for _, interval := range intervals {
		oc, err := throttledLAN{interval: time.Duration(interval) * time.Second, packLimit: 0.8}.run(seed)
		if err != nil {
			return out, err
		}
		h := oc.app.Latency().Histogram()
		during, tail := throttledMeans(oc)
		out.Rows = append(out.Rows, Fig13Row{
			IntervalSec:          interval,
			MeanSec:              h.Mean(),
			P99Sec:               h.P99(),
			ThrottledMeanSec:     during,
			ThrottledTailMeanSec: tail,
			Migrations:           len(oc.sim.Orch.Migrations()),
		})
		if interval == 30 {
			out.Evaluations = oc.sim.Orch.Evaluations()
		}
	}
	return out, nil
}

// Table renders the interval comparison.
func (r Fig13Result) Table() Table {
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
func (r Fig13Result) Table1() Table {
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

func init() {
	// fig13 and table1 render the same monitoring-interval sweep.
	run := func(p Params) (Fig13Result, error) {
		if p.Quick {
			return RunFig13(p.Seed, []int{30, 0})
		}
		return RunFig13(p.Seed, nil)
	}
	register("fig13", func(p Params) ([]Table, error) {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table(), r.Table1()}, nil
	})
	register("table1", func(p Params) ([]Table, error) {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table1()}, nil
	})
}
