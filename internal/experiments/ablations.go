package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/controller"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/trace"
	"bass/internal/workload"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Setting    string
	MeanSec    float64
	P99Sec     float64
	Migrations int
	// Extra carries a sweep-specific quantity (probe overhead fraction,
	// tail latency, ...).
	Extra float64
}

// AblationResult is a one-dimensional design-choice sweep.
type AblationResult struct {
	Name  string
	Extra string // label of the Extra column
	Rows  []AblationRow
}

// Table renders the sweep.
func (r AblationResult) Table() Table {
	t := Table{
		Title:  "Ablation: " + r.Name,
		Header: []string{"setting", "mean_s", "p99_s", "migrations", r.Extra},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Setting, f(row.MeanSec), f(row.P99Sec),
			fmt.Sprintf("%d", row.Migrations), f(row.Extra),
		})
	}
	return t
}

// RunAblationPackLimit sweeps the scheduler's pack limit on the Fig 13
// scenario: packing nodes completely (1.0) leaves no room to receive
// migrated components; packing too loosely spreads chains across links.
func RunAblationPackLimit(seed int64, limits []float64) (AblationResult, error) {
	if len(limits) == 0 {
		limits = []float64{0.6, 0.8, 1.0}
	}
	const (
		throttleAt  = 10 * time.Second
		throttleFor = 3 * time.Minute
		horizon     = 5 * time.Minute
	)
	out := AblationResult{Name: "scheduler pack limit (Fig 13 scenario)", Extra: "throttle_tail_mean_s"}
	for _, limit := range limits {
		nodes := withClientHost(microbenchNodes(3), "node4")
		topo := LANTopology(nodes, horizon)
		sc := socialScenario{
			topo:  topo,
			nodes: nodes,
			seed:  seed,
			simCfg: core.Config{
				Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath, scheduler.WithPackLimit(limit)),
				EnableMigration:   true,
				MonitorInterval:   30 * time.Second,
				MigrationDowntime: 4300 * time.Millisecond,
			},
			appCfg: socialnet.Config{
				ClientNode: "node4",
				Arrival:    workload.Exponential{MeanPerSecond: 400},
				ProfileRPS: 400,
			},
			horizon: horizon,
			prepared: func(app *socialnet.App, sim *core.Simulation) error {
				shaped := trace.StepTrace("throttle", time.Second, horizon, []trace.Level{
					{From: 0, Mbps: 1000},
					{From: throttleAt, Mbps: 25},
					{From: throttleAt + throttleFor, Mbps: 1000},
				})
				for _, node := range []string{"node1", "node2"} {
					if err := topo.ThrottleEgress(node, shaped); err != nil {
						return err
					}
				}
				return nil
			},
		}
		oc, err := sc.run()
		if err != nil {
			return out, err
		}
		h := oc.app.Latency().Histogram()
		series := oc.app.Latency().Series()
		var tail []float64
		for _, p := range series.Points() {
			if p.At >= throttleAt+throttleFor-time.Minute && p.At < throttleAt+throttleFor {
				tail = append(tail, p.Value)
			}
		}
		out.Rows = append(out.Rows, AblationRow{
			Setting:    fmt.Sprintf("pack=%.1f", limit),
			MeanSec:    h.Mean(),
			P99Sec:     h.P99(),
			Migrations: len(oc.sim.Orch.Migrations()),
			Extra:      mean(tail),
		})
	}
	return out, nil
}

// RunAblationCooldown sweeps the controller's cooldown on the CityLab mesh:
// zero cooldown chases transients, long cooldowns react too late (§4.3's
// rationale for having one at all).
func RunAblationCooldown(seed int64, cooldownsSec []int) (AblationResult, error) {
	if len(cooldownsSec) == 0 {
		cooldownsSec = []int{0, 30, 120}
	}
	const horizon = 20 * time.Minute
	out := AblationResult{Name: "controller cooldown (CityLab mesh)", Extra: "p90_s"}
	for _, cd := range cooldownsSec {
		topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: seed, Duration: horizon})
		if err != nil {
			return out, err
		}
		ctrlCfg := controller.DefaultConfig()
		ctrlCfg.Cooldown = time.Duration(cd) * time.Second
		sc := socialScenario{
			topo:  topo,
			nodes: cityLabSocialNodes(),
			seed:  seed,
			simCfg: core.Config{
				Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
				Controller:        ctrlCfg,
				EnableMigration:   true,
				MonitorInterval:   30 * time.Second,
				MigrationDowntime: 4300 * time.Millisecond,
				ReservedCPU:       1,
			},
			appCfg: socialnet.Config{
				ClientNode: mesh.CityLabControl,
				Arrival:    workload.Constant{PerSecond: 150},
			},
			horizon: horizon,
		}
		oc, err := sc.run()
		if err != nil {
			return out, err
		}
		h := oc.app.Latency().Histogram()
		out.Rows = append(out.Rows, AblationRow{
			Setting:    fmt.Sprintf("cooldown=%ds", cd),
			MeanSec:    h.Mean(),
			P99Sec:     h.P99(),
			Migrations: len(oc.sim.Orch.Migrations()),
			Extra:      h.P90(),
		})
	}
	return out, nil
}

// RunAblationProbeInterval sweeps core.Config.MonitorInterval on the CityLab
// mesh and reports the probing overhead fraction alongside latency: the
// §6.3.4 trade-off between reaction time and network cost. MonitorInterval
// paces the headroom-probe sweeps, since every control cycle begins with
// one.
func RunAblationProbeInterval(seed int64, intervalsSec []int) (AblationResult, error) {
	if len(intervalsSec) == 0 {
		intervalsSec = []int{10, 30, 90}
	}
	const horizon = 20 * time.Minute
	out := AblationResult{Name: "headroom probe interval (CityLab mesh)", Extra: "probe_overhead_frac"}
	for _, iv := range intervalsSec {
		topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: seed, Duration: horizon})
		if err != nil {
			return out, err
		}
		sc := socialScenario{
			topo:  topo,
			nodes: cityLabSocialNodes(),
			seed:  seed,
			simCfg: core.Config{
				Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
				EnableMigration:   true,
				MonitorInterval:   time.Duration(iv) * time.Second,
				MigrationDowntime: 4300 * time.Millisecond,
				ReservedCPU:       1,
			},
			appCfg: socialnet.Config{
				ClientNode: mesh.CityLabControl,
				Arrival:    workload.Constant{PerSecond: 150},
			},
			horizon: horizon,
		}
		oc, err := sc.run()
		if err != nil {
			return out, err
		}
		h := oc.app.Latency().Histogram()
		stats := oc.sim.Orch.Monitor().Stats()
		out.Rows = append(out.Rows, AblationRow{
			Setting:    fmt.Sprintf("interval=%ds", iv),
			MeanSec:    h.Mean(),
			P99Sec:     h.P99(),
			Migrations: len(oc.sim.Orch.Migrations()),
			Extra:      stats.OverheadFrac(horizon, 21, 6),
		})
	}
	return out, nil
}

func init() {
	register("ablate-pack", func(p Params) ([]Table, error) {
		r, err := RunAblationPackLimit(p.Seed, nil)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
	register("ablate-cooldown", func(p Params) ([]Table, error) {
		r, err := RunAblationCooldown(p.Seed, nil)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
	register("ablate-probe", func(p Params) ([]Table, error) {
		r, err := RunAblationProbeInterval(p.Seed, nil)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
}
