package experiments

import (
	"fmt"
	"time"

	"bass/internal/controller"
	"bass/internal/scenario"
)

// ablationRow is one configuration of an ablation sweep.
type ablationRow struct {
	Setting    string
	MeanSec    float64
	P99Sec     float64
	Migrations int
	// Extra carries a sweep-specific quantity (probe overhead fraction,
	// tail latency, ...).
	Extra float64
}

// ablationResult is a one-dimensional design-choice sweep.
type ablationResult struct {
	Name  string
	Extra string // label of the Extra column
	Rows  []ablationRow
}

// Table renders the sweep.
func (r ablationResult) Table() Table {
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

// runAblationPackLimit sweeps the scheduler's pack limit on the Fig 13
// scenario: packing nodes completely (1.0) leaves no room to receive
// migrated components; packing too loosely spreads chains across links.
func runAblationPackLimit(seed int64, limits []float64) (ablationResult, error) {
	if len(limits) == 0 {
		limits = []float64{0.6, 0.8, 1.0}
	}
	out := ablationResult{Name: "scheduler pack limit (Fig 13 scenario)", Extra: "throttle_tail_mean_s"}
	for _, limit := range limits {
		r, err := throttledLAN(seed, 30, limit)
		if err != nil {
			return out, err
		}
		_, tail := throttledMeans(r)
		out.Rows = append(out.Rows, summariseAblation(fmt.Sprintf("pack=%.1f", limit), r, tail))
	}
	return out, nil
}

// runAblationCooldown sweeps the controller's cooldown on the CityLab mesh:
// zero cooldown chases transients, long cooldowns react too late (§4.3's
// rationale for having one at all).
func runAblationCooldown(seed int64, cooldownsSec []int) (ablationResult, error) {
	if len(cooldownsSec) == 0 {
		cooldownsSec = []int{0, 30, 120}
	}
	out := ablationResult{Name: "controller cooldown (CityLab mesh)", Extra: "p90_s"}
	for _, cd := range cooldownsSec {
		spec := citySocial(seed)
		spec.Migration = true
		spec.Controller = controller.DefaultConfig()
		spec.Controller.Cooldown = time.Duration(cd) * time.Second
		r, err := complete(spec)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, summariseAblation(fmt.Sprintf("cooldown=%ds", cd), r, r.Social.Latency().Histogram().P90()))
	}
	return out, nil
}

// runAblationProbeInterval sweeps core.Config.MonitorInterval on the CityLab
// mesh and reports the probing overhead fraction alongside latency: the
// §6.3.4 trade-off between reaction time and network cost. MonitorInterval
// paces the headroom-probe sweeps, since every control cycle begins with
// one.
func runAblationProbeInterval(seed int64, intervalsSec []int) (ablationResult, error) {
	if len(intervalsSec) == 0 {
		intervalsSec = []int{10, 30, 90}
	}
	out := ablationResult{Name: "headroom probe interval (CityLab mesh)", Extra: "probe_overhead_frac"}
	for _, iv := range intervalsSec {
		spec := citySocial(seed)
		spec.Migration = true
		spec.MonitorIntervalSec = iv
		r, err := complete(spec)
		if err != nil {
			return out, err
		}
		overhead := r.Sim.Orch.Monitor().Stats().OverheadFrac(r.Horizon, 21, 6)
		out.Rows = append(out.Rows, summariseAblation(fmt.Sprintf("interval=%ds", iv), r, overhead))
	}
	return out, nil
}

// summariseAblation summarises one run's latency and migrations under setting.
func summariseAblation(setting string, r *scenario.Run, extra float64) ablationRow {
	h := r.Social.Latency().Histogram()
	return ablationRow{
		Setting:    setting,
		MeanSec:    h.Mean(),
		P99Sec:     h.P99(),
		Migrations: len(r.Sim.Orch.Migrations()),
		Extra:      extra,
	}
}
