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

// Fig5Result is the latency timeline of the motivation experiment.
type Fig5Result struct {
	// CalmSec / ThrottledSec / RecoveredSec are average per-second latencies
	// sampled before, during, and after the 25 Mbps window.
	CalmSec      float64
	ThrottledSec float64
	RecoveredSec float64
	// Series is the per-second average latency for plotting.
	Series []SeriesPoint
}

// SeriesPoint is a (time, value) sample for rendered series.
type SeriesPoint struct {
	AtSec float64
	Value float64
}

// RunFig5 reproduces Fig 5: the social network on a 3-node cluster at 400
// requests/second (exponential arrival); one link is reduced to 25 Mbps for
// two minutes mid-run. Average end-to-end latency inflates by an order of
// magnitude during the restriction and recovers afterwards.
func RunFig5(seed int64) (Fig5Result, error) {
	const (
		throttleAt  = 60 * time.Second
		throttleFor = 2 * time.Minute
		horizon     = 5 * time.Minute
	)
	nodes := withClientHost(microbenchNodes(3), "node4")
	topo := LANTopology(nodes, horizon)
	sc := socialScenario{
		topo:  topo,
		nodes: nodes,
		seed:  seed,
		simCfg: core.Config{
			Policy: scheduler.NewBass(scheduler.HeuristicLongestPath),
		},
		appCfg: socialnet.Config{
			ClientNode: "node4",
			Arrival:    workload.Exponential{MeanPerSecond: 400},
		},
		horizon: horizon,
		prepared: func(app *socialnet.App, sim *core.Simulation) error {
			nginxNode := sim.Cluster.NodeOf("socialnet", socialnet.SvcNginx)
			if nginxNode == "" {
				return fmt.Errorf("fig5: nginx not placed")
			}
			return topo.SetCapacity("node4", nginxNode, trace.StepTrace("throttle", time.Second, horizon, []trace.Level{
				{From: 0, Mbps: 1000},
				{From: throttleAt, Mbps: 25},
				{From: throttleAt + throttleFor, Mbps: 1000},
			}))
		},
	}
	oc, err := sc.run()
	if err != nil {
		return Fig5Result{}, err
	}
	series := oc.app.Latency().Series()
	var out Fig5Result
	for _, p := range series.Points() {
		out.Series = append(out.Series, SeriesPoint{AtSec: p.At.Seconds(), Value: p.Value})
	}
	at := func(t time.Duration) float64 {
		v, _ := series.At(t)
		return v
	}
	out.CalmSec = at(throttleAt - 10*time.Second)
	out.ThrottledSec = at(throttleAt + throttleFor - 10*time.Second)
	out.RecoveredSec = at(horizon - 20*time.Second)
	return out, nil
}

// Table renders the landmark latencies and a decimated series.
func (r Fig5Result) Table() Table {
	t := Table{
		Title:  "Fig 5: social-network average latency with a 2-minute 25 Mbps restriction (400 RPS exponential)",
		Header: []string{"phase", "avg_latency_s"},
		Rows: [][]string{
			{"before restriction", fmt.Sprintf("%.3f", r.CalmSec)},
			{"during restriction", fmt.Sprintf("%.3f", r.ThrottledSec)},
			{"after recovery", fmt.Sprintf("%.3f", r.RecoveredSec)},
			{"inflation (x)", f(r.ThrottledSec / nonZero(r.CalmSec))},
		},
	}
	for i := 0; i < len(r.Series); i += 30 {
		p := r.Series[i]
		t.Rows = append(t.Rows, []string{fmt.Sprintf("t=%.0fs", p.AtSec), fmt.Sprintf("%.3f", p.Value)})
	}
	return t
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1e-12
	}
	return v
}

func init() {
	register("fig5", func(p Params) ([]Table, error) {
		return oneTable(RunFig5(p.Seed))
	})
}
