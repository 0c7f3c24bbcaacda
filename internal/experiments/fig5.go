package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/scenario"
	"bass/internal/trace"
)

// fig5Result is the latency timeline of the motivation experiment.
type fig5Result struct {
	// CalmSec / ThrottledSec / RecoveredSec are average per-second latencies
	// sampled before, during, and after the 25 Mbps window.
	CalmSec      float64
	ThrottledSec float64
	RecoveredSec float64
	// Series is the per-second average latency for plotting.
	Series []seriesPoint
}

// seriesPoint is a (time, value) sample for rendered series.
type seriesPoint struct {
	AtSec float64
	Value float64
}

// runFig5 reproduces Fig 5: the social network on a 3-node cluster at 400
// requests/second (exponential arrival); one link is reduced to 25 Mbps for
// two minutes mid-run. Average end-to-end latency inflates by an order of
// magnitude during the restriction and recovers afterwards.
func runFig5(seed int64) (fig5Result, error) {
	const (
		throttleAt  = 60 * time.Second
		throttleFor = 2 * time.Minute
		horizon     = 5 * time.Minute
	)
	spec := socialLAN(3, 400, seed)
	spec.HorizonSec = int(horizon / time.Second)
	r, err := scenario.Build(spec)
	if err != nil {
		return fig5Result{}, err
	}
	defer r.Sim.Close()
	nginxNode := r.Sim.Cluster.NodeOf("socialnet", socialnet.SvcNginx)
	if nginxNode == "" {
		return fig5Result{}, fmt.Errorf("fig5: nginx not placed")
	}
	if err := r.Sim.Topo.SetCapacity("node4", nginxNode, trace.StepTrace("throttle", time.Second, horizon, []trace.Level{
		{From: 0, Mbps: 1000},
		{From: throttleAt, Mbps: 25},
		{From: throttleAt + throttleFor, Mbps: 1000},
	})); err != nil {
		return fig5Result{}, err
	}
	if err := r.Sim.Run(horizon); err != nil {
		return fig5Result{}, err
	}
	series := r.Social.Latency().Series()
	var out fig5Result
	for _, p := range series.Points() {
		out.Series = append(out.Series, seriesPoint{AtSec: p.At.Seconds(), Value: p.Value})
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
func (r fig5Result) Table() Table {
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
