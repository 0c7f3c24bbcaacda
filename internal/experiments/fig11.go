package experiments

import (
	"fmt"
	"time"

	"bass/internal/scenario"
	"bass/internal/trace"
)

// fig11Row is one (scheduler, restriction, rate) cell.
type fig11Row struct {
	Scheduler  string
	Restricted bool
	RPS        float64
	P99Sec     float64
	MeanSec    float64
}

// fig11Result compares p99 latency of the longest-path and k3s schedulers
// with and without a 25 Mbps restriction.
type fig11Result struct {
	Rows []fig11Row
}

// runFig11 reproduces Fig 11: the social network on 4 d710-class nodes at
// 100/200/300 RPS, with and without one node's links restricted to 25 Mbps.
// Unrestricted, the heuristic and default schedulers are comparable; with
// the restriction, the bandwidth-oblivious k3s placement suffers orders of
// magnitude higher tail latency at 200-300 RPS.
func runFig11(seed int64, rates []float64) (fig11Result, error) {
	if len(rates) == 0 {
		rates = []float64{100, 200, 300}
	}
	const horizon = 4 * time.Minute
	var out fig11Result
	for _, restricted := range []bool{false, true} {
		for _, sched := range []string{"longest-path", "k3s"} {
			for _, rps := range rates {
				r, err := runFig11Cell(seed, sched, restricted, rps, horizon)
				if err != nil {
					return out, err
				}
				h := r.Social.Latency().Histogram()
				out.Rows = append(out.Rows, fig11Row{
					Scheduler:  r.Policy,
					Restricted: restricted,
					RPS:        rps,
					P99Sec:     h.P99(),
					MeanSec:    h.Mean(),
				})
			}
		}
	}
	return out, nil
}

// fig11Spec is socialLAN's four workers at rps under sched, its DAG
// profiled at 300 RPS.
func fig11Spec(seed int64, sched string, rps float64, horizon time.Duration) scenario.Spec {
	spec := socialLAN(4, rps, seed)
	spec.Scheduler = sched
	spec.Apps[0].Socialnet.ProfileRPS = 300
	spec.HorizonSec = secs(horizon)
	return spec
}

// runFig11Cell runs the social network on four d710-class workers at rps.
// restricted throttles one fixed worker's interface to 25 Mbps (the paper
// throttles "bandwidth on one node"): the bandwidth-aware scheduler keeps
// its heavy pairs co-located, so that node carries little of its traffic;
// the spreading baseline routes hot pairs through it.
func runFig11Cell(seed int64, sched string, restricted bool, rps float64, horizon time.Duration) (*scenario.Run, error) {
	r, err := scenario.Build(fig11Spec(seed, sched, rps, horizon))
	if err != nil {
		return nil, err
	}
	defer r.Sim.Close()
	if restricted {
		// Not a links entry: placement must see node3 at 1 Gbps, so the throttle lands after deploy.
		if err := r.Sim.Topo.ThrottleEgress("node3",
			trace.Constant("throttle", time.Second, 25, int(horizon/time.Second))); err != nil {
			return nil, err
		}
	}
	return r, r.Sim.Run(horizon)
}

// Table renders the comparison.
func (r fig11Result) Table() Table {
	t := Table{
		Title:  "Fig 11: social-network p99 latency, longest-path vs k3s, unrestricted vs one node at 25 Mbps",
		Header: []string{"scheduler", "restricted", "rps", "p99_s", "mean_s"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scheduler,
			fmt.Sprintf("%v", row.Restricted),
			fmt.Sprintf("%.0f", row.RPS),
			f(row.P99Sec),
			f(row.MeanSec),
		})
	}
	return t
}
