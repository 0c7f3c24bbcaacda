package experiments

import (
	"fmt"
	"time"

	"bass/internal/scenario"
	"bass/internal/scheduler"
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
	policies := []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	}
	var out fig11Result
	for _, restricted := range []bool{false, true} {
		for _, policy := range policies {
			for _, rps := range rates {
				r, err := runFig11Cell(seed, policy, restricted, rps, horizon)
				if err != nil {
					return out, err
				}
				h := r.Social.Latency().Histogram()
				out.Rows = append(out.Rows, fig11Row{
					Scheduler:  policy.Name(),
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

// runFig11Cell runs the social network on four d710-class workers at rps.
// restricted throttles one fixed worker's interface to 25 Mbps (the paper
// throttles "bandwidth on one node"): the bandwidth-aware scheduler keeps
// its heavy pairs co-located, so that node carries little of its traffic;
// the spreading baseline routes hot pairs through it.
func runFig11Cell(seed int64, policy scheduler.Policy, restricted bool, rps float64, horizon time.Duration) (*scenario.Run, error) {
	spec := socialLAN(4, rps, seed)
	spec.Policy = policy
	spec.ProfileRPS = 300
	spec.HorizonSec = int(horizon / time.Second)
	r, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	defer r.Sim.Close()
	if restricted {
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
