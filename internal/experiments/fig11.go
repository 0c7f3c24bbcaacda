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

// Fig11Row is one (scheduler, restriction, rate) cell.
type Fig11Row struct {
	Scheduler  string
	Restricted bool
	RPS        float64
	P99Sec     float64
	MeanSec    float64
}

// Fig11Result compares p99 latency of the longest-path and k3s schedulers
// with and without a 25 Mbps restriction.
type Fig11Result struct {
	Rows []Fig11Row
}

// RunFig11 reproduces Fig 11: the social network on 4 d710-class nodes at
// 100/200/300 RPS, with and without one node's links restricted to 25 Mbps.
// Unrestricted, the heuristic and default schedulers are comparable; with
// the restriction, the bandwidth-oblivious k3s placement suffers orders of
// magnitude higher tail latency at 200-300 RPS.
func RunFig11(seed int64, rates []float64) (Fig11Result, error) {
	if len(rates) == 0 {
		rates = []float64{100, 200, 300}
	}
	const horizon = 4 * time.Minute
	policies := []scheduler.Policy{
		scheduler.NewBass(scheduler.HeuristicLongestPath),
		scheduler.NewK3s(),
	}
	var out Fig11Result
	for _, restricted := range []bool{false, true} {
		for _, policy := range policies {
			for _, rps := range rates {
				nodes := withClientHost(microbenchNodes(4), "node5")
				topo := LANTopology(nodes, horizon)
				sc := socialScenario{
					topo:  topo,
					nodes: nodes,
					seed:  seed,
					simCfg: core.Config{
						Policy: policy,
					},
					appCfg: socialnet.Config{
						ClientNode: "node5",
						Arrival:    workload.Exponential{MeanPerSecond: rps},
						ProfileRPS: 300,
					},
					horizon: horizon,
				}
				if restricted {
					sc.prepared = func(app *socialnet.App, sim *core.Simulation) error {
						// Restrict one fixed worker's interface to 25 Mbps (the
						// paper throttles "bandwidth on one node"). The
						// bandwidth-aware scheduler keeps its heavy pairs
						// co-located, so the restricted node carries little of
						// its traffic; the spreading baseline routes hot pairs
						// through it.
						return topo.ThrottleEgress("node3",
							trace.Constant("throttle", time.Second, 25, int(horizon/time.Second)))
					}
				}
				oc, err := sc.run()
				if err != nil {
					return out, err
				}
				h := oc.app.Latency().Histogram()
				out.Rows = append(out.Rows, Fig11Row{
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

// Table renders the comparison.
func (r Fig11Result) Table() Table {
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

func init() {
	register("fig11", func(p Params) ([]Table, error) {
		rates := []float64{100, 200, 300}
		if p.Quick {
			rates = []float64{100, 300}
		}
		return oneTable(RunFig11(p.Seed, rates))
	})
}
