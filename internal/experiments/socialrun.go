package experiments

import (
	"fmt"
	"time"

	"bass/internal/mesh"
	"bass/internal/scenario"
)

// citySocial is the CityLab testbed of §6.3, shared by Figs 14a-d, Fig 16
// and the cooldown and probe-interval ablations: the social network at 150
// RPS, its workload generator on the control-plane host, over the
// trace-driven CityLab mesh for 20 minutes under longest-path placement and
// the default controller, with one core per worker reserved and the paper's
// 4.3 s migration downtime. Those jobs set the scheduler, migration,
// controller fields, monitor interval, arrivals and horizon.
func citySocial(seed int64) scenario.Spec {
	return scenario.Spec{
		Apps:                 []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 150, ClientNode: mesh.CityLabControl}}},
		Controller:           scenario.DefaultController(),
		MigrationDowntimeSec: 4.3,
		ReservedCPU:          1,
		HorizonSec:           20 * 60,
		Seed:                 seed,
	}
}

// socialLAN is the social-network microbenchmark testbed of §6.2 (Figs 5,
// 11 and 13): n d710-class workers (8 threads, 12 GB) on a 1 Gbps LAN plus
// an unschedulable host node<n+1> running the workload generator outside
// the cluster (the paper's wrk2) at rps exponential arrivals.
func socialLAN(n int, rps float64, seed int64) scenario.Spec {
	return scenario.Spec{
		Topology:     "lan",
		LANNodes:     n,
		LANNodeCPU:   8,
		LANNodeMemMB: 12288,
		ClientHost:   fmt.Sprintf("node%d", n+1),
		Apps:         []scenario.App{{Socialnet: &scenario.Socialnet{RPS: rps, Bursty: true}}},
		Seed:         seed,
	}
}

// complete builds and runs spec, leaving the simulation closed.
func complete(spec scenario.Spec) (*scenario.Run, error) {
	r, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	return r, r.Complete()
}

// throttleWindow is the phases of a 1 Gbps link held at mbps for dur from
// at, over horizon: the paper's tc restriction windows (Figs 12 and 13).
func throttleWindow(at, dur, horizon time.Duration, mbps float64) []scenario.Phase {
	sec := func(d time.Duration) int { return int(d / time.Second) }
	return []scenario.Phase{{DurationSec: sec(at), Mbps: 1000}, {DurationSec: sec(dur), Mbps: mbps},
		{DurationSec: sec(horizon - at - dur), Mbps: 1000}}
}
