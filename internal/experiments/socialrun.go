package experiments

import (
	"fmt"
	"time"

	"bass/internal/cluster"
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
// 11 and 13): n d710-class workers (8 threads, 12 GB) node1..node<n> on a
// 1 Gbps LAN plus an unschedulable 8-core host node<n+1> running the
// workload generator outside the cluster (the paper's wrk2) at rps
// exponential arrivals.
func socialLAN(n int, rps float64, seed int64) scenario.Spec {
	nodes := lanNodes(n, 8, 12288)
	client := fmt.Sprintf("node%d", n+1)
	nodes = append(nodes, cluster.Node{Name: client, CPU: 8, MemoryMB: 8192, Unschedulable: true})
	return scenario.Spec{
		Topology: "lan",
		Nodes:    nodes,
		Apps:     []scenario.App{{Socialnet: &scenario.Socialnet{RPS: rps, Bursty: true, ClientNode: client}}},
		Seed:     seed,
	}
}

// lanNodes is n LAN machines node1..node<n> of cpu cores and memMB each.
func lanNodes(n int, cpu, memMB float64) []cluster.Node {
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i+1), CPU: cpu, MemoryMB: memMB}
	}
	return nodes
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
	return []scenario.Phase{{DurationSec: secs(at), Mbps: 1000}, {DurationSec: secs(dur), Mbps: mbps},
		{DurationSec: secs(horizon - at - dur), Mbps: 1000}}
}

// secs is d in whole seconds, as spec keys take it.
func secs(d time.Duration) int { return int(d / time.Second) }
