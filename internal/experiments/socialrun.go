package experiments

import (
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/workload"
)

// socialScenario bundles one social-network run's configuration.
type socialScenario struct {
	topo    *mesh.Topology
	nodes   []cluster.Node
	seed    int64
	simCfg  core.Config
	appCfg  socialnet.Config
	horizon time.Duration
	// prepared runs after deployment, before the clock starts (e.g. to
	// install throttles based on where components landed).
	prepared func(app *socialnet.App, sim *core.Simulation) error
}

// socialOutcome is what every social-network experiment consumes.
type socialOutcome struct {
	app *socialnet.App
	sim *core.Simulation
}

// run executes the scenario and leaves the simulation closed.
func (s socialScenario) run() (socialOutcome, error) {
	if s.appCfg.Arrival == nil {
		s.appCfg.Arrival = workload.Constant{PerSecond: 50}
	}
	sim, err := core.NewSimulation(s.topo, s.nodes, s.seed, s.simCfg)
	if err != nil {
		return socialOutcome{}, err
	}
	app, err := socialnet.New(s.appCfg)
	if err != nil {
		sim.Close()
		return socialOutcome{}, err
	}
	if _, err := sim.Orch.Deploy("socialnet", app); err != nil {
		sim.Close()
		return socialOutcome{}, err
	}
	if s.prepared != nil {
		if err := s.prepared(app, sim); err != nil {
			sim.Close()
			return socialOutcome{}, err
		}
	}
	err = sim.Run(s.horizon)
	sim.Close()
	if err != nil {
		return socialOutcome{}, err
	}
	return socialOutcome{app: app, sim: sim}, nil
}

// microbenchNodes returns the d710-class cluster of the paper's social
// network microbenchmarks (4 cores × 2 threads, 12 GB).
func microbenchNodes(n int) []cluster.Node {
	return LANNodes(n, 8, 12288)
}

// withClientHost appends an unschedulable host for the external workload
// generator (the paper runs wrk2 outside the cluster).
func withClientHost(nodes []cluster.Node, name string) []cluster.Node {
	return append(nodes, cluster.Node{Name: name, CPU: 8, MemoryMB: 8192, Unschedulable: true})
}

// cityLabSocialNodes is the CityLab worker set for the social-network mesh
// runs: the workload generator lives on the control-plane host (node0), and
// all four workers are schedulable.
func cityLabSocialNodes() []cluster.Node {
	return CityLabWorkers()
}
