package experiments

import (
	"time"

	"bass/internal/apps/socialnet"
	"bass/internal/cluster"
	"bass/internal/controller"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
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
	oc, err := s.start()
	if err != nil {
		return oc, err
	}
	defer oc.sim.Close()
	return oc, oc.sim.Run(s.horizon)
}

// start builds the simulation and deploys the social network without
// advancing the clock; the caller runs and closes the simulation.
func (s socialScenario) start() (socialOutcome, error) {
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

// citySocial is the CityLab testbed of §6.3, shared by Figs 14a-d, Fig 16
// and the cooldown and probe-interval ablations: the social network at 150
// RPS, its workload generator on the control-plane host, over the
// trace-driven CityLab mesh, with one core per worker reserved and the
// paper's 4.3 s migration downtime. Its fields are what those jobs vary.
type citySocial struct {
	policy  scheduler.Policy
	migrate bool
	// ctrl is the controller config; zero means controller.DefaultConfig.
	ctrl controller.Config
	// interval is the monitor interval; zero means core's 30 s default.
	interval time.Duration
	// bursty draws exponential rather than constant arrivals.
	bursty  bool
	horizon time.Duration
}

// scenario builds the testbed's run for seed.
func (c citySocial) scenario(seed int64) (socialScenario, error) {
	topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: seed, Duration: c.horizon})
	if err != nil {
		return socialScenario{}, err
	}
	var arrival workload.Arrival = workload.Constant{PerSecond: 150}
	if c.bursty {
		arrival = workload.Exponential{MeanPerSecond: 150}
	}
	return socialScenario{
		topo:  topo,
		nodes: CityLabWorkers(),
		seed:  seed,
		simCfg: core.Config{
			Policy:            c.policy,
			Controller:        c.ctrl,
			EnableMigration:   c.migrate,
			MonitorInterval:   c.interval,
			MigrationDowntime: 4300 * time.Millisecond,
			ReservedCPU:       1,
		},
		appCfg:  socialnet.Config{ClientNode: mesh.CityLabControl, Arrival: arrival},
		horizon: c.horizon,
	}, nil
}

// run executes the testbed for seed and leaves the simulation closed.
func (c citySocial) run(seed int64) (socialOutcome, error) {
	sc, err := c.scenario(seed)
	if err != nil {
		return socialOutcome{}, err
	}
	return sc.run()
}

// thresholdController is the default controller migrating at the given link
// utilization threshold and headroom, with a 0.5 goodput floor.
func thresholdController(threshold, headroomMbps float64) controller.Config {
	c := controller.DefaultConfig()
	c.Migration = scheduler.MigrationConfig{
		UtilizationThreshold: threshold,
		GoodputFloor:         0.5,
		HeadroomMbps:         headroomMbps,
	}
	return c
}
