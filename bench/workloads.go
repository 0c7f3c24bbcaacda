package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/apps/socialnet"
	"bass/internal/apps/videoconf"
	"bass/internal/cluster"
	"bass/internal/controller"
	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/experiments"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scheduler"
	"bass/internal/sim"
	"bass/internal/simnet"
	"bass/internal/workload"
)

// epoch is the monitor interval every workload is driven and timed by.
const epoch = 30 * time.Second

// workloadDef is one named benchmark workload. Names are fixed: later issues
// cite them.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json's "why").
	why   string
	build func(p buildParams) (*instance, error)
	// variant names the one ratio rep the workload's traced pass adds ("" =
	// none); variantParams maps it to the switch it flips.
	variant string
}

// buildParams are a workload's generated inputs: the seed plus the handful of
// switches the per-layer ratio reps flip. Canonical runs leave all of them
// zero (serial, batch on where the workload uses it).
type buildParams struct {
	seed  int64
	quick bool
	// shards > 1 runs simnet sharded (city-flows' simnet.shards2_x rep).
	shards int
	// evalWorkers > 1 sizes the controller's pool (city-storm's
	// core.workers2_x rep).
	evalWorkers int
	// greedy turns BatchPlacement off (city-batch's greedy twin).
	greedy bool
}

var workloads = []workloadDef{
	{"paper-mesh", "paper 6.3 regime: 3 apps on the 5-node CityLab mesh; sim dispatch, simnet reads and flow churn, mesh.Route and apps dominate, control plane idles", buildPaperMesh, ""},
	{"city-flows", "1,024-node grid, 100k static streams, no orchestrator: pure simnet water-filling and trace walk, the memory-heavy case", buildCityFlows, "shards2"},
	{"city-storm", "196 nodes, 1,400 oversubscribed chain apps, journal+store+SLO: netmon, scheduler scoring, core commit, obs, metricstore, slo do nearly all the work", buildCityStorm, "workers2"},
	{"city-batch", "196 nodes, 140 five-stage pipelines under BatchPlacement, migration off: scheduler.Batch cost in set-up and its goodput benefit", buildCityBatch, "greedy"},
	{"town-chaos", "64 nodes, 80 chain apps, seeded fault storm over many cheap epochs: faults, reconcile, failover, slo burn windows, metricstore retention, journal wraparound", buildTownChaos, ""},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// flowRef is one stream the bench installed itself (city-flows).
type flowRef struct {
	id     simnet.FlowID
	demand float64
}

// edgeRef is one deployed DAG edge, with its accounting tag prebuilt so
// goodput sampling between epochs allocates nothing.
type edgeRef struct {
	app, from, to, tag string
	weight             float64
}

// instance is a built workload, ready to run: the simulated system plus what
// the bench measured while building it.
type instance struct {
	eng      *sim.Engine
	topo     *mesh.Topology
	net      *simnet.Network
	sim      *core.Simulation // nil on city-flows: no orchestrator
	journal  *obs.Journal
	store    *metricstore.Store
	injector *faults.Injector
	horizon  time.Duration
	stop     func()

	flows  []flowRef
	edges  []edgeRef
	graphs []*dag.Graph // deployed apps, in deployment order
	social *socialnet.App
	cam    *camera.App
	synth  []*streamApp

	// Spans the bench timed around public calls during set-up.
	meshBuild, install, deploy time.Duration
	placeMS                    []float64 // one per Orch.Deploy

	deploys               int // Orch.Deploy calls; a failed one fails the rep
	installs, installErrs int // direct AddStream calls (city-flows)
	// opsTried/opsFailed follow ops_failed_frac's wide definition (filled in
	// by collectCounters and checkOutcome at the horizon).
	opsTried, opsFailed int
}

// gridDims is the squarest rows×cols cover of n nodes (as RunScale/RunSched).
func gridDims(n int) (rows, cols int) {
	rows = 1
	for rows*rows < n {
		rows++
	}
	return rows, (n + rows - 1) / rows
}

func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// nearLocalPair draws the endpoint pattern every grid population shares with
// RunScale: 90 % of pairs within two grid steps, the rest city-crossing, never
// co-located.
func nearLocalPair(rng *rand.Rand, rows, cols int) (sr, sc, dr, dc int) {
	sr, sc = rng.Intn(rows), rng.Intn(cols)
	if rng.Float64() < 0.9 {
		dr = clampInt(sr+rng.Intn(5)-2, rows)
		dc = clampInt(sc+rng.Intn(5)-2, cols)
	} else {
		dr, dc = rng.Intn(rows), rng.Intn(cols)
	}
	if dr == sr && dc == sc {
		dc = clampInt(dc+1, cols)
		if dc == sc {
			dr = clampInt(dr+1, rows)
		}
	}
	return sr, sc, dr, dc
}

func gridNodes(rows, cols int, cpu float64) []cluster.Node {
	nodes := make([]cluster.Node, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: cpu, MemoryMB: 16384})
		}
	}
	return nodes
}

// timedGrid builds the grid mesh and records the mesh.build_s span.
// changesPerLink 0 takes mesh.Grid's default capacity churn.
func (in *instance) timedGrid(rows, cols int, seed int64, changesPerLink int) error {
	t0 := time.Now()
	topo, err := mesh.Grid(mesh.GridOptions{
		Rows: rows, Cols: cols, Seed: seed,
		Duration:       in.horizon + time.Minute, // headroom past the horizon: no trace wrap
		ChangesPerLink: changesPerLink,
	})
	in.meshBuild = time.Since(t0)
	in.topo = topo
	return err
}

// newSimulation wires the orchestration stack over in.topo and, when asked,
// attaches the journal and store the way `bass-sim -events-out` ships them
// (default-capacity ring, default-retention store).
func (in *instance) newSimulation(nodes []cluster.Node, seed int64, cfg core.Config, observe bool) error {
	s, err := core.NewSimulation(in.topo, nodes, seed, cfg)
	if err != nil {
		return err
	}
	in.sim, in.eng, in.net, in.stop = s, s.Eng, s.Net, s.Close
	if observe {
		in.journal = obs.NewJournal(0)
		in.store = metricstore.New(0)
		s.AttachObservability(in.journal, in.store)
	}
	return nil
}

// deployApp times one Orch.Deploy (place_ms sample) and indexes the app's
// edges for goodput sampling and the digest.
func (in *instance) deployApp(name string, w core.Workload, overrides scheduler.Assignment) error {
	in.deploys++
	t0 := time.Now()
	_, err := in.sim.Orch.DeployAt(name, w, overrides)
	d := time.Since(t0)
	in.deploy += d
	in.placeMS = append(in.placeMS, float64(d.Nanoseconds())/1e6)
	if err != nil {
		return fmt.Errorf("deploy %s: %w", name, err) // fails the rep
	}
	g := w.Graph()
	in.graphs = append(in.graphs, g)
	// Edges() follows insertion order, which socialnet takes from a map:
	// sort, so sampling sums and the digest see one order on every run.
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		in.edges = append(in.edges, edgeRef{
			app: name, from: e.From, to: e.To,
			tag:    name + "/" + e.From + "->" + e.To, // core.Env.Tag's documented form
			weight: e.BandwidthMbps,
		})
	}
	return nil
}

// buildPaperMesh is the paper's §6.3 regime: the three evaluation apps
// co-deployed on the 5-node CityLab mesh under the calibrated varying traces,
// longest-path placement, migration on with the Fig 14b thresholds.
func buildPaperMesh(p buildParams) (*instance, error) {
	in := &instance{horizon: 20 * time.Minute}
	if p.quick {
		in.horizon = 2 * time.Minute
	}
	t0 := time.Now()
	topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: p.seed, Duration: in.horizon})
	in.meshBuild = time.Since(t0)
	if err != nil {
		return nil, err
	}
	in.topo = topo

	ctrl := controller.DefaultConfig()
	ctrl.Migration = scheduler.MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0.5, HeadroomMbps: 2}
	err = in.newSimulation(experiments.CityLabWorkers(), p.seed, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
		Controller:        ctrl,
		EnableMigration:   true,
		MonitorInterval:   epoch,
		MigrationDowntime: 4300 * time.Millisecond,
		ReservedCPU:       1,
		EvalWorkers:       p.evalWorkers,
	}, true)
	if err != nil {
		return nil, err
	}

	// Fig 14b's social network, at the paper's exponential arrivals.
	in.social, err = socialnet.New(socialnet.Config{
		ClientNode: mesh.CityLabControl,
		Arrival:    workload.Exponential{MeanPerSecond: 150},
	})
	if err != nil {
		return nil, err
	}
	if err := in.deployApp("socialnet", in.social, nil); err != nil {
		return nil, err
	}
	// Fig 15b's conference: three participants at each worker.
	vc, err := videoconf.New(videoconf.Config{
		ClientsPerNode: map[string]int{
			mesh.CityLabNode1: 3, mesh.CityLabNode2: 3, mesh.CityLabNode3: 3, mesh.CityLabNode4: 3,
		},
		PublishMbps: 0.5,
	})
	if err != nil {
		return nil, err
	}
	if err := in.deployApp("videoconf", vc, nil); err != nil {
		return nil, err
	}
	// Table 2's camera: 30 KB frames entering at node2, whose links are the
	// mesh's weakest. Deployed first: its 8-core detector needs a still-empty
	// worker.
	in.cam, err = camera.New(camera.Config{FrameKB: 30, PinCamera: mesh.CityLabNode2, SamplerCPU: 2, DetectorCPU: 4})
	if err != nil {
		return nil, err
	}
	if err := in.deployApp("camera", in.cam, nil); err != nil {
		return nil, err
	}
	return in, nil
}

// buildCityFlows is RunScale's population: tiered static streams on a city
// grid with no orchestrator above them.
func buildCityFlows(p buildParams) (*instance, error) {
	nodes, flows := 1024, 100_000
	in := &instance{horizon: 30 * time.Second}
	if p.quick {
		nodes, flows = 64, 1000
	}
	rows, cols := gridDims(nodes)
	if err := in.timedGrid(rows, cols, p.seed, 0); err != nil {
		return nil, err
	}
	in.eng = sim.NewEngine(p.seed)
	in.net = simnet.New(in.eng, in.topo)
	if p.shards > 1 {
		if err := in.net.SetShards(p.shards); err != nil {
			return nil, err
		}
	}
	in.stop = in.net.Start()

	rng := rand.New(rand.NewSource(p.seed * 7))
	in.flows = make([]flowRef, 0, flows)
	t0 := time.Now()
	in.net.Batch(func() {
		for i := 0; i < flows; i++ {
			sr, sc, dr, dc := nearLocalPair(rng, rows, cols)
			var mbps float64
			switch q := rng.Float64(); {
			case q < 0.80:
				mbps = 0.25 // telemetry
			case q < 0.95:
				mbps = 2 // audio/video
			default:
				mbps = 8 // bulk feeds
			}
			in.installs++
			id, err := in.net.AddStream(fmt.Sprintf("scale/%d", i),
				mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc), mbps)
			if err != nil {
				in.installErrs++
				continue
			}
			in.flows = append(in.flows, flowRef{id: id, demand: mbps})
		}
	})
	in.install = time.Since(t0)
	return in, nil
}

// deployGridApps deploys n synthetic apps with RunSched's pin pattern and
// ±20 % demand jitter (rng seeded seed·31, as both mirrored experiments do).
func (in *instance) deployGridApps(n, rows, cols int, seed int64, demand float64, prefix string,
	mk func(app string, demandMbps float64, pinSrc, pinDst string) *streamApp) error {
	rng := rand.New(rand.NewSource(seed * 31))
	for i := 0; i < n; i++ {
		sr, sc, dr, dc := nearLocalPair(rng, rows, cols)
		d := demand * (0.8 + 0.4*rng.Float64())
		name := fmt.Sprintf("%s-%04d", prefix, i)
		app := mk(name, d, mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc))
		in.synth = append(in.synth, app)
		if err := in.deployApp(name, app, nil); err != nil {
			return err
		}
	}
	return nil
}

// buildCityStorm is RunSched's city/100×/storm population on the hot-path
// control loop, with the journal, metric store and SLO engine attached — the
// configuration `bass-sim -slo -events-out` ships.
func buildCityStorm(p buildParams) (*instance, error) {
	nodes, apps, epochs := 196, 1400, 3
	if p.quick {
		nodes, apps, epochs = 36, 40, 2
	}
	in := &instance{horizon: time.Duration(epochs) * epoch}
	rows, cols := gridDims(nodes)
	if err := in.timedGrid(rows, cols, p.seed, 0); err != nil {
		return nil, err
	}
	// CPU as RunSched: the population fits with 3× headroom, floor 2.
	cpu := float64(3*apps) * 0.1 / float64(rows*cols) * 3
	if cpu < 2 {
		cpu = 2
	}
	err := in.newSimulation(gridNodes(rows, cols, cpu), p.seed, core.Config{
		EnableMigration: true,
		MonitorInterval: epoch,
		EnableSLO:       true,
		EvalWorkers:     p.evalWorkers,
	}, true)
	if err != nil {
		return nil, err
	}
	// Storm demand: each chain asks for half a mean link, so any two sharing
	// one saturate it and every epoch scores migration targets.
	return in, in.deployGridApps(apps, rows, cols, p.seed, 12, "chain", newChainApp)
}

// buildCityBatch is RunBatchAblation's city/10× population: tight CPU, so the
// joint search has real relay choices to make; migration off isolates initial
// placement.
func buildCityBatch(p buildParams) (*instance, error) {
	nodes, apps := 196, 140
	in := &instance{horizon: 2 * epoch}
	if p.quick {
		nodes, apps = 36, 12
	}
	rows, cols := gridDims(nodes)
	if err := in.timedGrid(rows, cols, p.seed, 0); err != nil {
		return nil, err
	}
	// 0.75 CPU per app with only 50 % aggregate headroom, floor 1.
	cpu := float64(apps) * 0.75 / float64(rows*cols) * 1.5
	if cpu < 1 {
		cpu = 1
	}
	err := in.newSimulation(gridNodes(rows, cols, cpu), p.seed, core.Config{
		EnableMigration: false,
		MonitorInterval: epoch,
		BatchPlacement:  !p.greedy, // default budget (core.DefaultBatchMoveBudget)
	}, false)
	if err != nil {
		return nil, err
	}
	return in, in.deployGridApps(apps, rows, cols, p.seed, 12, "pipe", newPipeApp)
}

// buildTownChaos runs 80 light chain apps on a town grid through a seeded
// fault storm: many cheap epochs instead of a few heavy ones. The storm covers
// the first 90 % of the horizon and is clamped so every element has recovered
// when it ends; the quiet tail is where the reconciler must re-converge.
func buildTownChaos(p buildParams) (*instance, error) {
	nodes, apps, epochs := 64, 80, 600
	if p.quick {
		nodes, apps, epochs = 16, 10, 40
	}
	in := &instance{horizon: time.Duration(epochs) * epoch}
	rows, cols := gridDims(nodes)
	if err := in.timedGrid(rows, cols, p.seed, 0); err != nil {
		return nil, err
	}
	err := in.newSimulation(gridNodes(rows, cols, 2), p.seed, core.Config{
		EnableMigration:   true,
		EnableReconcile:   true,
		EnableSLO:         true,
		MonitorInterval:   epoch,
		MigrationDowntime: 5 * time.Second,
		EvalWorkers:       p.evalWorkers,
	}, true)
	if err != nil {
		return nil, err
	}
	if err := in.deployGridApps(apps, rows, cols, p.seed, 4, "chain", newChainApp); err != nil {
		return nil, err
	}
	storm := in.horizon / 10 * 9
	// Per element-hour. Node crashes are kept rare: each strands the pinned
	// ends of every app on the node and walks them down the shed ladder, and
	// at the 0.25 first tried the run wall swung ±25 % from seed to seed with
	// how unlucky a few crashes were. Link flaps, cheap and numerous, carry
	// the event count (~600 fault events a rep).
	nodeRate, linkRate := 0.05, 0.5
	if p.quick {
		nodeRate, linkRate = 6, 6 // an 18-minute smoke storm still has to see a crash
	}
	sched := faults.Generate(in.topo, faults.GeneratorConfig{
		Seed:                    p.seed + 1000,
		Horizon:                 storm,
		NodeCrashesPerHour:      nodeRate,
		MeanNodeDowntime:        2 * time.Minute,
		LinkFlapsPerHour:        linkRate,
		MeanLinkDowntime:        30 * time.Second,
		ProbeLossWindowsPerHour: linkRate / 8,
		MeanProbeLossWindow:     time.Minute,
	}).Clamp(storm)
	in.injector, err = in.sim.InjectFaults(sched)
	return in, err
}
