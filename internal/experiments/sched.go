package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/simnet"
)

// SchedOptions sizes a control-plane benchmark run: a grid mesh carrying
// Apps three-component chain applications under the full orchestration stack,
// measuring how fast the controller's decision loop turns over. The workload
// is a pure function of the options, so equal options yield identical
// decisions at every worker count — the differential tests pin the stronger
// byte-identity claim on journals.
type SchedOptions struct {
	Nodes int // grid node target (rounded up to Rows×Cols)
	Apps  int // chain applications deployed
	// Mode selects how the control cycle evaluates apps: "serial" (no pool)
	// or "parallel" (EvalWorkers pool). Both produce identical decisions.
	Mode    string
	Workers int  // eval pool size for parallel mode (default NumCPU, capped 8)
	Storm   bool // oversubscribed demands: violations every cycle
	Cycles  int  // controller epochs to run (default 4)
	Seed    int64
}

func (o SchedOptions) withDefaults() SchedOptions {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Apps == 0 {
		o.Apps = 8
	}
	if o.Mode == "" {
		o.Mode = "serial"
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 8 {
			o.Workers = 8
		}
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.Cycles == 0 {
		o.Cycles = 4
	}
	return o
}

func (o SchedOptions) dims() (rows, cols int) {
	rows = 1
	for rows*rows < o.Nodes {
		rows++
	}
	cols = (o.Nodes + rows - 1) / rows
	return rows, cols
}

// SchedResult reports one control-plane run. DecisionsPerSec is the headline
// number: per-application controller evaluations per host second of control
// work, counting only wall-clock spent inside control cycles (the data-plane
// simulation between epochs is excluded).
type SchedResult struct {
	Nodes, Links, Apps int
	Mode               string
	Workers            int
	Storm              bool
	Cycles             int

	AppEvals        int
	CtrlWallSec     float64
	DecisionsPerSec float64
	WallSec         float64 // whole run including the data plane
	Violating       int     // violated pairs summed over all evaluations
	Candidates      int     // migration candidates summed over all evaluations
	TargetScans     int     // O(nodes × deps) migration-target searches run
	Migrations      int
	PathQueryErrors uint64
}

// chainApp is the benchmark workload: a three-component chain with one
// stream per edge, re-attached after migrations. The endpoints are pinned to
// distinct nodes (the paper's Fig 8 pattern — sources and sinks sit where
// the users are) so the chain always crosses the mesh; only mid migrates.
// Demands are set by the caller — far below link capacity for quiet runs,
// oversubscribing for storms.
type chainApp struct {
	graph  *dag.Graph
	demand float64
	// comps are the chain's component names, src→mid→dst. They carry the app
	// name as a suffix: the controller keys violation windows and
	// re-migration guards by component name, so shared names would collapse
	// every app's cooldown clock into one.
	comps [3]string

	env     *core.Env
	streams [2]simnet.FlowID
	live    [2]bool
}

var _ core.Workload = (*chainApp)(nil)

func newChainApp(app string, demandMbps float64, pinSrc, pinDst string) *chainApp {
	g := dag.NewGraph(app)
	c := &chainApp{graph: g, demand: demandMbps}
	c.comps = [3]string{"src-" + app, "mid-" + app, "dst-" + app}
	g.MustAddComponent(dag.Component{Name: c.comps[0], CPU: 0.1, Labels: dag.Pin(pinSrc)})
	g.MustAddComponent(dag.Component{Name: c.comps[1], CPU: 0.1})
	g.MustAddComponent(dag.Component{Name: c.comps[2], CPU: 0.1, Labels: dag.Pin(pinDst)})
	g.MustAddEdge(c.comps[0], c.comps[1], demandMbps)
	g.MustAddEdge(c.comps[1], c.comps[2], demandMbps)
	return c
}

func (c *chainApp) Graph() *dag.Graph { return c.graph }

func (c *chainApp) edge(i int) (string, string) {
	if i == 0 {
		return c.comps[0], c.comps[1]
	}
	return c.comps[1], c.comps[2]
}

func (c *chainApp) attach(i int) {
	from, to := c.edge(i)
	id, err := c.env.Net().AddStream(c.env.Tag(from, to),
		c.env.NodeOf(from), c.env.NodeOf(to), c.demand)
	if err != nil {
		return // endpoint missing (e.g. parked by failover): retry on next move
	}
	c.streams[i], c.live[i] = id, true
}

func (c *chainApp) Start(env *core.Env) error {
	c.env = env
	c.attach(0)
	c.attach(1)
	return nil
}

func (c *chainApp) OnMigration(env *core.Env, component, fromNode, toNode string, downtime time.Duration) {
	for i := 0; i < 2; i++ {
		from, to := c.edge(i)
		if component != from && component != to {
			continue
		}
		if c.live[i] {
			_ = env.Net().RemoveStream(c.streams[i])
			c.live[i] = false
		}
		i := i
		env.Engine().After(downtime, func() {
			if !c.live[i] {
				c.attach(i)
			}
		})
	}
}

// RunSched deploys the chain population over a grid mesh and runs Cycles
// controller epochs, measuring decision throughput from the orchestrator's
// control-plane counters.
func RunSched(opts SchedOptions) (SchedResult, error) {
	opts = opts.withDefaults()
	rows, cols := opts.dims()
	interval := 30 * time.Second
	horizon := time.Duration(opts.Cycles)*interval + time.Second
	topo, err := mesh.Grid(mesh.GridOptions{
		Rows:     rows,
		Cols:     cols,
		Seed:     opts.Seed,
		Duration: horizon + time.Minute,
	})
	if err != nil {
		return SchedResult{}, err
	}

	// Node CPU sized so the population fits with 3× headroom; memory ample.
	// The slack is deliberate: near-local pins clamp at grid edges, so corner
	// nodes carry well above the mean pin load at 100× density.
	n := rows * cols
	cpuPerNode := float64(3*opts.Apps) * 0.1 / float64(n) * 3
	if cpuPerNode < 2 {
		cpuPerNode = 2
	}
	nodes := make([]cluster.Node, 0, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{
				Name: mesh.GridNodeName(r, c), CPU: cpuPerNode, MemoryMB: 16384,
			})
		}
	}

	cfg := core.Config{
		EnableMigration: true,
		MonitorInterval: interval,
	}
	switch opts.Mode {
	case "serial":
	case "parallel":
		cfg.EvalWorkers = opts.Workers
	default:
		return SchedResult{}, fmt.Errorf("sched: unknown mode %q", opts.Mode)
	}

	s, err := core.NewSimulation(topo, nodes, opts.Seed, cfg)
	if err != nil {
		return SchedResult{}, err
	}
	defer s.Close()

	// Quiet chains sip 2% of a mean link; storm chains each demand half of
	// one, so any two sharing a link saturate it and violations (and
	// candidate scoring over every node) happen every cycle.
	demand := 0.5
	if opts.Storm {
		demand = 12
	}
	// Endpoint pins mirror the scale workload's population: 90% near-local
	// pairs (within two grid steps), the rest city-crossing, so load
	// concentrates on neighborhood links and contention is real.
	rng := rand.New(rand.NewSource(opts.Seed * 31))
	for i := 0; i < opts.Apps; i++ {
		sr, sc := rng.Intn(rows), rng.Intn(cols)
		var dr, dc int
		if rng.Float64() < 0.9 {
			dr = clamp(sr+rng.Intn(5)-2, rows)
			dc = clamp(sc+rng.Intn(5)-2, cols)
		} else {
			dr, dc = rng.Intn(rows), rng.Intn(cols)
		}
		if dr == sr && dc == sc {
			dc = clamp(dc+1, cols)
			if dc == sc {
				dr = clamp(dr+1, rows)
			}
		}
		d := demand * (0.8 + 0.4*rng.Float64())
		name := fmt.Sprintf("chain-%04d", i)
		app := newChainApp(name, d, mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc))
		if _, err := s.Orch.Deploy(name, app); err != nil {
			return SchedResult{}, fmt.Errorf("sched: deploy %s: %w", name, err)
		}
	}

	start := time.Now()
	if err := s.Run(horizon); err != nil {
		return SchedResult{}, err
	}
	wall := time.Since(start).Seconds()

	cs := s.Orch.ControlStats()
	viol, cand := 0, 0
	for _, e := range s.Orch.Evaluations() {
		viol += e.Violating
		cand += e.Candidates
	}
	res := SchedResult{
		Violating:       viol,
		Candidates:      cand,
		TargetScans:     cs.TargetScans,
		Nodes:           n,
		Links:           len(topo.Links()),
		Apps:            opts.Apps,
		Mode:            opts.Mode,
		Workers:         cfg.EvalWorkers,
		Storm:           opts.Storm,
		Cycles:          cs.Cycles,
		AppEvals:        cs.AppEvaluations,
		CtrlWallSec:     float64(cs.WallNS) / 1e9,
		WallSec:         wall,
		Migrations:      len(s.Orch.Migrations()),
		PathQueryErrors: cs.PathQueryErrors,
	}
	if res.CtrlWallSec > 0 {
		res.DecisionsPerSec = float64(res.AppEvals) / res.CtrlWallSec
	}
	return res, nil
}

// SchedSweep is the canonical BENCH_sched.json sweep: town/city mesh ×
// 1×/10×/100× app density × quiet/storm, serial and parallel. quick is the
// CI smoke subset: town mesh only, 1×/10× density.
func SchedSweep(seed int64, quick bool) []SchedOptions {
	type meshSize struct{ nodes, baseApps int }
	meshes := []meshSize{{64, 8}, {196, 14}}
	densities := []int{1, 10, 100}
	if quick {
		meshes = meshes[:1]
		densities = densities[:2]
	}
	var sweep []SchedOptions
	for _, m := range meshes {
		for _, d := range densities {
			apps := m.baseApps * d
			for _, storm := range []bool{false, true} {
				cycles := 4
				if quick {
					cycles = 2
				}
				sweep = append(sweep,
					SchedOptions{Nodes: m.nodes, Apps: apps, Storm: storm, Mode: "serial", Cycles: cycles, Seed: seed},
					SchedOptions{Nodes: m.nodes, Apps: apps, Storm: storm, Mode: "parallel", Cycles: cycles, Seed: seed},
				)
			}
		}
	}
	return sweep
}

// SchedReportSchema identifies the BENCH_sched.json layout; bump on any
// incompatible field change so cmd/scalegate can reject stale baselines.
const SchedReportSchema = "bass/bench-sched/v1"

// SchedReport is the BENCH_sched.json document: the control-plane sweep
// (mesh size × app density × quiet/storm × serial/parallel). cmd/benchtab
// -sched-out writes it; cmd/scalegate -kind sched compares it against the
// checked-in baseline in ci/.
type SchedReport struct {
	Schema  string       `json:"schema"`
	Seed    int64        `json:"seed"`
	Entries []SchedEntry `json:"entries"`
}

// SchedEntry is one configuration's measurement inside a SchedReport.
// Entries are matched across runs by (Nodes, Apps, Storm, Mode).
type SchedEntry struct {
	Nodes           int     `json:"nodes"`
	Apps            int     `json:"apps"`
	Storm           bool    `json:"storm"`
	Mode            string  `json:"mode"`
	Workers         int     `json:"workers"`
	Cycles          int     `json:"cycles"`
	AppEvals        int     `json:"appEvals"`
	CtrlWallSec     float64 `json:"ctrlWallSec"`
	DecisionsPerSec float64 `json:"decisionsPerSec"`
	Violating       int     `json:"violating"`
	Candidates      int     `json:"candidates"`
	TargetScans     int     `json:"targetScans"`
	Migrations      int     `json:"migrations"`
	PathQueryErrors uint64  `json:"pathQueryErrors"`
}

// Entry projects the result into its BENCH_sched.json row.
func (r SchedResult) Entry() SchedEntry {
	return SchedEntry{
		Nodes:           r.Nodes,
		Apps:            r.Apps,
		Storm:           r.Storm,
		Mode:            r.Mode,
		Workers:         r.Workers,
		Cycles:          r.Cycles,
		AppEvals:        r.AppEvals,
		CtrlWallSec:     r.CtrlWallSec,
		DecisionsPerSec: r.DecisionsPerSec,
		Violating:       r.Violating,
		Candidates:      r.Candidates,
		TargetScans:     r.TargetScans,
		Migrations:      r.Migrations,
		PathQueryErrors: r.PathQueryErrors,
	}
}

// Table renders one control-plane run.
func (r SchedResult) Table() Table {
	load := "quiet"
	if r.Storm {
		load = "storm"
	}
	return Table{
		Title: fmt.Sprintf("Control plane: %d nodes, %d chain apps, %s, mode=%s",
			r.Nodes, r.Apps, load, r.Mode),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"links", fmt.Sprintf("%d", r.Links)},
			{"cycles", fmt.Sprintf("%d", r.Cycles)},
			{"app evaluations", fmt.Sprintf("%d", r.AppEvals)},
			{"control wall seconds", f(r.CtrlWallSec)},
			{"decisions/sec", f(r.DecisionsPerSec)},
			{"run wall seconds", f(r.WallSec)},
			{"violating pairs", fmt.Sprintf("%d", r.Violating)},
			{"candidates", fmt.Sprintf("%d", r.Candidates)},
			{"target scans", fmt.Sprintf("%d", r.TargetScans)},
			{"migrations", fmt.Sprintf("%d", r.Migrations)},
			{"path query errors", fmt.Sprintf("%d", r.PathQueryErrors)},
		},
	}
}

func init() {
	register("sched", func(p Params) ([]Table, error) {
		opts := SchedOptions{Nodes: 64, Apps: 80, Storm: true, Mode: "parallel", Seed: p.Seed}
		if p.Quick {
			opts.Nodes, opts.Apps, opts.Cycles = 16, 10, 2
		}
		r, err := RunSched(opts)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
}
