package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
)

// SchedOptions sizes a control-plane benchmark run: a grid mesh carrying
// Apps three-component chain applications under the full orchestration stack,
// measuring how fast the controller's decision loop turns over. The workload
// is a pure function of the options, so equal options yield identical
// decisions at every worker count — the differential tests pin the stronger
// byte-identity claim on journals.
type SchedOptions struct {
	Nodes   int  // grid node target (rounded up to Rows×Cols)
	Apps    int  // chain applications deployed
	Workers int  // eval pool size, as core.Config.EvalWorkers (0 = serial)
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
	if o.Cycles == 0 {
		o.Cycles = 4
	}
	return o
}

// SchedResult reports one control-plane run. DecisionsPerSec is the headline
// number: per-application controller evaluations per host second of control
// work, counting only wall-clock spent inside control cycles (the data-plane
// simulation between epochs is excluded).
type SchedResult struct {
	Nodes, Links, Apps int
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

// RunSched deploys the chain population over a grid mesh and runs Cycles
// controller epochs, measuring decision throughput from the orchestrator's
// control-plane counters.
func RunSched(opts SchedOptions) (SchedResult, error) {
	opts = opts.withDefaults()
	rows, cols := gridDims(opts.Nodes)
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
		EvalWorkers:     opts.Workers,
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

// Table renders one control-plane run.
func (r SchedResult) Table() Table {
	load := "quiet"
	if r.Storm {
		load = "storm"
	}
	return Table{
		Title: fmt.Sprintf("Control plane: %d nodes, %d chain apps, %s, workers=%d",
			r.Nodes, r.Apps, load, r.Workers),
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
		// Score on a pool of NumCPU workers, clamped to [2, 8].
		workers := min(max(runtime.NumCPU(), 2), 8)
		opts := SchedOptions{Nodes: 64, Apps: 80, Storm: true, Workers: workers, Seed: p.Seed}
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
