package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
)

// Batch placement ablation (ROADMAP: "Optimization-based placement baselines
// and batch scheduling"): the greedy per-component heuristics against the
// batch joint search, on town and city grid meshes across 1×/10×/100× app
// density. Migration is disabled so the comparison isolates initial
// placement: whatever goodput a mode reaches, it reached by choosing nodes,
// not by repairing choices later.

// BatchAblationOptions sizes one placement-ablation run.
type BatchAblationOptions struct {
	Nodes   int // grid node target (rounded up to Rows×Cols)
	Apps    int // pipeline applications deployed
	Density int // informational: the app-density multiplier this config represents
	// Batch turns the joint search on; Budget and K pass through to
	// scheduler.BatchConfig (zero Budget takes core.DefaultBatchMoveBudget).
	Batch  bool
	Budget int
	K      int
	Seed   int64
}

func (o BatchAblationOptions) withDefaults() BatchAblationOptions {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Apps == 0 {
		o.Apps = 8
	}
	if o.Density == 0 {
		o.Density = 1
	}
	if o.Budget == 0 {
		o.Budget = core.DefaultBatchMoveBudget
	}
	return o
}

// BatchAblationResult reports one mode's run. Goodput is the headline: the
// fraction of the population's total required edge bandwidth the data plane
// actually delivers at the end of the horizon.
type BatchAblationResult struct {
	Nodes, Links, Apps, Density int
	Batch                       bool
	Budget                      int

	Goodput    float64 // Σ min(achieved, required) / Σ required over all edges
	CrossEdges int     // DAG edges whose endpoints landed on different nodes
	SolveMS    float64 // Σ DAG scheduling wall-clock, ms (not deterministic)
}

// RunBatchAblation deploys the pipeline population over a grid mesh with the
// chosen placement mode and measures delivered goodput after the horizon.
func RunBatchAblation(opts BatchAblationOptions) (BatchAblationResult, error) {
	opts = opts.withDefaults()
	rows, cols := gridDims(opts.Nodes)
	horizon := time.Minute
	topo, err := mesh.Grid(mesh.GridOptions{
		Rows:     rows,
		Cols:     cols,
		Seed:     opts.Seed,
		Duration: horizon + time.Minute,
	})
	if err != nil {
		return BatchAblationResult{}, err
	}

	// CPU sized with only 50% aggregate headroom (0.75 CPU per app). The
	// tightness is deliberate: at contended densities no node can absorb
	// every app's middle stages, so the modes must actually choose relay
	// nodes — the regime where joint search can beat per-component greedy.
	// The floor of 1 keeps sparse configs schedulable under pin skew.
	n := rows * cols
	cpuPerNode := float64(opts.Apps) * 0.75 / float64(n) * 1.5
	if cpuPerNode < 1 {
		cpuPerNode = 1
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
		// Migration off: the ablation isolates initial placement quality.
		EnableMigration: false,
		MonitorInterval: 30 * time.Second,
	}
	if opts.Batch {
		cfg.BatchPlacement = true
		cfg.Batch = scheduler.BatchConfig{MoveBudget: opts.Budget, K: opts.K}
	}
	s, err := core.NewSimulation(topo, nodes, opts.Seed, cfg)
	if err != nil {
		return BatchAblationResult{}, err
	}
	defer s.Close()

	// Pipelines demand 4.8×12 ≈ 58 Mbps across six edges on jittered ~25 Mbps
	// links, so any edge left crossing the mesh is a real cost: quiet at 1×
	// density, contended at 10×, oversubscribed at 100×. Pins model a
	// community mesh: 90% near-local pairs (within two grid steps), the rest
	// city-crossing.
	const demand = 12.0
	rng := rand.New(rand.NewSource(opts.Seed * 31))
	apps := make([]*streamApp, 0, opts.Apps)
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
		name := fmt.Sprintf("pipe-%04d", i)
		app := newPipeApp(name, d, mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc))
		if _, err := s.Orch.Deploy(name, app); err != nil {
			return BatchAblationResult{}, fmt.Errorf("batchablation: deploy %s: %w", name, err)
		}
		apps = append(apps, app)
	}

	if err := s.Run(horizon); err != nil {
		return BatchAblationResult{}, err
	}

	var achieved, required float64
	cross := 0
	for _, app := range apps {
		a, r, c := app.measure()
		achieved += a
		required += r
		cross += c
	}
	var solveNS float64
	for _, ns := range s.Orch.DAGProcessingNS() {
		solveNS += ns
	}
	res := BatchAblationResult{
		Nodes:      n,
		Links:      len(topo.Links()),
		Apps:       opts.Apps,
		Density:    opts.Density,
		Batch:      opts.Batch,
		Budget:     opts.Budget,
		CrossEdges: cross,
		SolveMS:    solveNS / 1e6,
	}
	if required > 0 {
		res.Goodput = achieved / required
	}
	return res, nil
}

// gridDims is the squarest rows×cols cover of a node target.
func gridDims(nodes int) (rows, cols int) {
	rows = 1
	for rows*rows < nodes {
		rows++
	}
	cols = (nodes + rows - 1) / rows
	return rows, cols
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// batchSweep is the batchablation job's sweep: town/city mesh × 1×/10×/100×
// app density. Each returned config is run twice — greedy and batch — and
// paired into one batchEntry. quick is the reduced subset: town mesh only,
// 1×/10×.
func batchSweep(seed int64, quick bool) []BatchAblationOptions {
	type meshSize struct{ nodes, baseApps int }
	meshes := []meshSize{{64, 8}, {196, 14}}
	densities := []int{1, 10, 100}
	if quick {
		meshes = meshes[:1]
		densities = densities[:2]
	}
	var sweep []BatchAblationOptions
	for _, m := range meshes {
		for _, d := range densities {
			sweep = append(sweep, BatchAblationOptions{
				Nodes: m.nodes, Apps: m.baseApps * d, Density: d, Seed: seed,
			})
		}
	}
	return sweep
}

// batchEntry pairs the two modes' measurements for one configuration. The
// SolveMS fields are wall-clock and therefore NOT deterministic.
type batchEntry struct {
	Nodes         int
	Apps          int
	Density       int
	Budget        int
	GreedyGoodput float64
	BatchGoodput  float64
	GainFrac      float64 // (batch − greedy) / greedy
	GreedyCross   int
	BatchCross    int
	GreedySolveMS float64
	BatchSolveMS  float64
}

// batchPairEntry folds a greedy run and a batch run of the same
// configuration into one table row.
func batchPairEntry(greedy, batch BatchAblationResult) batchEntry {
	e := batchEntry{
		Nodes:         greedy.Nodes,
		Apps:          greedy.Apps,
		Density:       greedy.Density,
		Budget:        batch.Budget,
		GreedyGoodput: greedy.Goodput,
		BatchGoodput:  batch.Goodput,
		GreedyCross:   greedy.CrossEdges,
		BatchCross:    batch.CrossEdges,
		GreedySolveMS: greedy.SolveMS,
		BatchSolveMS:  batch.SolveMS,
	}
	if greedy.Goodput > 0 {
		e.GainFrac = (batch.Goodput - greedy.Goodput) / greedy.Goodput
	}
	return e
}

// batchAblationTable renders paired entries as the ablation table.
func batchAblationTable(entries []batchEntry) Table {
	t := Table{
		Title: "Batch placement ablation: greedy vs budgeted joint search",
		Header: []string{"nodes", "apps", "density", "budget",
			"greedy goodput", "batch goodput", "gain", "greedy ms", "batch ms"},
	}
	for _, e := range entries {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", e.Nodes),
			fmt.Sprintf("%d", e.Apps),
			fmt.Sprintf("%d×", e.Density),
			fmt.Sprintf("%d", e.Budget),
			f(e.GreedyGoodput),
			f(e.BatchGoodput),
			fmt.Sprintf("%+.1f%%", 100*e.GainFrac),
			f(e.GreedySolveMS),
			f(e.BatchSolveMS),
		})
	}
	return t
}

// runBatchPair runs one configuration in both modes and pairs the results.
func runBatchPair(opts BatchAblationOptions) (batchEntry, error) {
	greedyOpts := opts
	greedyOpts.Batch = false
	greedy, err := RunBatchAblation(greedyOpts)
	if err != nil {
		return batchEntry{}, err
	}
	batchOpts := opts
	batchOpts.Batch = true
	batch, err := RunBatchAblation(batchOpts)
	if err != nil {
		return batchEntry{}, err
	}
	return batchPairEntry(greedy, batch), nil
}

func init() {
	register("batchablation", func(p Params) ([]Table, error) {
		sweep := batchSweep(p.Seed, p.Quick)
		entries := make([]batchEntry, 0, len(sweep))
		for _, opts := range sweep {
			e, err := runBatchPair(opts)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
		}
		return []Table{batchAblationTable(entries)}, nil
	})
}
