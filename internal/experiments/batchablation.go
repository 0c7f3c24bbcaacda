package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"bass/internal/apps/stream"
	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scenario"
	"bass/internal/trace"
)

// Batch placement ablation (ROADMAP: "Optimization-based placement baselines
// and batch scheduling"): the greedy per-component heuristics against the
// batch joint search, on town and city grid meshes across 1×/10×/100× app
// density. Migration is disabled so the comparison isolates initial
// placement: whatever goodput a mode reaches, it reached by choosing nodes,
// not by repairing choices later.

// pipe is the placement-ablation workload: a pipeline in→f1→f2→f3→out with
// two skip edges (in→f2, f2→out at 40% of the main demand), so no single
// chain ordering satisfies every edge and placement quality decides goodput.
// The pinned endpoints are ingress/egress taps that use no CPU, so a pin
// always fits and all capacity pressure lives on the movable middles.
func pipe(name string, demandMbps float64, pinSrc, pinDst string) scenario.App {
	in, f1, f2, f3, out := "in-"+name, "f1-"+name, "f2-"+name, "f3-"+name, "out-"+name
	skip := 0.4 * demandMbps
	return scenario.App{Stream: &stream.Config{
		Name: name,
		Components: []stream.Component{
			{Name: in, Pin: pinSrc}, {Name: f1, CPU: 0.25}, {Name: f2, CPU: 0.25}, {Name: f3, CPU: 0.25}, {Name: out, Pin: pinDst},
		},
		Edges: []stream.Edge{
			{From: in, To: f1, Mbps: demandMbps}, {From: f1, To: f2, Mbps: demandMbps},
			{From: f2, To: f3, Mbps: demandMbps}, {From: f3, To: out, Mbps: demandMbps},
			{From: in, To: f2, Mbps: skip}, {From: f2, To: out, Mbps: skip},
		},
	}}
}

// batchAblationOptions sizes one placement-ablation run.
type batchAblationOptions struct {
	Nodes   int // grid node target (rounded up to Rows×Cols)
	Apps    int // pipeline applications deployed
	Density int // informational: the app-density multiplier this config represents
	// Batch turns the joint search on, with core's default budget
	// (core.DefaultBatchMoveBudget), K and search seed.
	Batch bool
	Seed  int64
}

func (o batchAblationOptions) withDefaults() batchAblationOptions {
	if o.Nodes == 0 {
		o.Nodes = 64
	}
	if o.Apps == 0 {
		o.Apps = 8
	}
	if o.Density == 0 {
		o.Density = 1
	}
	return o
}

// batchAblationResult reports one mode's run. Goodput is the headline: the
// fraction of the population's total required edge bandwidth the data plane
// actually delivers at the end of the horizon.
type batchAblationResult struct {
	Nodes, Links, Apps, Density int
	Batch                       bool
	Budget                      int

	Goodput    float64 // Σ min(achieved, required) / Σ required over all edges
	CrossEdges int     // DAG edges whose endpoints landed on different nodes
	SolveMS    float64 // Σ DAG scheduling wall-clock, ms (not deterministic)
}

// runBatchAblation deploys the pipeline population over a grid mesh with the
// chosen placement mode and measures delivered goodput after the horizon.
func runBatchAblation(opts batchAblationOptions) (batchAblationResult, error) {
	opts = opts.withDefaults()
	spec, err := batchAblationSpec(opts)
	if err != nil {
		return batchAblationResult{}, err
	}
	run, err := complete(spec)
	if err != nil {
		return batchAblationResult{}, fmt.Errorf("batchablation: %w", err)
	}

	var achieved, required float64
	cross := 0
	for _, app := range run.Streams {
		a, r, c := app.Measure()
		achieved += a
		required += r
		cross += c
	}
	var solveNS float64
	for _, ns := range run.Sim.Orch.DAGProcessingNS() {
		solveNS += ns
	}
	res := batchAblationResult{
		Nodes:      len(spec.Nodes),
		Links:      len(spec.Links),
		Apps:       opts.Apps,
		Density:    opts.Density,
		Batch:      opts.Batch,
		Budget:     core.DefaultBatchMoveBudget,
		CrossEdges: cross,
		SolveMS:    solveNS / 1e6,
	}
	if required > 0 {
		res.Goodput = achieved / required
	}
	return res, nil
}

// batchAblationSpec is one mode's run: the pipeline population on the
// squarest grid of at least opts.Nodes nodes, whose seeded step-trace links
// the spec adds, for one minute.
func batchAblationSpec(opts batchAblationOptions) (scenario.Spec, error) {
	rows, cols := gridDims(opts.Nodes)
	horizon := time.Minute
	topo, err := mesh.Grid(mesh.GridOptions{
		Rows:     rows,
		Cols:     cols,
		Seed:     opts.Seed,
		Duration: horizon + time.Minute,
	})
	if err != nil {
		return scenario.Spec{}, err
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

	// Pipelines demand 4.8×12 ≈ 58 Mbps across six edges on jittered ~25 Mbps
	// links, so any edge left crossing the mesh is a real cost: quiet at 1×
	// density, contended at 10×, oversubscribed at 100×. Pins model a
	// community mesh: 90% near-local pairs (within two grid steps), the rest
	// city-crossing.
	const demand = 12.0
	rng := rand.New(rand.NewSource(opts.Seed * 31))
	apps := make([]scenario.App, 0, opts.Apps)
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
		apps = append(apps, pipe(fmt.Sprintf("pipe-%04d", i), d, mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc)))
	}

	// The spec adds the grid's links with their seeded traces, in Grid's
	// order, which is their sorted order; a custom link's 3 ms is Grid's.
	var links []scenario.Link
	for _, l := range topo.Links() {
		links = append(links, scenario.Link{A: l.ID.A, B: l.ID.B, Phases: phases(l.CapacityFwd())})
	}
	return scenario.Spec{
		Topology: "custom",
		Nodes:    nodes,
		Links:    links,
		// Migration off: the ablation isolates initial placement quality.
		MonitorIntervalSec: 30,
		Batch:              opts.Batch,
		Apps:               apps,
		HorizonSec:         secs(horizon),
		Seed:               opts.Seed,
	}, nil
}

// phases is a 1 s-step trace as links phases: one per run of equal
// samples.
func phases(tr *trace.Trace) []scenario.Phase {
	var out []scenario.Phase
	for _, v := range tr.Samples() {
		if n := len(out); n > 0 && out[n-1].Mbps == v {
			out[n-1].DurationSec++
		} else {
			out = append(out, scenario.Phase{DurationSec: 1, Mbps: v})
		}
	}
	return out
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
func batchSweep(seed int64, quick bool) []batchAblationOptions {
	type meshSize struct{ nodes, baseApps int }
	meshes := []meshSize{{64, 8}, {196, 14}}
	densities := []int{1, 10, 100}
	if quick {
		meshes = meshes[:1]
		densities = densities[:2]
	}
	var sweep []batchAblationOptions
	for _, m := range meshes {
		for _, d := range densities {
			sweep = append(sweep, batchAblationOptions{
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
func batchPairEntry(greedy, batch batchAblationResult) batchEntry {
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
func runBatchPair(opts batchAblationOptions) (batchEntry, error) {
	greedyOpts := opts
	greedyOpts.Batch = false
	greedy, err := runBatchAblation(greedyOpts)
	if err != nil {
		return batchEntry{}, err
	}
	batchOpts := opts
	batchOpts.Batch = true
	batch, err := runBatchAblation(batchOpts)
	if err != nil {
		return batchEntry{}, err
	}
	return batchPairEntry(greedy, batch), nil
}
