package core

import (
	"fmt"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/simnet"
	"bass/internal/trace"
)

// Shared fixture for the control-plane benchmarks and differential tests.
// The BenchmarkControlPlane family measures one controller epoch — probe
// sweep, per-app evaluation through the path oracle, candidate selection —
// at town (64 nodes) and city (196 nodes) meshes across 1×/10×/100× app
// density, quiet and storm. Cycles are driven directly (no data-plane time
// passes between iterations), so the numbers isolate control-plane cost; the
// city-storm workload of `go run ./bench` measures end-to-end runs,
// migrations included. Excluded from -race runs: AllocsPerRun and timing are both
// meaningless under the race detector.

// benchChain is the benchmark workload: src→mid→dst with pinned endpoints so
// both edges cross the mesh (unique component names per app — the controller
// keys cooldown clocks by component name).
type benchChain struct {
	graph *dag.Graph
	comps [3]string

	demand  float64
	env     *Env
	streams [2]simnet.FlowID
	live    [2]bool
}

var _ Workload = (*benchChain)(nil)

func newBenchChain(app string, demand float64, pinSrc, pinDst string) *benchChain {
	g := dag.NewGraph(app)
	c := &benchChain{graph: g, demand: demand}
	c.comps = [3]string{"src-" + app, "mid-" + app, "dst-" + app}
	g.MustAddComponent(dag.Component{Name: c.comps[0], CPU: 0.1, Labels: dag.Pin(pinSrc)})
	g.MustAddComponent(dag.Component{Name: c.comps[1], CPU: 0.1})
	g.MustAddComponent(dag.Component{Name: c.comps[2], CPU: 0.1, Labels: dag.Pin(pinDst)})
	g.MustAddEdge(c.comps[0], c.comps[1], demand)
	g.MustAddEdge(c.comps[1], c.comps[2], demand)
	return c
}

func (c *benchChain) Graph() *dag.Graph { return c.graph }

func (c *benchChain) edge(i int) (string, string) {
	if i == 0 {
		return c.comps[0], c.comps[1]
	}
	return c.comps[1], c.comps[2]
}

func (c *benchChain) Start(env *Env) error {
	c.env = env
	for i := 0; i < 2; i++ {
		from, to := c.edge(i)
		id, err := env.Net().AddStream(env.Tag(from, to), env.NodeOf(from), env.NodeOf(to), c.demand)
		if err == nil {
			c.streams[i], c.live[i] = id, true
		}
	}
	return nil
}

func (c *benchChain) OnMigration(env *Env, component, fromNode, toNode string, downtime time.Duration) {
	for i := 0; i < 2; i++ {
		from, to := c.edge(i)
		if component != from && component != to {
			continue
		}
		if c.live[i] {
			_ = env.Net().RemoveStream(c.streams[i])
			c.live[i] = false
		}
	}
}

// staticGrid builds a rows×cols mesh with constant-capacity links: after the
// first probe sweep nothing changes, so direct-driven cycles settle into the
// steady state the quiet benchmarks measure.
func staticGrid(rows, cols int, mbps float64) *mesh.Topology {
	topo := mesh.NewTopology()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			topo.AddNode(mesh.GridNodeName(r, c))
		}
	}
	link := func(a, b string) {
		tr := trace.Constant(mesh.MakeLinkID(a, b).String(), time.Second, mbps, 24*3600)
		topo.MustAddLink(a, b, tr, 3*time.Millisecond)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				link(mesh.GridNodeName(r, c), mesh.GridNodeName(r, c+1))
			}
			if r+1 < rows {
				link(mesh.GridNodeName(r, c), mesh.GridNodeName(r+1, c))
			}
		}
	}
	return topo
}

// setupControlPlane deploys apps chain applications over a static grid and
// settles the first epochs, returning the simulation ready for direct
// controlCycle driving.
func setupControlPlane(tb testing.TB, rows, cols, apps int, storm bool, workers int) *Simulation {
	return setupControlPlaneObserved(tb, rows, cols, apps, storm, workers, false)
}

// setupControlPlaneObserved is setupControlPlane with an optional
// observability plane and SLO evaluator attached — the with-dashboards side
// of the quiet-epoch allocation contract. The journal is a bounded ring and
// the store's rings are sized small, so steady state overwrites instead of
// growing.
func setupControlPlaneObserved(tb testing.TB, rows, cols, apps int, storm bool, workers int, observed bool) *Simulation {
	tb.Helper()
	topo := staticGrid(rows, cols, 25)
	n := rows * cols
	cpu := float64(3*apps) * 0.1 / float64(n) * 1.5
	if cpu < 2 {
		cpu = 2
	}
	nodes := make([]cluster.Node, 0, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: cpu, MemoryMB: 16384})
		}
	}
	s, err := NewSimulation(topo, nodes, 42, Config{
		EnableMigration: true,
		MonitorInterval: 30 * time.Second,
		EvalWorkers:     workers,
		EnableSLO:       observed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if observed {
		s.AttachObservability(obs.NewJournal(4096), metricstore.NewWithConfig(metricstore.Config{
			MaxSamples: 256, Rollup10s: 64, Rollup5m: 16,
		}))
	}
	demand := 0.5
	if storm {
		demand = 12
	}
	// Deterministic endpoint spread: stride coprime to the cell count walks
	// every cell, so pins stay uniform at 100× density; dst sits a couple of
	// grid steps away so every chain crosses links and storms contend.
	stride := 5
	for n%stride == 0 {
		stride += 2
	}
	for i := 0; i < apps; i++ {
		cell := (i * stride) % n
		sr, sc := cell/cols, cell%cols
		dr, dc := (sr+2)%rows, (sc+1)%cols
		name := fmt.Sprintf("chain-%04d", i)
		w := newBenchChain(name, demand, mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc))
		if _, err := s.Orch.Deploy(name, w); err != nil {
			s.Close()
			tb.Fatal(err)
		}
	}
	// Two settle cycles: the first probe sweep seeds spare estimates (every
	// link reads as changed), the second reaches steady state.
	s.Orch.controlCycle()
	s.Orch.controlCycle()
	return s
}
