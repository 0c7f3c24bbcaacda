package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/simnet"
	"bass/internal/trace"
)

// pairWorkload is a minimal two-component workload: src streams to dst at
// the edge's bandwidth requirement. It re-attaches its stream after
// migrations, like the paper's Fig 8 component pair.
type pairWorkload struct {
	graph  *dag.Graph
	demand float64

	env      *Env
	stream   simnet.FlowID
	attached bool
}

func newPairWorkload(app string, demand float64, pinSrc string, cpu float64) *pairWorkload {
	g := dag.NewGraph(app)
	src := dag.Component{Name: "src", CPU: cpu}
	if pinSrc != "" {
		src.Labels = dag.Pin(pinSrc)
	}
	g.MustAddComponent(src)
	g.MustAddComponent(dag.Component{Name: "dst", CPU: cpu})
	g.MustAddEdge("src", "dst", demand)
	return &pairWorkload{graph: g, demand: demand}
}

func (w *pairWorkload) Graph() *dag.Graph { return w.graph }

func (w *pairWorkload) Start(env *Env) error {
	w.env = env
	return w.attach()
}

func (w *pairWorkload) attach() error {
	if w.attached {
		if err := w.env.Net().RemoveStream(w.stream); err != nil {
			return err
		}
		w.attached = false
	}
	id, err := w.env.Net().AddStream(w.env.Tag("src", "dst"), w.env.NodeOf("src"), w.env.NodeOf("dst"), w.demand)
	if err != nil {
		return err
	}
	w.stream, w.attached = id, true
	return nil
}

func (w *pairWorkload) OnMigration(env *Env, component, fromNode, toNode string, downtime time.Duration) {
	if w.attached {
		_ = env.Net().RemoveStream(w.stream)
		w.attached = false
	}
	env.Engine().After(downtime, func() { _ = w.attach() })
}

var _ Workload = (*pairWorkload)(nil)

// fig8Topology builds the three-worker subset of Fig 8's scenario: the pair
// starts on node3/node4 (25 Mbps link); the link later degrades to 7 Mbps.
func fig8Topology(dropAt time.Duration) *mesh.Topology {
	topo := mesh.NewTopology()
	for _, n := range []string{"node1", "node3", "node4"} {
		topo.AddNode(n)
	}
	hour := time.Hour
	n3n4 := trace.StepTrace("node3-node4", time.Second, hour, []trace.Level{
		{From: 0, Mbps: 25},
		{From: dropAt, Mbps: 7},
	})
	topo.MustAddLink("node3", "node4", n3n4, 3*time.Millisecond)
	topo.MustAddLink("node1", "node3", trace.Constant("node1-node3", time.Second, 20, 3600), 3*time.Millisecond)
	topo.MustAddLink("node1", "node4", trace.Constant("node1-node4", time.Second, 20, 3600), 3*time.Millisecond)
	return topo
}

func fig8Nodes() []cluster.Node {
	return []cluster.Node{
		// node3 can host only the pinned src (CPU 3 < 2+2).
		{Name: "node3", CPU: 3, MemoryMB: 4096},
		// node4 outranks node1 on link capacity (45 vs 40 Mbps combined), so
		// dst initially lands there.
		{Name: "node4", CPU: 8, MemoryMB: 8192},
		{Name: "node1", CPU: 8, MemoryMB: 8192},
	}
}

func TestDeployPlacesPairAcrossLink(t *testing.T) {
	topo := fig8Topology(time.Hour)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{
		Policy: scheduler.NewBass(scheduler.HeuristicBFS),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "node3", 2)
	assignment, err := sim.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if assignment["src"] != "node3" {
		t.Errorf("src on %q, want pinned node3", assignment["src"])
	}
	if assignment["dst"] != "node4" {
		t.Errorf("dst on %q, want node4 (highest-ranked with space)", assignment["dst"])
	}
}

func TestDeployDuplicateApp(t *testing.T) {
	topo := fig8Topology(time.Hour)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "", 1)
	if _, err := sim.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	w2 := newPairWorkload("pair", 8, "", 1)
	if _, err := sim.Orch.DeployAt("pair", w2, nil); !errors.Is(err, errAppExists) {
		t.Errorf("want ErrAppExists, got %v", err)
	}
}

func TestDeployNameMismatch(t *testing.T) {
	topo := fig8Topology(time.Hour)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "", 1)
	if _, err := sim.Orch.DeployAt("other-name", w, nil); err == nil {
		t.Error("want error on app-name mismatch")
	}
}

// TestFig8MigrationTimeline reproduces the paper's Fig 8: the node3-node4
// link degrades at t=540 s; the controller notices the headroom drop,
// refreshes the capacity estimate with a full probe, and migrates the pair's
// movable component from node4 to node1, restoring goodput.
func TestFig8MigrationTimeline(t *testing.T) {
	const dropAt = 540 * time.Second
	topo := fig8Topology(dropAt)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()

	w := newPairWorkload("pair", 8, "node3", 2)
	if _, err := sim.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}

	// Before the drop: no migrations, goodput at demand.
	if err := sim.Run(dropAt - time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(sim.Orch.Migrations()); n != 0 {
		t.Fatalf("migrated %d times before any degradation", n)
	}
	rate, err := sim.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8 {
		t.Errorf("pre-drop rate = %v, want 8", rate)
	}

	// Run past the drop + probing interval + cooldown.
	if err := sim.Run(dropAt + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	migs := sim.Orch.Migrations()
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v, want exactly one", migs)
	}
	m := migs[0]
	if m.Component != "dst" || m.From != "node4" || m.To != "node1" {
		t.Errorf("migration = %+v, want dst node4→node1", m)
	}
	if m.At < dropAt {
		t.Errorf("migration at %v precedes the capacity drop", m.At)
	}

	// After reconnect: goodput restored over node1-node3.
	if err := sim.Run(dropAt + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	rate, err = sim.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8 {
		t.Errorf("post-migration rate = %v, want restored 8", rate)
	}
	if got := sim.Cluster.NodeOf("pair", "dst"); got != "node1" {
		t.Errorf("dst on %q after migration", got)
	}
}

// TestReMigrationGuardIsPerApp deploys two pair apps, each on its own copy
// of Fig 8's triangle (the copies joined by a thin link between their spare
// nodes), so both apps name their components src and dst. A's link degrades
// first and A's dst migrates; B's link degrades inside A's re-migration
// guard. The guard belongs to A's dst alone: B's dst must migrate after its
// own cooldown, not wait out A's guard.
func TestReMigrationGuardIsPerApp(t *testing.T) {
	const dropA, dropB = 300 * time.Second, 360 * time.Second
	topo := mesh.NewTopology()
	var nodes []cluster.Node
	// Packing continues from a pinned src to the next-ranked node, so a3
	// (less memory) ranks last: A's dst wraps to the top-ranked a4, and B's
	// dst to b4 once A's dst has taken CPU off a4.
	for _, side := range []struct {
		p      string
		dropAt time.Duration
		srcMem float64
	}{{"a", dropA, 4000}, {"b", dropB, 4096}} {
		src, dst, spare := side.p+"3", side.p+"4", side.p+"1"
		for _, n := range []string{src, dst, spare} {
			topo.AddNode(n)
		}
		topo.MustAddLink(src, dst, trace.StepTrace(src+"-"+dst, time.Second, time.Hour, []trace.Level{
			{From: 0, Mbps: 25},
			{From: side.dropAt, Mbps: 7},
		}), 3*time.Millisecond)
		topo.MustAddLink(spare, src, trace.Constant(spare+"-"+src, time.Second, 20, 3600), 3*time.Millisecond)
		topo.MustAddLink(spare, dst, trace.Constant(spare+"-"+dst, time.Second, 20, 3600), 3*time.Millisecond)
		nodes = append(nodes,
			cluster.Node{Name: src, CPU: 2, MemoryMB: side.srcMem},
			cluster.Node{Name: dst, CPU: 8, MemoryMB: 8192},
			cluster.Node{Name: spare, CPU: 8, MemoryMB: 8192})
	}
	topo.MustAddLink("a1", "b1", trace.Constant("a1-b1", time.Second, 1, 3600), 3*time.Millisecond)

	sim, err := NewSimulation(topo, nodes, 1, Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for _, app := range []string{"a", "b"} {
		assignment, err := sim.Orch.DeployAt(app, newPairWorkload(app, 8, app+"3", 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := app + "4"; assignment["dst"] != want {
			t.Fatalf("app %s: dst on %q, want %q", app, assignment["dst"], want)
		}
	}

	if err := sim.Run(dropB + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	migs := sim.Orch.Migrations()
	if len(migs) != 2 || migs[0].App != "a" || migs[1].App != "b" {
		t.Fatalf("migrations = %+v, want A's dst then B's", migs)
	}
	a, b := migs[0], migs[1]
	if a.Component != "dst" || a.To != "a1" || b.Component != "dst" || b.To != "b1" {
		t.Fatalf("migrations = %+v, want dst a4→a1 and dst b4→b1", migs)
	}
	guard := sim.Orch.Controller().Config().ReMigrationInterval
	if b.At < dropB || b.At >= a.At+guard {
		t.Errorf("B's dst migrated at %v; want after its drop at %v and before A's guard ends at %v", b.At, dropB, a.At+guard)
	}
}

func TestMigrationDisabledStaysPut(t *testing.T) {
	const dropAt = 60 * time.Second
	topo := fig8Topology(dropAt)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{
		Policy:          scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "node3", 2)
	if _, err := sim.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := len(sim.Orch.Migrations()); n != 0 {
		t.Errorf("migrations = %d with controller disabled", n)
	}
	rate, err := sim.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 7.01 {
		t.Errorf("rate = %v on a 7 Mbps link without migration", rate)
	}
}

func TestForceMigrate(t *testing.T) {
	topo := fig8Topology(time.Hour)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{MigrationDowntime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "node3", 2)
	if _, err := sim.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Orch.ForceMigrate("pair", "dst", "node1"); err != nil {
		t.Fatal(err)
	}
	if got := sim.Cluster.NodeOf("pair", "dst"); got != "node1" {
		t.Errorf("dst on %q", got)
	}
	if err := sim.Orch.ForceMigrate("ghost", "dst", "node1"); !errors.Is(err, errUnknownApp) {
		t.Errorf("want ErrUnknownApp, got %v", err)
	}
}

func TestSchedulingLatencyRecorded(t *testing.T) {
	topo := fig8Topology(time.Hour)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	w := newPairWorkload("pair", 8, "", 1)
	if _, err := sim.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Orch.SchedulingLatenciesNS()); got != 2 {
		t.Errorf("per-component latencies = %d, want 2", got)
	}
	if got := len(sim.Orch.DAGProcessingNS()); got != 1 {
		t.Errorf("DAG processing samples = %d, want 1", got)
	}
}

func TestNewSimulationRejectsForeignNode(t *testing.T) {
	topo := fig8Topology(time.Hour)
	_, err := NewSimulation(topo, []cluster.Node{{Name: "mars", CPU: 1}}, 1, Config{})
	if err == nil {
		t.Error("want error for node outside topology")
	}
}

// TestNewSimulationRejectsLoopFeaturesWithoutMigration: reconciliation and
// the SLO evaluator act only inside the control loop, which EnableMigration
// starts, so either one alone would run inert (no detections, every SLO at
// no-data). NewSimulation names the field and the reason; with migration
// on, both are accepted.
func TestNewSimulationRejectsLoopFeaturesWithoutMigration(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{EnableReconcile: true}, "EnableReconcile needs EnableMigration; the failure detector"},
		{Config{EnableSLO: true}, "EnableSLO needs EnableMigration; the SLO evaluator ticks only"},
		{Config{EnableReconcile: true, EnableSLO: true}, "EnableReconcile needs EnableMigration"},
	} {
		_, err := NewSimulation(fig8Topology(time.Hour), fig8Nodes(), 1, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one containing %q", c.cfg, err, c.want)
		}
	}
	sim, err := NewSimulation(fig8Topology(time.Hour), fig8Nodes(), 1,
		Config{EnableMigration: true, EnableReconcile: true, EnableSLO: true})
	if err != nil {
		t.Fatalf("with migration: %v", err)
	}
	sim.Close()
}
