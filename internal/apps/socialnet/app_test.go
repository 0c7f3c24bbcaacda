package socialnet

import (
	"reflect"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/trace"
	"bass/internal/workload"
)

func lanNodes() []cluster.Node {
	return []cluster.Node{
		{Name: "node1", CPU: 16, MemoryMB: 65536},
		{Name: "node2", CPU: 16, MemoryMB: 65536},
		{Name: "node3", CPU: 16, MemoryMB: 65536},
		// The workload generator runs outside the cluster, as the paper's
		// wrk2 does.
		{Name: "node4", CPU: 8, MemoryMB: 8192, Unschedulable: true},
	}
}

func TestGraphShape(t *testing.T) {
	app, err := New(Config{ClientNode: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph()
	if got := g.NumComponents(); got != 28 { // 27 services + load generator
		t.Fatalf("components = %d, want 28 (27 microservices + load-gen)", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lg, err := g.Component(ClientComponent)
	if err != nil {
		t.Fatal(err)
	}
	if lg.PinnedTo() != "node1" {
		t.Errorf("load-gen pinned to %q", lg.PinnedTo())
	}
	// The client→frontend edge must be the heaviest (timeline responses).
	front := g.Weight(ClientComponent, SvcNginx)
	for _, e := range g.Edges() {
		if e.From == ClientComponent {
			continue
		}
		if e.BandwidthMbps > front {
			t.Errorf("edge %s->%s (%v) heavier than client->nginx (%v)",
				e.From, e.To, e.BandwidthMbps, front)
		}
	}
}

// TestGraphEdgeOrderDeterministic pins DAG construction order: Graph.Edges()
// follows AddEdge order, and the orchestrator's per-edge scratch and metric
// emission follow Edges(), so equal configs must yield equal edge sequences.
func TestGraphEdgeOrderDeterministic(t *testing.T) {
	first, err := New(Config{ClientNode: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	again, err := New(Config{ClientNode: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Graph().Edges(), again.Graph().Edges()) {
		t.Fatal("Graph().Edges() order differs between identical New calls")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error without ClientNode")
	}
}

func TestRequestMixFractionsSumToOne(t *testing.T) {
	var sum float64
	for _, rt := range requestTypes() {
		sum += rt.frac
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("request mix fractions sum to %v", sum)
	}
}

func TestServicesCount(t *testing.T) {
	if got := len(services()); got != 27 {
		t.Errorf("services = %d, want 27 (DeathStarBench social network)", got)
	}
	seen := map[string]bool{}
	for _, s := range services() {
		if seen[s.name] {
			t.Errorf("duplicate service %q", s.name)
		}
		seen[s.name] = true
		if s.cpu <= 0 || s.memMB <= 0 {
			t.Errorf("service %q has empty resources", s.name)
		}
	}
}

func TestHopsReferenceKnownServices(t *testing.T) {
	known := map[string]bool{ClientComponent: true}
	for _, s := range services() {
		known[s.name] = true
	}
	for _, rt := range requestTypes() {
		for _, h := range rt.hops {
			if !known[h.from] || !known[h.to] {
				t.Errorf("%s: hop %s->%s references unknown service", rt.name, h.from, h.to)
			}
		}
	}
}

// deploySocial builds a 3-node LAN simulation running the workload.
func deploySocial(t *testing.T, topo *mesh.Topology, cfg Config, simCfg core.Config) (*App, *core.Simulation) {
	t.Helper()
	sim, err := core.NewSimulation(topo, lanNodes(), 1, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Orch.Deploy(cfg.AppName, app); err != nil {
		t.Fatal(err)
	}
	return app, sim
}

func TestBaselineLatencySubSecond(t *testing.T) {
	topo := mesh.FullMesh([]string{"node1", "node2", "node3", "node4"}, 1000, time.Millisecond, time.Hour)
	cfg := Config{
		AppName:    "socialnet",
		ClientNode: "node4",
		Arrival:    workload.Constant{PerSecond: 50},
	}
	app, sim := deploySocial(t, topo, cfg, core.Config{
		Policy: scheduler.NewBass(scheduler.HeuristicLongestPath),
	})
	defer sim.Close()
	if err := sim.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if app.Requests() < 5000 {
		t.Fatalf("requests = %d", app.Requests())
	}
	mean := app.Latency().Histogram().Mean()
	if mean <= 0 || mean > 1.0 {
		t.Errorf("mean latency = %.3fs, want sub-second on an unloaded LAN", mean)
	}
}

// TestFig5ThrottleInflatesLatency reproduces Fig 5: throttling the link that
// carries frontend traffic to 25 Mbps for two minutes inflates average
// latency by an order of magnitude; lifting the throttle recovers it.
func TestFig5ThrottleInflatesLatency(t *testing.T) {
	topo := mesh.FullMesh([]string{"node1", "node2", "node3", "node4"}, 1000, time.Millisecond, time.Hour)
	cfg := Config{
		AppName:    "socialnet",
		ClientNode: "node4",
		Arrival:    workload.Exponential{MeanPerSecond: 400},
	}
	app, sim := deploySocial(t, topo, cfg, core.Config{
		Policy: scheduler.NewBass(scheduler.HeuristicLongestPath),
	})
	defer sim.Close()

	// Find where the frontend landed and throttle the client→frontend link
	// between t=60s and t=180s.
	nginxNode := sim.Cluster.NodeOf("socialnet", SvcNginx)
	if nginxNode == "" || nginxNode == "node4" {
		t.Fatalf("nginx on %q", nginxNode)
	}
	if err := topo.SetCapacity("node4", nginxNode, trace.StepTrace("throttle", time.Second, time.Hour, []trace.Level{
		{From: 0, Mbps: 1000},
		{From: 60 * time.Second, Mbps: 25},
		{From: 180 * time.Second, Mbps: 1000},
	})); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	series := app.Latency().Series()
	calm, ok := series.At(50 * time.Second)
	if !ok {
		t.Fatal("no latency samples before the throttle")
	}
	hot, ok := series.At(170 * time.Second)
	if !ok {
		t.Fatal("no latency samples during the throttle")
	}
	recovered, ok := series.At(280 * time.Second)
	if !ok {
		t.Fatal("no latency samples after recovery")
	}
	if hot < calm*10 {
		t.Errorf("throttled latency %.3fs not an order of magnitude above calm %.3fs", hot, calm)
	}
	if recovered > calm*3 {
		t.Errorf("latency %.3fs did not recover towards calm %.3fs", recovered, calm)
	}
}

// TestFig14aRestartSpike reproduces Fig 14(a): force-restarting a component
// mid-run raises mean latency from ≈0.5s to several seconds while requests
// stall behind the restart.
func TestFig14aRestartSpike(t *testing.T) {
	topo := mesh.FullMesh([]string{"node1", "node2", "node3", "node4"}, 1000, time.Millisecond, time.Hour)
	cfg := Config{
		AppName:    "socialnet",
		ClientNode: "node4",
		Arrival:    workload.Constant{PerSecond: 50},
	}
	app, sim := deploySocial(t, topo, cfg, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicLongestPath),
		MigrationDowntime: 4300 * time.Millisecond,
	})
	defer sim.Close()
	if err := sim.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	target := "node1"
	if sim.Cluster.NodeOf("socialnet", SvcPostStorage) == "node1" {
		target = "node2"
	}
	if err := sim.Orch.ForceMigrate("socialnet", SvcPostStorage, target); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Minute + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	series := app.Latency().Series()
	calm, _ := series.At(55 * time.Second)
	spike, _ := series.At(61 * time.Second)
	if spike < 1.0 || spike < calm*4 {
		t.Errorf("restart spike = %.3fs (calm %.3fs), want multi-second stall", spike, calm)
	}
}

func TestLatencyByType(t *testing.T) {
	app, err := New(Config{ClientNode: "node1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.LatencyByType("read-home-timeline"); err != nil {
		t.Errorf("known type: %v", err)
	}
	if _, err := app.LatencyByType("ghost"); err == nil {
		t.Error("unknown type: want error")
	}
}
