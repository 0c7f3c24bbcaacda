package camera

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
)

func lanNodes() []cluster.Node {
	return []cluster.Node{
		{Name: "node1", CPU: 16, MemoryMB: 131072},
		{Name: "node2", CPU: 16, MemoryMB: 131072},
		{Name: "node3", CPU: 16, MemoryMB: 131072},
	}
}

func TestGraphShape(t *testing.T) {
	app, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph()
	if g.NumComponents() != 5 {
		t.Fatalf("components = %d, want the 5 pipeline stages", g.NumComponents())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The camera→sampler edge carries the full frame stream: it must be the
	// heaviest edge (the property the BFS heuristic exploits, §6.2.2).
	camSamp := g.Weight(compCamera, compSampler)
	for _, e := range g.Edges() {
		if e.From == compCamera && e.To == compSampler {
			continue
		}
		if e.BandwidthMbps >= camSamp {
			t.Errorf("edge %s->%s (%v) not lighter than camera->sampler (%v)",
				e.From, e.To, e.BandwidthMbps, camSamp)
		}
	}
}

func TestEdgeBandwidthsScaleWithFrameKB(t *testing.T) {
	low := Config{}.EdgeBandwidths()
	high := Config{FrameKB: 30}.EdgeBandwidths()
	if high[0].Mbps <= low[0].Mbps {
		t.Errorf("30 KB weight %v not above 25 KB weight %v", high[0].Mbps, low[0].Mbps)
	}
	// The edges in pipeline order, with the weights' exact bits: the rates
	// are products of fixed parameters, so a rewrite the compiler could fold
	// to a constant must not move a bit.
	type want struct {
		from, to string
		bits     uint64
	}
	wants := map[float64][]want{
		25: {
			{compCamera, compSampler, 0x4018000000000000},       // 6
			{compSampler, compDetector, 0x3fe3333333333333},     // 0.6
			{compDetector, compImgListener, 0x3ff70a3d70a3d70a}, // 1.44
			{compDetector, compLblListener, 0x3f7d7dbf487fcb92}, // 0.0072
		},
		30: {
			{compCamera, compSampler, 0x401ccccccccccccd},       // 7.2
			{compSampler, compDetector, 0x3fe70a3d70a3d70a},     // 0.72
			{compDetector, compImgListener, 0x3ff70a3d70a3d70a}, // 1.44
			{compDetector, compLblListener, 0x3f7d7dbf487fcb92}, // 0.0072
		},
	}
	for frameKB, got := range map[float64][]Edge{25: low, 30: high} {
		if len(got) != len(wants[frameKB]) {
			t.Fatalf("FrameKB %v: %d edges, want %d", frameKB, len(got), len(wants[frameKB]))
		}
		for i, w := range wants[frameKB] {
			e := got[i]
			if e.From != w.from || e.To != w.to {
				t.Errorf("FrameKB %v, edge %d: %s->%s, want %s->%s", frameKB, i, e.From, e.To, w.from, w.to)
			}
			if b := math.Float64bits(e.Mbps); b != w.bits {
				t.Errorf("FrameKB %v, %s->%s: bits %#016x (%v), want %#016x",
					frameKB, e.From, e.To, b, e.Mbps, w.bits)
			}
		}
	}
}

// TestGraphEdgeOrderIsFixed: the graph's edges come out in one order on
// every build, so nothing downstream can see map iteration order.
func TestGraphEdgeOrderIsFixed(t *testing.T) {
	var want []string
	for _, e := range (Config{}).EdgeBandwidths() {
		want = append(want, fmt.Sprintf("%s->%s %v", e.From, e.To, e.Mbps))
	}
	for i := 0; i < 200; i++ {
		app, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range app.Graph().Edges() {
			got = append(got, fmt.Sprintf("%s->%s %v", e.From, e.To, e.BandwidthMbps))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d: edges %v, want %v", i, got, want)
		}
	}
}

func TestPinCamera(t *testing.T) {
	app, err := New(Config{PinCamera: "node2"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := app.Graph().Component(compCamera)
	if err != nil {
		t.Fatal(err)
	}
	if c.PinnedTo() != "node2" {
		t.Errorf("camera pinned to %q", c.PinnedTo())
	}
}

// runPipeline deploys the camera pipeline under the given policy on a
// 1 Gbps LAN and returns the app after `horizon` of virtual time.
func runPipeline(t *testing.T, policy scheduler.Policy, horizon time.Duration) (*App, *core.Simulation) {
	t.Helper()
	topo := mesh.FullMesh([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, time.Hour)
	sim, err := core.NewSimulation(topo, lanNodes(), 1, core.Config{
		Policy:      policy,
		ReservedCPU: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Orch.DeployAt("camera", app, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return app, sim
}

func TestPipelineProducesAnnotatedFrames(t *testing.T) {
	app, sim := runPipeline(t, scheduler.NewBass(scheduler.HeuristicBFS), 2*time.Minute)
	defer sim.Close()
	published, sampled, annotated, dropped := app.Counters()
	if published < 3500 { // 30 fps × 120 s, minus ramp
		t.Errorf("published = %d", published)
	}
	if sampled < published/20 || sampled > published/5 {
		t.Errorf("sampled = %d of %d, want ≈10%%", sampled, published)
	}
	if annotated < sampled*8/10 {
		t.Errorf("annotated = %d of %d sampled", annotated, sampled)
	}
	if dropped > published/100 {
		t.Errorf("dropped = %d", dropped)
	}
	mean := app.Latency().Histogram().Mean()
	// Paper Fig 10(a): mean e2e latency in the 0.40-0.45 s band.
	if mean < 0.25 || mean > 0.7 {
		t.Errorf("mean e2e latency = %.3fs, want paper-scale ≈0.4s", mean)
	}
}

// TestFig10SchedulerOrdering reproduces Fig 10(a)'s shape: bandwidth-aware
// BASS placement yields lower mean latency than the spreading k3s baseline.
func TestFig10SchedulerOrdering(t *testing.T) {
	horizon := 3 * time.Minute
	bfsApp, bfsSim := runPipeline(t, scheduler.NewBass(scheduler.HeuristicBFS), horizon)
	defer bfsSim.Close()
	k3sApp, k3sSim := runPipeline(t, scheduler.NewK3s(), horizon)
	defer k3sSim.Close()

	bfs := bfsApp.Latency().Histogram().Mean()
	k3s := k3sApp.Latency().Histogram().Mean()
	if bfs >= k3s {
		t.Errorf("BFS mean %.4fs not below k3s mean %.4fs", bfs, k3s)
	}
}

// TestFig10Placements checks the qualitative placement difference of
// Fig 10(b): BFS co-locates the camera stream with the sampler, while k3s
// spreads them.
func TestFig10Placements(t *testing.T) {
	_, bfsSim := runPipeline(t, scheduler.NewBass(scheduler.HeuristicBFS), time.Second)
	defer bfsSim.Close()
	camNode := bfsSim.Cluster.NodeOf("camera", compCamera)
	sampNode := bfsSim.Cluster.NodeOf("camera", compSampler)
	if camNode != sampNode {
		t.Errorf("BFS split camera (%s) from sampler (%s)", camNode, sampNode)
	}

	_, k3sSim := runPipeline(t, scheduler.NewK3s(), time.Second)
	defer k3sSim.Close()
	nodes := map[string]bool{}
	for _, comp := range []string{compCamera, compSampler, compDetector, compImgListener, compLblListener} {
		nodes[k3sSim.Cluster.NodeOf("camera", comp)] = true
	}
	if len(nodes) < 3 {
		t.Errorf("k3s used %d nodes, expected spreading over 3", len(nodes))
	}
}

func TestMigrationDropsFramesDuringDowntime(t *testing.T) {
	app, sim := runPipeline(t, scheduler.NewBass(scheduler.HeuristicBFS), time.Minute)
	if err := sim.Orch.ForceMigrate("camera", compSampler, "node3"); err != nil {
		t.Fatal(err)
	}
	_, _, _, droppedBefore := app.Counters()
	if err := sim.Run(time.Minute + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, _, droppedDuring := app.Counters()
	if droppedDuring <= droppedBefore {
		t.Error("no frames dropped during sampler downtime")
	}
	sim.Close()
}
