package scheduler

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"bass/internal/dag"
)

func testNodes() []NodeInfo {
	return []NodeInfo{
		{Name: "node1", FreeCPU: 4, FreeMemoryMB: 8192, TotalCPU: 4, TotalMemoryMB: 8192, LinkCapacityMbps: 40},
		{Name: "node2", FreeCPU: 4, FreeMemoryMB: 8192, TotalCPU: 4, TotalMemoryMB: 8192, LinkCapacityMbps: 30},
		{Name: "node3", FreeCPU: 4, FreeMemoryMB: 8192, TotalCPU: 4, TotalMemoryMB: 8192, LinkCapacityMbps: 20},
	}
}

func TestRankNodesPrefersCapacity(t *testing.T) {
	nodes := []NodeInfo{
		{Name: "small", FreeCPU: 2, FreeMemoryMB: 2048, LinkCapacityMbps: 10},
		{Name: "big", FreeCPU: 16, FreeMemoryMB: 65536, LinkCapacityMbps: 50},
		{Name: "mid", FreeCPU: 8, FreeMemoryMB: 8192, LinkCapacityMbps: 30},
	}
	ranked := scoreNodes(nodes)
	want := []string{"big", "mid", "small"}
	for i, r := range ranked {
		if r.Node.Name != want[i] {
			t.Fatalf("rank %d = %q, want %q", i, r.Node.Name, want[i])
		}
	}
}

func TestRankNodesDeterministicTieBreak(t *testing.T) {
	nodes := []NodeInfo{
		{Name: "b", FreeCPU: 4, FreeMemoryMB: 4096, LinkCapacityMbps: 20},
		{Name: "a", FreeCPU: 4, FreeMemoryMB: 4096, LinkCapacityMbps: 20},
	}
	ranked := scoreNodes(nodes)
	if ranked[0].Node.Name != "a" {
		t.Errorf("tie should break by name: got %q first", ranked[0].Node.Name)
	}
}

// TestFig6Placement checks the node coloring of Fig 6: with 4-core nodes and
// 1-core components, BFS packs {1,3,2,4} then {5,7,6}; longest-path packs
// the chain {1,2,4,5} then {7,3,6}.
func TestFig6Placement(t *testing.T) {
	g := fig6Graph(t)
	nodes := testNodes()

	bfs, err := NewBass(HeuristicBFS).Schedule(g, nodes, nil)
	if err != nil {
		t.Fatalf("bfs schedule: %v", err)
	}
	for _, comp := range []string{"1", "3", "2", "4"} {
		if bfs[comp] != "node1" {
			t.Errorf("bfs: component %s on %s, want node1", comp, bfs[comp])
		}
	}
	for _, comp := range []string{"5", "7", "6"} {
		if bfs[comp] != "node2" {
			t.Errorf("bfs: component %s on %s, want node2", comp, bfs[comp])
		}
	}

	lp, err := NewBass(HeuristicLongestPath).Schedule(g, nodes, nil)
	if err != nil {
		t.Fatalf("lp schedule: %v", err)
	}
	for _, comp := range []string{"1", "2", "4", "5"} {
		if lp[comp] != "node1" {
			t.Errorf("lp: component %s on %s, want node1", comp, lp[comp])
		}
	}
	if lp["7"] != "node2" {
		t.Errorf("lp: component 7 on %s, want node2", lp["7"])
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "a", CPU: 3})
	g.MustAddComponent(dag.Component{Name: "b", CPU: 3})
	g.MustAddEdge("a", "b", 10)
	nodes := []NodeInfo{
		{Name: "n1", FreeCPU: 4, FreeMemoryMB: 1024, TotalCPU: 4, TotalMemoryMB: 1024},
		{Name: "n2", FreeCPU: 4, FreeMemoryMB: 1024, TotalCPU: 4, TotalMemoryMB: 1024},
	}
	for _, policy := range []Policy{NewBass(HeuristicBFS), NewBass(HeuristicLongestPath), NewK3s()} {
		got, err := policy.Schedule(g, nodes, nil)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if got["a"] == got["b"] {
			t.Errorf("%s: a and b co-located on %s despite 4-core nodes", policy.Name(), got["a"])
		}
	}
}

func TestScheduleInfeasible(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "huge", CPU: 64})
	nodes := testNodes()
	for _, policy := range []Policy{NewBass(HeuristicBFS), NewBass(HeuristicLongestPath), NewK3s()} {
		if _, err := policy.Schedule(g, nodes, nil); !errors.Is(err, errInfeasible) {
			t.Errorf("%s: want ErrInfeasible, got %v", policy.Name(), err)
		}
	}
}

func TestScheduleHonorsPin(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "free", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "stuck", CPU: 1, Labels: dag.Pin("node3")})
	g.MustAddEdge("free", "stuck", 5)
	for _, policy := range []Policy{NewBass(HeuristicBFS), NewBass(HeuristicLongestPath), NewK3s()} {
		got, err := policy.Schedule(g, testNodes(), nil)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if got["stuck"] != "node3" {
			t.Errorf("%s: pinned component on %s, want node3", policy.Name(), got["stuck"])
		}
	}
}

func TestSchedulePinToUnknownNode(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "stuck", CPU: 1, Labels: dag.Pin("nowhere")})
	if _, err := NewBass(HeuristicBFS).Schedule(g, testNodes(), nil); !errors.Is(err, errInfeasible) {
		t.Errorf("want ErrInfeasible for pin to unknown node, got %v", err)
	}
}

func TestK3sSpreadsComponents(t *testing.T) {
	// Identical 1-core components: least-allocated scoring must spread them
	// across nodes rather than packing.
	g := dag.NewGraph("app")
	for _, name := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1, MemoryMB: 512})
	}
	g.MustAddEdge("a", "b", 50)
	g.MustAddEdge("b", "c", 50)
	got, err := NewK3s().Schedule(g, testNodes(), nil)
	if err != nil {
		t.Fatalf("k3s: %v", err)
	}
	used := map[string]bool{}
	for _, node := range got {
		used[node] = true
	}
	if len(used) != 3 {
		t.Errorf("k3s placed on %d nodes, want spread over 3 (got %v)", len(used), got)
	}
}

func TestBassCoLocatesHeavyEdges(t *testing.T) {
	// Same graph: BASS must co-locate the chain on one node.
	g := dag.NewGraph("app")
	for _, name := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1, MemoryMB: 512})
	}
	g.MustAddEdge("a", "b", 50)
	g.MustAddEdge("b", "c", 50)
	for _, h := range []Heuristic{HeuristicBFS, HeuristicLongestPath} {
		got, err := NewBass(h).Schedule(g, testNodes(), nil)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if got["a"] != got["b"] || got["b"] != got["c"] {
			t.Errorf("%v: chain split across nodes: %v", h, got)
		}
	}
}

// TestSchedulePropertyAllPlacedWithinCapacity property-checks every policy:
// all components placed, and no node's CPU or memory oversubscribed.
func TestSchedulePropertyAllPlacedWithinCapacity(t *testing.T) {
	policies := []Policy{NewBass(HeuristicBFS), NewBass(HeuristicLongestPath), NewK3s()}
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		g := dag.NewGraph("random")
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('A' + i))
			g.MustAddComponent(dag.Component{
				Name:     names[i],
				CPU:      float64(rng.Intn(4)) + 0.5,
				MemoryMB: float64(rng.Intn(2048)) + 128,
			})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					g.MustAddEdge(names[i], names[j], float64(rng.Intn(50)))
				}
			}
		}
		nodes := []NodeInfo{
			{Name: "n1", FreeCPU: 24, FreeMemoryMB: 32768, TotalCPU: 24, TotalMemoryMB: 32768, LinkCapacityMbps: 50},
			{Name: "n2", FreeCPU: 24, FreeMemoryMB: 32768, TotalCPU: 24, TotalMemoryMB: 32768, LinkCapacityMbps: 40},
			{Name: "n3", FreeCPU: 24, FreeMemoryMB: 32768, TotalCPU: 24, TotalMemoryMB: 32768, LinkCapacityMbps: 30},
		}
		for _, p := range policies {
			got, err := p.Schedule(g, nodes, nil)
			if err != nil {
				return false
			}
			if len(got) != n {
				return false
			}
			cpu := map[string]float64{}
			mem := map[string]float64{}
			for comp, node := range got {
				c, cerr := g.Component(comp)
				if cerr != nil {
					return false
				}
				cpu[node] += c.CPU
				mem[node] += c.MemoryMB
			}
			for _, node := range nodes {
				if cpu[node.Name] > node.TotalCPU+1e-9 || mem[node.Name] > node.TotalMemoryMB+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBassSchedule27Components(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(rng, 26)
	nodes := testNodes()
	for i := range nodes {
		nodes[i].FreeCPU = 64
		nodes[i].TotalCPU = 64
		nodes[i].FreeMemoryMB = 65536
		nodes[i].TotalMemoryMB = 65536
	}
	sched := NewBass(HeuristicLongestPath)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(g, nodes, nil); err != nil {
			b.Fatal(err)
		}
	}
}
