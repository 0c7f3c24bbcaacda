package scheduler

import (
	"testing"

	"bass/internal/dag"
)

// fanOutGraph models an SFU-like producer feeding many consumers.
func fanOutGraph() *dag.Graph {
	g := dag.NewGraph("fan")
	g.MustAddComponent(dag.Component{Name: "hub", CPU: 2})
	for _, name := range []string{"c1", "c2", "c3", "c4"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
		g.MustAddEdge("hub", name, 5)
	}
	return g
}

// pipelineGraph models a frontend→service→cache→database chain.
func pipelineGraph() *dag.Graph {
	g := dag.NewGraph("pipe")
	chain := []string{"front", "svc", "cache", "db"}
	for _, name := range chain {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
	}
	for i := 0; i+1 < len(chain); i++ {
		g.MustAddEdge(chain[i], chain[i+1], 10)
	}
	// A light side branch so the graph is not a pure path.
	g.MustAddComponent(dag.Component{Name: "trace", CPU: 0.5})
	g.MustAddEdge("front", "trace", 0.5)
	return g
}

func TestChooseHeuristic(t *testing.T) {
	h, err := ChooseHeuristic(fanOutGraph())
	if err != nil {
		t.Fatal(err)
	}
	if h != HeuristicBFS {
		t.Errorf("fan-out graph chose %v, want bfs", h)
	}
	h, err = ChooseHeuristic(pipelineGraph())
	if err != nil {
		t.Fatal(err)
	}
	if h != HeuristicLongestPath {
		t.Errorf("pipeline graph chose %v, want longest-path", h)
	}
}

func TestAutoOrderDelegates(t *testing.T) {
	g := fanOutGraph()
	auto, err := Order(g, HeuristicAuto)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := Order(g, HeuristicBFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != len(bfs) {
		t.Fatalf("auto order %v vs bfs %v", auto, bfs)
	}
	for i := range auto {
		if auto[i] != bfs[i] {
			t.Fatalf("auto order %v differs from bfs %v", auto, bfs)
		}
	}
}

func TestAutoScheduleWorks(t *testing.T) {
	sched := NewBass(HeuristicAuto)
	if sched.Name() != "bass-auto" {
		t.Errorf("Name = %q", sched.Name())
	}
	for _, g := range []*dag.Graph{fanOutGraph(), pipelineGraph()} {
		got, err := sched.Schedule(g, testNodes(), nil)
		if err != nil {
			t.Fatalf("%s: %v", g.AppName, err)
		}
		if len(got) != g.NumComponents() {
			t.Errorf("%s: placed %d of %d", g.AppName, len(got), g.NumComponents())
		}
	}
}
