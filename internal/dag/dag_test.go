package dag

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func diamond(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph("diamond")
	for _, name := range []string{"a", "b", "c", "d"} {
		g.MustAddComponent(Component{Name: name, CPU: 1, MemoryMB: 100})
	}
	g.MustAddEdge("a", "b", 10)
	g.MustAddEdge("a", "c", 5)
	g.MustAddEdge("b", "d", 3)
	g.MustAddEdge("c", "d", 2)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := diamond(t)
	if g.NumComponents() != 4 || g.NumEdges() != 4 {
		t.Fatalf("components=%d edges=%d", g.NumComponents(), g.NumEdges())
	}
	if got := g.Weight("a", "b"); got != 10 {
		t.Errorf("Weight(a,b) = %v", got)
	}
	if got := g.Weight("b", "a"); got != 0 {
		t.Errorf("Weight(b,a) = %v, want 0 (directed)", got)
	}
	if !g.HasComponent("a") || g.HasComponent("zz") {
		t.Error("HasComponent wrong")
	}
}

func TestGraphErrors(t *testing.T) {
	g := NewGraph("e")
	g.MustAddComponent(Component{Name: "a"})
	if err := g.AddComponent(Component{Name: "a"}); !errors.Is(err, errDuplicateComponent) {
		t.Errorf("dup component: %v", err)
	}
	if err := g.AddComponent(Component{}); err == nil {
		t.Error("empty name: want error")
	}
	if err := g.AddEdge("a", "a", 1); !errors.Is(err, errSelfEdge) {
		t.Errorf("self edge: %v", err)
	}
	if err := g.AddEdge("a", "zz", 1); !errors.Is(err, errUnknownComponent) {
		t.Errorf("unknown target: %v", err)
	}
	if err := g.AddEdge("zz", "a", 1); !errors.Is(err, errUnknownComponent) {
		t.Errorf("unknown source: %v", err)
	}
	g.MustAddComponent(Component{Name: "b"})
	g.MustAddEdge("a", "b", 1)
	if err := g.AddEdge("a", "b", 2); !errors.Is(err, errDuplicateEdge) {
		t.Errorf("dup edge: %v", err)
	}
	if err := g.AddEdge("b", "a", -1); err == nil {
		t.Error("negative bandwidth: want error")
	}
	if _, err := g.Component("zz"); !errors.Is(err, errUnknownComponent) {
		t.Errorf("unknown component: %v", err)
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("topo = %v, want %v (insertion-order ties)", order, want)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := NewGraph("cycle")
	g.MustAddComponent(Component{Name: "a"})
	g.MustAddComponent(Component{Name: "b"})
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("b", "a", 1)
	if _, err := g.TopoSort(); !errors.Is(err, errCycle) {
		t.Errorf("want ErrCycle, got %v", err)
	}
	if err := g.Validate(); !errors.Is(err, errCycle) {
		t.Errorf("Validate: want ErrCycle, got %v", err)
	}
}

func TestTopoSortEmpty(t *testing.T) {
	if _, err := NewGraph("e").TopoSort(); !errors.Is(err, errEmptyGraph) {
		t.Errorf("want ErrEmptyGraph, got %v", err)
	}
}

func TestValidateNegativeResources(t *testing.T) {
	g := NewGraph("bad")
	g.MustAddComponent(Component{Name: "a", CPU: -1})
	if err := g.Validate(); err == nil {
		t.Error("negative CPU: want error")
	}
}

func TestNeighborsUndirected(t *testing.T) {
	g := diamond(t)
	nb := g.Neighbors("b")
	if nb["a"] != 10 || nb["d"] != 3 {
		t.Errorf("Neighbors(b) = %v", nb)
	}
	if len(nb) != 2 {
		t.Errorf("Neighbors(b) has %d entries", len(nb))
	}
}

func TestComponentLabelCopy(t *testing.T) {
	labels := map[string]string{"k": "v"}
	g := NewGraph("l")
	g.MustAddComponent(Component{Name: "a", Labels: labels})
	labels["k"] = "changed"
	c, err := g.Component("a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Labels["k"] != "v" {
		t.Error("labels not copied at boundary")
	}
}

func TestPin(t *testing.T) {
	g := NewGraph("p")
	g.MustAddComponent(Component{Name: "pinned", Labels: Pin("node7")})
	g.MustAddComponent(Component{Name: "free"})
	p, err := g.Component("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Pinned() || p.PinnedTo() != "node7" {
		t.Errorf("pinned = %v, to %q", p.Pinned(), p.PinnedTo())
	}
	f, err := g.Component("free")
	if err != nil {
		t.Fatal(err)
	}
	if f.Pinned() {
		t.Error("free component reports pinned")
	}
}

// TestTopoSortProperty property-checks that topological order respects every
// edge on random DAGs.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph("prop")
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = string(rune('A' + i))
			g.MustAddComponent(Component{Name: names[i]})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(names[i], names[j], 1)
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, c := range order {
			pos[c] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
