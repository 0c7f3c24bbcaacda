package scheduler

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bass/internal/dag"
)

// fig6Graph reconstructs the application DAG of the paper's Fig 6: a
// seven-component graph whose BFS ordering is 1,3,2,4,5,7,6 and whose
// longest-path ordering is 1,2,4,5,7,3,6.
func fig6Graph(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.NewGraph("fig6")
	for _, name := range []string{"1", "2", "3", "4", "5", "6", "7"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
	}
	g.MustAddEdge("1", "2", 10)
	g.MustAddEdge("1", "3", 12)
	g.MustAddEdge("3", "6", 2)
	g.MustAddEdge("2", "4", 10)
	g.MustAddEdge("4", "5", 10)
	g.MustAddEdge("5", "7", 9)
	return g
}

func TestFig6Ordering(t *testing.T) {
	g := fig6Graph(t)

	bfs, err := BFSOrder(g)
	if err != nil {
		t.Fatalf("BFSOrder: %v", err)
	}
	wantBFS := []string{"1", "3", "2", "4", "5", "7", "6"}
	if !reflect.DeepEqual(bfs, wantBFS) {
		t.Errorf("BFS order = %v, want %v (paper Fig 6)", bfs, wantBFS)
	}

	lp, err := LongestPathOrder(g)
	if err != nil {
		t.Fatalf("LongestPathOrder: %v", err)
	}
	wantLP := []string{"1", "2", "4", "5", "7", "3", "6"}
	if !reflect.DeepEqual(lp, wantLP) {
		t.Errorf("longest-path order = %v, want %v (paper Fig 6)", lp, wantLP)
	}
}

func TestFig6Chains(t *testing.T) {
	g := fig6Graph(t)
	chains, err := LongestPathChains(g)
	if err != nil {
		t.Fatalf("LongestPathChains: %v", err)
	}
	want := [][]string{{"1", "2", "4", "5", "7"}, {"3", "6"}}
	if !reflect.DeepEqual(chains, want) {
		t.Errorf("chains = %v, want %v", chains, want)
	}
}

func TestBFSOrderSingleComponent(t *testing.T) {
	g := dag.NewGraph("one")
	g.MustAddComponent(dag.Component{Name: "only"})
	got, err := BFSOrder(g)
	if err != nil {
		t.Fatalf("BFSOrder: %v", err)
	}
	if !reflect.DeepEqual(got, []string{"only"}) {
		t.Errorf("order = %v", got)
	}
}

func TestBFSOrderExploresHeaviestEdgeFirst(t *testing.T) {
	// A fan-out root: children must appear in decreasing edge weight.
	g := dag.NewGraph("fan")
	g.MustAddComponent(dag.Component{Name: "root"})
	for _, c := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: c})
	}
	g.MustAddEdge("root", "a", 1)
	g.MustAddEdge("root", "b", 5)
	g.MustAddEdge("root", "c", 3)
	got, err := BFSOrder(g)
	if err != nil {
		t.Fatalf("BFSOrder: %v", err)
	}
	want := []string{"root", "b", "c", "a"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestBFSOrderDisconnectedGraph(t *testing.T) {
	g := dag.NewGraph("parts")
	for _, c := range []string{"a", "b", "x", "y"} {
		g.MustAddComponent(dag.Component{Name: c})
	}
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("x", "y", 2)
	got, err := BFSOrder(g)
	if err != nil {
		t.Fatalf("BFSOrder: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("order %v does not cover all components", got)
	}
	seen := map[string]bool{}
	for _, c := range got {
		if seen[c] {
			t.Fatalf("component %q appears twice in %v", c, got)
		}
		seen[c] = true
	}
}

func TestLongestPathPrefersHeavierChain(t *testing.T) {
	// Two chains from the root; the heavier (by weight sum, not hop count)
	// must be extracted first.
	g := dag.NewGraph("chains")
	for _, c := range []string{"r", "a1", "a2", "a3", "b1", "b2"} {
		g.MustAddComponent(dag.Component{Name: c})
	}
	// Long but light chain: r->a1->a2->a3 (sum 3).
	g.MustAddEdge("r", "a1", 1)
	g.MustAddEdge("a1", "a2", 1)
	g.MustAddEdge("a2", "a3", 1)
	// Short but heavy chain: r->b1->b2 (sum 40).
	g.MustAddEdge("r", "b1", 20)
	g.MustAddEdge("b1", "b2", 20)
	chains, err := LongestPathChains(g)
	if err != nil {
		t.Fatalf("LongestPathChains: %v", err)
	}
	want := []string{"r", "b1", "b2"}
	if !reflect.DeepEqual(chains[0], want) {
		t.Errorf("first chain = %v, want %v", chains[0], want)
	}
}

func TestLongestPathTieBreakEarlierTopoParent(t *testing.T) {
	// Diamond with exactly tied path weights: s->a->t and s->b->t both sum
	// to 10. The documented rule is that the earlier-topo parent wins, so the
	// extracted chain must run through a regardless of edge insertion order.
	build := func(edges [][2]string) *dag.Graph {
		g := dag.NewGraph("diamond")
		for _, c := range []string{"s", "a", "b", "t"} {
			g.MustAddComponent(dag.Component{Name: c, CPU: 1})
		}
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1], 5)
		}
		return g
	}
	orders := [][][2]string{
		{{"s", "a"}, {"s", "b"}, {"a", "t"}, {"b", "t"}},
		{{"s", "b"}, {"s", "a"}, {"b", "t"}, {"a", "t"}},
	}
	for i, edges := range orders {
		chains, err := LongestPathChains(build(edges))
		if err != nil {
			t.Fatalf("insertion order %d: %v", i, err)
		}
		want := []string{"s", "a", "t"}
		if !reflect.DeepEqual(chains[0], want) {
			t.Errorf("insertion order %d: first chain = %v, want %v (earlier-topo parent)", i, chains[0], want)
		}
	}
}

func TestLongestPathTieBreakSurvivesFloatNoise(t *testing.T) {
	// Two two-hop paths with equal intended weight 0.3: via a it accumulates
	// as 0.15+0.15 (exactly 0.3 in float64), via b as 0.1+0.2
	// (0.30000000000000004). Exact float comparison saw b's path as strictly
	// heavier and flipped the parent to the later-topo b; the epsilon-aware
	// comparison must treat the paths as tied and keep the earlier-topo
	// parent a.
	g := dag.NewGraph("fp")
	for _, c := range []string{"s", "a", "b", "t"} {
		g.MustAddComponent(dag.Component{Name: c, CPU: 1})
	}
	g.MustAddEdge("s", "a", 0.15)
	g.MustAddEdge("a", "t", 0.15) // sums to exactly 0.3
	g.MustAddEdge("s", "b", 0.1)
	g.MustAddEdge("b", "t", 0.2) // sums to 0.30000000000000004
	chains, err := LongestPathChains(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s", "a", "t"}
	if !reflect.DeepEqual(chains[0], want) {
		t.Errorf("first chain = %v, want %v (FP noise must not decide the tie)", chains[0], want)
	}
}

func TestLongestPathTiedWeightChainsDeterministic(t *testing.T) {
	// A wider fan of identical-weight chains: r->(x1|x2|x3)->l. Every path
	// ties, so extraction must deterministically follow the earliest-topo
	// branch, then the next, independent of map iteration or edge order.
	g := dag.NewGraph("fan")
	for _, c := range []string{"r", "x3", "x1", "x2", "l"} {
		g.MustAddComponent(dag.Component{Name: c, CPU: 1})
	}
	for _, mid := range []string{"x3", "x1", "x2"} {
		g.MustAddEdge("r", mid, 7)
		g.MustAddEdge(mid, "l", 7)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	// The earliest mid in topological order must carry the first chain.
	firstMid := ""
	for _, name := range topo {
		if name != "r" && name != "l" {
			firstMid = name
			break
		}
	}
	for run := 0; run < 10; run++ {
		chains, err := LongestPathChains(g)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"r", firstMid, "l"}
		if !reflect.DeepEqual(chains[0], want) {
			t.Fatalf("run %d: first chain = %v, want %v", run, chains[0], want)
		}
	}
}

func TestOrderUnknownHeuristic(t *testing.T) {
	g := fig6Graph(t)
	if _, err := order(g, Heuristic(99)); err == nil {
		t.Error("Order with unknown heuristic: want error, got nil")
	}
}

func TestHeuristicString(t *testing.T) {
	if HeuristicBFS.String() != "bfs" {
		t.Errorf("HeuristicBFS.String() = %q", HeuristicBFS.String())
	}
	if HeuristicLongestPath.String() != "longest-path" {
		t.Errorf("HeuristicLongestPath.String() = %q", HeuristicLongestPath.String())
	}
}

// randomDAG builds a random DAG: edges only go from lower to higher index,
// guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int) *dag.Graph {
	g := dag.NewGraph("random")
	for i := 0; i < n; i++ {
		g.MustAddComponent(dag.Component{Name: string(rune('A' + i)), CPU: 1})
	}
	names := g.Components()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.MustAddEdge(names[i], names[j], float64(rng.Intn(100)))
			}
		}
	}
	return g
}

// TestOrderingsArePermutations property-checks both heuristics: every
// component appears exactly once, regardless of graph shape.
func TestOrderingsArePermutations(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		for _, h := range []Heuristic{HeuristicBFS, HeuristicLongestPath} {
			order, err := order(g, h)
			if err != nil {
				return false
			}
			if len(order) != n {
				return false
			}
			seen := make(map[string]bool, n)
			for _, c := range order {
				if seen[c] || !g.HasComponent(c) {
					return false
				}
				seen[c] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLongestPathChainsAreRealPaths property-checks that every extracted
// chain is a connected directed path in the graph.
func TestLongestPathChainsAreRealPaths(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		chains, err := LongestPathChains(g)
		if err != nil {
			return false
		}
		for _, chain := range chains {
			for i := 0; i+1 < len(chain); i++ {
				if g.Weight(chain[i], chain[i+1]) == 0 {
					// Weight 0 could be a real zero-weight edge; check
					// existence explicitly.
					found := false
					for _, e := range g.Out(chain[i]) {
						if e.To == chain[i+1] {
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBFSOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomDAG(rng, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFSOrder(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLongestPathOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomDAG(rng, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LongestPathOrder(g); err != nil {
			b.Fatal(err)
		}
	}
}
