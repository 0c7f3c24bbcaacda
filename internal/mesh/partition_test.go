package mesh

import (
	"reflect"
	"testing"
	"time"

	"bass/internal/trace"
)

func gridOrDie(t *testing.T, rows, cols int, seed int64) *Topology {
	t.Helper()
	topo, err := Grid(GridOptions{Rows: rows, Cols: cols, Seed: seed, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestPartitionDeterministic pins the byte-identity prerequisite: equal
// (topology, k, seed) triples must produce identical region maps.
func TestPartitionDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a, err := PartitionTopology(gridOrDie(t, 8, 8, seed), 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := PartitionTopology(gridOrDie(t, 8, 8, seed), 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.regionOf, b.regionOf) {
			t.Fatalf("seed %d: repeated partition differs", seed)
		}
		if !reflect.DeepEqual(a.Gateways(), b.Gateways()) {
			t.Fatalf("seed %d: gateway sets differ", seed)
		}
	}
}

// TestPartitionCoversAllNodes: every node lands in exactly one region and
// region sizes stay balanced on a connected grid.
func TestPartitionCoversAllNodes(t *testing.T) {
	topo := gridOrDie(t, 10, 10, 3)
	p, err := PartitionTopology(topo, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range topo.Nodes() {
		r := p.Region(n)
		if r < 0 || r >= p.K() {
			t.Fatalf("node %s in region %d", n, r)
		}
	}
	min, max := 1<<30, 0
	for _, s := range p.Sizes() {
		total += s
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if total != 100 {
		t.Fatalf("sizes sum to %d, want 100", total)
	}
	// Balanced multi-source BFS keeps connected-graph regions close: a
	// region can fall a couple of claims behind when its frontier is briefly
	// walled in, but never drift past a few percent of the mesh.
	if max-min > 5 {
		t.Errorf("region sizes %v unbalanced", p.Sizes())
	}
}

// TestPartitionGateways: every gateway link crosses regions and every
// cross-region link is reported as a gateway.
func TestPartitionGateways(t *testing.T) {
	topo := gridOrDie(t, 6, 6, 9)
	p, err := PartitionTopology(topo, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	gw := map[LinkID]bool{}
	for _, id := range p.Gateways() {
		if p.Region(id.A) == p.Region(id.B) {
			t.Errorf("gateway %s is intra-region", id)
		}
		gw[id] = true
	}
	for _, l := range topo.Links() {
		crosses := p.Region(l.ID.A) != p.Region(l.ID.B)
		if crosses != gw[l.ID] {
			t.Errorf("link %s: crosses=%v gateway=%v", l.ID, crosses, gw[l.ID])
		}
	}
	if len(gw) == 0 {
		t.Error("3-way split of a 6x6 grid produced no gateway links")
	}
}

// TestPartitionRange pins the error contract simnet.SetShards leans on.
func TestPartitionRange(t *testing.T) {
	topo := gridOrDie(t, 2, 2, 1)
	for _, k := range []int{0, -1, 5} {
		if _, err := PartitionTopology(topo, k, 1); err == nil {
			t.Errorf("k=%d: no error", k)
		}
	}
	p, err := PartitionTopology(topo, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Gateways()) != 0 {
		t.Errorf("k=1 produced gateways %v", p.Gateways())
	}
	if p.Region("nope") != -1 {
		t.Error("unknown node did not map to -1")
	}
}

// TestPartitionDisconnected: nodes unreachable from any center still get
// assigned, deterministically, to the smallest region.
func TestPartitionDisconnected(t *testing.T) {
	topo := NewTopology()
	for _, n := range []string{"a", "b", "c", "x", "y"} {
		topo.AddNode(n)
	}
	tr := func(n string) *trace.Trace { return trace.Constant(n, time.Second, 10, 60) }
	if err := topo.AddLink("a", "b", tr("ab"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("b", "c", tr("bc"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("x", "y", tr("xy"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p, err := PartitionTopology(topo, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c", "x", "y"} {
		if p.Region(n) < 0 {
			t.Errorf("node %s unassigned", n)
		}
	}
	q, err := PartitionTopology(topo, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.regionOf, q.regionOf) {
		t.Error("disconnected assignment not deterministic")
	}
}

// TestGridDeterministic: same options → identical traces; the scale bench
// and its differential tests rely on this.
func TestGridDeterministic(t *testing.T) {
	a := gridOrDie(t, 5, 5, 21)
	b := gridOrDie(t, 5, 5, 21)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	// 5x5 grid: 2*5*4 = 40 right/down links.
	if len(la) != 40 {
		t.Fatalf("got %d links, want 40", len(la))
	}
	for i := range la {
		if la[i].ID != lb[i].ID {
			t.Fatalf("link %d: %s vs %s", i, la[i].ID, lb[i].ID)
		}
		ca, err := la[i].CapacityToward(la[i].ID.A, la[i].ID.B)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := lb[i].CapacityToward(lb[i].ID.A, lb[i].ID.B)
		if err != nil {
			t.Fatal(err)
		}
		if sa := ca.Samples(); len(sa) == 0 || !reflect.DeepEqual(sa, cb.Samples()) {
			t.Fatalf("link %s traces differ or are empty", la[i].ID)
		}
	}
}

// TestGridTracesStoreLevels pins the grid's memory shape: over a 5 h
// horizon (18,000 one-second samples) a link trace keeps no dense samples
// and changes value at most ChangesPerLink times a cycle, one run per level.
func TestGridTracesStoreLevels(t *testing.T) {
	const changes = 6
	topo, err := Grid(GridOptions{Rows: 3, Cols: 3, Seed: 5, Duration: 5 * time.Hour, ChangesPerLink: changes})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range topo.Links() {
		tr, err := l.CapacityToward(l.ID.A, l.ID.B)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 18000 || len(tr.Mbps) != 0 {
			t.Fatalf("link %s: %d samples, %d stored densely; want 18000, 0", l.ID, tr.Len(), len(tr.Mbps))
		}
		runs := 1
		for d, ok := tr.NextChangeAfter(-1); ok && d < tr.Duration(); d, ok = tr.NextChangeAfter(d) {
			runs++
		}
		if runs > changes+1 {
			t.Errorf("link %s: %d runs, want at most %d", l.ID, runs, changes+1)
		}
	}
}
