package mesh

import (
	"reflect"
	"testing"
	"time"
)

func gridOrDie(t *testing.T, rows, cols int, seed int64) *Topology {
	t.Helper()
	topo, err := Grid(GridOptions{Rows: rows, Cols: cols, Seed: seed, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return topo
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
// horizon (18,000 one-second samples) a link trace changes value at most
// ChangesPerLink times a cycle, one run per level.
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
		if tr.Len() != 18000 {
			t.Fatalf("link %s: %d samples, want 18000", l.ID, tr.Len())
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
