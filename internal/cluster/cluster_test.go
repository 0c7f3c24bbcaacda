package cluster

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func threeNodes(t testing.TB) *Cluster {
	t.Helper()
	c, err := New(
		Node{Name: "n1", CPU: 8, MemoryMB: 8192},
		Node{Name: "n2", CPU: 4, MemoryMB: 4096},
		Node{Name: "control", CPU: 8, MemoryMB: 8192, Unschedulable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Node{Name: ""}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := New(Node{Name: "a"}, Node{Name: "a"}); !errors.Is(err, ErrDuplicateNode) {
		t.Error("dup node: want ErrDuplicateNode")
	}
	if _, err := New(Node{Name: "a", CPU: -1}); err == nil {
		t.Error("negative capacity: want error")
	}
}

func TestPlaceAndFree(t *testing.T) {
	c := threeNodes(t)
	p := Placement{App: "app", Component: "x", Node: "n1", CPU: 3, MemoryMB: 1024}
	if err := c.Place(p); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeCPU("n1"); got != 5 {
		t.Errorf("FreeCPU = %v", got)
	}
	if got := c.FreeMemoryMB("n1"); got != 7168 {
		t.Errorf("FreeMemoryMB = %v", got)
	}
	if got := c.NodeOf("app", "x"); got != "n1" {
		t.Errorf("NodeOf = %q", got)
	}
	if err := c.Remove("app", "x"); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeCPU("n1"); got != 8 {
		t.Errorf("FreeCPU after remove = %v", got)
	}
}

func TestPlaceErrors(t *testing.T) {
	c := threeNodes(t)
	if err := c.Place(Placement{App: "a", Component: "x", Node: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: %v", err)
	}
	if err := c.Place(Placement{App: "a", Component: "x", Node: "control", CPU: 1}); !errors.Is(err, ErrNodeUnschedulable) {
		t.Errorf("unschedulable: %v", err)
	}
	// Zero-resource components model external endpoints and may sit on
	// unschedulable hosts.
	if err := c.Place(Placement{App: "a", Component: "external", Node: "control"}); err != nil {
		t.Errorf("zero-resource on unschedulable host: %v", err)
	}
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n2", CPU: 100}); !errors.Is(err, ErrInsufficient) {
		t.Errorf("oversize: %v", err)
	}
	ok := Placement{App: "a", Component: "x", Node: "n2", CPU: 1}
	if err := c.Place(ok); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(ok); !errors.Is(err, ErrAlreadyPlaced) {
		t.Errorf("double place: %v", err)
	}
	if err := c.Remove("a", "ghost"); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("remove unplaced: %v", err)
	}
}

func TestMove(t *testing.T) {
	c := threeNodes(t)
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n1", CPU: 2, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	if err := c.Move("a", "x", "n2"); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeOf("a", "x"); got != "n2" {
		t.Errorf("NodeOf after move = %q", got)
	}
	if got := c.FreeCPU("n1"); got != 8 {
		t.Errorf("source not freed: %v", got)
	}
	if got := c.FreeCPU("n2"); got != 2 {
		t.Errorf("target not charged: %v", got)
	}
}

func TestMoveFailureRestores(t *testing.T) {
	c := threeNodes(t)
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n1", CPU: 2}); err != nil {
		t.Fatal(err)
	}
	// n2 cannot host 2 cores once something big sits there.
	if err := c.Place(Placement{App: "a", Component: "big", Node: "n2", CPU: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Move("a", "x", "n2"); err == nil {
		t.Fatal("move to full node: want error")
	}
	if got := c.NodeOf("a", "x"); got != "n1" {
		t.Errorf("failed move must restore placement, got %q", got)
	}
	if got := c.FreeCPU("n1"); got != 6 {
		t.Errorf("restored allocation wrong: free %v", got)
	}
}

func TestSchedulableNodes(t *testing.T) {
	c := threeNodes(t)
	got := c.SchedulableNodes()
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Errorf("SchedulableNodes = %v", got)
	}
}

func TestComponentsOnAndPlacements(t *testing.T) {
	c := threeNodes(t)
	for _, comp := range []string{"b", "a"} {
		if err := c.Place(Placement{App: "app", Component: comp, Node: "n1", CPU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ComponentsOn("app", "n1"); len(got) != 2 || got[0] != "a" {
		t.Errorf("ComponentsOn = %v", got)
	}
	ps := c.Placements()
	if len(ps) != 2 || ps[0].Component != "a" {
		t.Errorf("Placements = %v", ps)
	}
}

// TestAllocationNeverNegative property-checks that any sequence of
// place/remove/move operations keeps free resources within [0, capacity].
func TestAllocationNeverNegative(t *testing.T) {
	type op struct {
		Kind uint8
		Comp uint8
		Node uint8
		CPU  uint8
	}
	f := func(ops []op) bool {
		c := MustNew(
			Node{Name: "n0", CPU: 10, MemoryMB: 1000},
			Node{Name: "n1", CPU: 10, MemoryMB: 1000},
		)
		nodes := []string{"n0", "n1"}
		for _, o := range ops {
			comp := string(rune('a' + o.Comp%5))
			node := nodes[int(o.Node)%2]
			cpu := float64(o.CPU % 6)
			switch o.Kind % 3 {
			case 0:
				_ = c.Place(Placement{App: "p", Component: comp, Node: node, CPU: cpu})
			case 1:
				_ = c.Remove("p", comp)
			case 2:
				_ = c.Move("p", comp, node)
			}
			for _, n := range nodes {
				free := c.FreeCPU(n)
				if free < -1e-9 || free > 10+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCordon(t *testing.T) {
	c := threeNodes(t)
	if err := c.Cordon("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("cordon unknown node: %v", err)
	}
	if err := c.Cordon("n2"); err != nil {
		t.Fatal(err)
	}
	if !c.Cordoned("n2") {
		t.Error("n2 not reported cordoned")
	}
	// Cordon blocks even zero-resource placements — unlike capacity checks.
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n2"}); !errors.Is(err, ErrNodeCordoned) {
		t.Errorf("place on cordoned node: %v", err)
	}
	if c.Fits("n2", 0, 0) {
		t.Error("Fits(0,0) true on cordoned node")
	}
	if got := c.SchedulableNodes(); len(got) != 1 || got[0] != "n1" {
		t.Errorf("SchedulableNodes = %v, want [n1]", got)
	}
	if err := c.Uncordon("n2"); err != nil {
		t.Fatal(err)
	}
	if c.Cordoned("n2") {
		t.Error("n2 still cordoned after Uncordon")
	}
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n2", CPU: 1}); err != nil {
		t.Errorf("place after uncordon: %v", err)
	}
}

// TestMoveToCordonedNodeRestores checks a move into a cordoned node rolls
// back cleanly: same node, same accounting.
func TestMoveToCordonedNodeRestores(t *testing.T) {
	c := threeNodes(t)
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n1", CPU: 2, MemoryMB: 512}); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Move("a", "x", "n2"); !errors.Is(err, ErrNodeCordoned) {
		t.Fatalf("move to cordoned node: %v", err)
	}
	if got := c.NodeOf("a", "x"); got != "n1" {
		t.Errorf("x on %q after rolled-back move, want n1", got)
	}
	if got := c.FreeCPU("n1"); got != 6 {
		t.Errorf("n1 free CPU = %v after rollback, want 6", got)
	}
	if got := c.FreeCPU("n2"); got != 4 {
		t.Errorf("n2 free CPU = %v, want untouched 4", got)
	}
}

// TestMoveRestoreFailure drives the restore-after-failed-move branch: the
// origin is cordoned under the in-flight move, so the rollback Place fails
// too and Move must report both errors and leave the component unplaced —
// the caller's signal that manual re-placement is required.
func TestMoveRestoreFailure(t *testing.T) {
	c := threeNodes(t)
	if err := c.Place(Placement{App: "a", Component: "x", Node: "n1", CPU: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("n1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Cordon("n2"); err != nil {
		t.Fatal(err)
	}
	err := c.Move("a", "x", "n2")
	if err == nil {
		t.Fatal("move between cordoned nodes succeeded")
	}
	// The wrapped chain carries the original placement error; the message
	// names the restore failure.
	if !errors.Is(err, ErrNodeCordoned) {
		t.Errorf("err = %v, want ErrNodeCordoned in chain", err)
	}
	if want := "restore after failed move"; !strings.Contains(err.Error(), want) {
		t.Errorf("err %q does not mention %q", err, want)
	}
	if got := c.NodeOf("a", "x"); got != "" {
		t.Errorf("x still placed on %q after double failure", got)
	}
	// The failed restore must not leak the allocation either way.
	if got := c.FreeCPU("n1"); got != 8 {
		t.Errorf("n1 free CPU = %v, want 8 (x evicted)", got)
	}
	if got := c.FreeCPU("n2"); got != 4 {
		t.Errorf("n2 free CPU = %v, want 4", got)
	}
}
