package mesh

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"bass/internal/trace"
)

func square(t testing.TB) *Topology {
	t.Helper()
	// a - b
	// |   |
	// d - c     plus a shortcut a-c
	topo := NewTopology()
	for _, n := range []string{"a", "b", "c", "d"} {
		topo.AddNode(n)
	}
	mk := func(mbps float64) *trace.Trace { return trace.Constant("", time.Second, mbps, 60) }
	topo.MustAddLink("a", "b", mk(10), time.Millisecond)
	topo.MustAddLink("b", "c", mk(20), time.Millisecond)
	topo.MustAddLink("c", "d", mk(30), time.Millisecond)
	topo.MustAddLink("d", "a", mk(40), time.Millisecond)
	topo.MustAddLink("a", "c", mk(5), 2*time.Millisecond)
	return topo
}

func TestMakeLinkID(t *testing.T) {
	if got := MakeLinkID("z", "a"); got != (LinkID{A: "a", B: "z"}) {
		t.Errorf("MakeLinkID = %v", got)
	}
	if got := MakeLinkID("a", "z").String(); got != "a-z" {
		t.Errorf("String = %q", got)
	}
}

func TestAddLinkErrors(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	tr := trace.Constant("", time.Second, 1, 1)
	if err := topo.AddLink("a", "a", tr, 0); !errors.Is(err, errSelfLink) {
		t.Errorf("self link: %v", err)
	}
	if err := topo.AddLink("a", "zz", tr, 0); !errors.Is(err, errUnknownNode) {
		t.Errorf("unknown node: %v", err)
	}
	if err := topo.AddLink("a", "b", tr, 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("b", "a", tr, 0); !errors.Is(err, errDuplicateLink) {
		t.Errorf("duplicate (reversed) link: %v", err)
	}
}

func TestRouteShortestHops(t *testing.T) {
	topo := square(t)
	path, err := topo.Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	// Direct a-c link exists: one hop beats two.
	if !reflect.DeepEqual(path, []string{"a", "c"}) {
		t.Errorf("Route(a,c) = %v", path)
	}
	path, err = topo.Route("b", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Errorf("Route(b,d) = %v, want 2 hops", path)
	}
	self, err := topo.Route("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(self, []string{"a"}) {
		t.Errorf("Route(a,a) = %v", self)
	}
}

func TestRouteNoPath(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	topo.AddNode("island")
	if _, err := topo.Route("a", "island"); !errors.Is(err, ErrNoPath) {
		t.Errorf("want ErrNoPath, got %v", err)
	}
	if _, err := topo.Route("ghost", "a"); !errors.Is(err, errUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestRouteDeterministicTieBreak(t *testing.T) {
	// Two equal-hop paths s-x-t and s-y-t: BFS with sorted adjacency must
	// always pick the lexicographically first.
	topo := NewTopology()
	for _, n := range []string{"s", "t", "x", "y"} {
		topo.AddNode(n)
	}
	mk := func() *trace.Trace { return trace.Constant("", time.Second, 10, 1) }
	topo.MustAddLink("s", "y", mk(), 0)
	topo.MustAddLink("y", "t", mk(), 0)
	topo.MustAddLink("s", "x", mk(), 0)
	topo.MustAddLink("x", "t", mk(), 0)
	for i := 0; i < 5; i++ {
		path, err := topo.Route("s", "t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(path, []string{"s", "x", "t"}) {
			t.Fatalf("Route = %v, want s,x,t", path)
		}
	}
}

func TestPathCapacityBottleneck(t *testing.T) {
	topo := square(t)
	mbps, networked, err := topo.PathCapacityAt("b", "d", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !networked {
		t.Fatal("b-d should be networked")
	}
	// Path b-a-d (lexicographic tie-break): min(10, 40) = 10, or b-c-d:
	// min(20,30)=20. BFS visits a before c from b.
	if mbps != 10 {
		t.Errorf("bottleneck = %v, want 10", mbps)
	}
	_, networked, err = topo.PathCapacityAt("a", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if networked {
		t.Error("self path must report networked=false")
	}
}

func TestPathLatency(t *testing.T) {
	topo := square(t)
	lat, err := topo.PathLatency("b", "d")
	if err != nil {
		t.Fatal(err)
	}
	if lat != 2*time.Millisecond {
		t.Errorf("PathLatency = %v", lat)
	}
}

func TestSetCapacity(t *testing.T) {
	topo := square(t)
	if err := topo.SetCapacity("a", "b", trace.Constant("", time.Second, 99, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := topo.CapacityAt("a", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("CapacityAt = %v", got)
	}
	if err := topo.SetCapacity("a", "ghost", nil); err == nil {
		t.Error("SetCapacity on missing link: want error")
	}
}

func TestNeighborsSorted(t *testing.T) {
	topo := square(t)
	if got := topo.Neighbors("a"); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Errorf("Neighbors(a) = %v", got)
	}
}

func TestCityLabTopology(t *testing.T) {
	topo := MustCityLab(CityLabOptions{Seed: 1})
	if got := len(topo.Nodes()); got != 5 {
		t.Fatalf("CityLab has %d nodes, want 5 (Fig 15a)", got)
	}
	if got := len(topo.Links()); got != len(CityLabLinks()) {
		t.Fatalf("CityLab has %d links, want %d", len(topo.Links()), len(CityLabLinks()))
	}
	// Fig 8 fixes the node3-node4 link at 25 Mbps mean.
	l, ok := topo.Link(CityLabNode3, CityLabNode4)
	if !ok {
		t.Fatal("missing node3-node4 link")
	}
	mean := l.CapacityFwd().Mean()
	if mean < 20 || mean > 30 {
		t.Errorf("node3-node4 mean = %.1f, want ≈25", mean)
	}
	// Every worker pair must be mutually reachable.
	names := topo.Nodes()
	for _, a := range names {
		for _, b := range names {
			if _, err := topo.Route(a, b); err != nil {
				t.Errorf("Route(%s,%s): %v", a, b, err)
			}
		}
	}
}

func TestLineAndFullMesh(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	line := Line(names, 100, time.Millisecond, time.Minute)
	if got := len(line.Links()); got != 2 {
		t.Errorf("Line links = %d", got)
	}
	full := FullMesh(names, 100, time.Millisecond, time.Minute)
	if got := len(full.Links()); got != 3 {
		t.Errorf("FullMesh links = %d", got)
	}
	path, err := full.Route("n1", "n3")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Errorf("full mesh route = %v, want direct", path)
	}
}

func TestAvailabilityState(t *testing.T) {
	topo := square(t)
	id := MakeLinkID("a", "b")

	if !topo.NodeUp("a") || !topo.LinkUp("a", "b") || !topo.LinkAvailable(id) {
		t.Fatal("fresh topology should be fully up")
	}
	if err := topo.SetNodeUp("ghost", false); !errors.Is(err, errUnknownNode) {
		t.Errorf("SetNodeUp unknown: %v", err)
	}
	if err := topo.SetLinkUp("a", "ghost", false); !errors.Is(err, errUnknownLink) {
		t.Errorf("SetLinkUp unknown: %v", err)
	}

	// A down link is administratively down but its endpoints stay up.
	if err := topo.SetLinkUp("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if topo.LinkUp("a", "b") || topo.LinkAvailable(id) {
		t.Error("downed link still reported up/available")
	}
	if mbps, err := topo.CapacityAt("a", "b", 0); err != nil || mbps != 0 {
		t.Errorf("CapacityAt over down link = %v, %v; want 0, nil", mbps, err)
	}
	if err := topo.SetLinkUp("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if !topo.LinkAvailable(id) {
		t.Error("link not available after SetLinkUp(true)")
	}

	// A down node takes every incident link with it, though the links
	// themselves stay administratively up.
	if err := topo.SetNodeUp("a", false); err != nil {
		t.Fatal(err)
	}
	if topo.NodeUp("a") {
		t.Error("a still up")
	}
	if !topo.LinkUp("a", "b") {
		t.Error("a-b should stay administratively up under a node crash")
	}
	if topo.LinkAvailable(id) || topo.LinkAvailable(MakeLinkID("a", "d")) {
		t.Error("links incident to a dead node must be unavailable")
	}
	if got := topo.DownNodes(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("DownNodes = %v", got)
	}
	if err := topo.SetNodeUp("a", true); err != nil {
		t.Fatal(err)
	}
	if len(topo.DownNodes()) != 0 || !topo.LinkAvailable(id) {
		t.Error("recovery did not restore availability")
	}
}

func TestRouteAvoidsDownElements(t *testing.T) {
	topo := square(t)

	// Routing to or from a dead node fails typed.
	if err := topo.SetNodeUp("b", false); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Route("b", "c"); !errors.Is(err, ErrNodeDown) {
		t.Errorf("route from dead node: %v", err)
	}
	if _, err := topo.Route("a", "b"); !errors.Is(err, ErrNodeDown) {
		t.Errorf("route to dead node: %v", err)
	}
	// Routing through it detours: a->c still works via the shortcut.
	path, err := topo.Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range path {
		if hop == "b" {
			t.Errorf("route %v crosses dead node b", path)
		}
	}

	// Down links force detours too; cutting the last remaining path
	// partitions the pair.
	if err := topo.SetNodeUp("b", true); err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}} {
		if err := topo.SetLinkUp(cut[0], cut[1], false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := topo.Route("a", "c"); !errors.Is(err, ErrNoPath) {
		t.Errorf("route from isolated node: %v", err)
	}
}
