package mesh

import (
	"testing"
	"time"

	"bass/internal/trace"
)

func TestPathCapacityUnknownNode(t *testing.T) {
	topo := square(t)
	if _, _, err := topo.PathCapacityAt("ghost", "a", 0); err == nil {
		t.Error("unknown src: want error")
	}
}

func TestPathLatencyNoPath(t *testing.T) {
	topo := NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	if _, err := topo.PathLatency("a", "b"); err == nil {
		t.Error("no path: want error")
	}
}

func TestCapacityAtMissingLink(t *testing.T) {
	topo := square(t)
	if _, err := topo.CapacityAt("a", "ghost", 0); err == nil {
		t.Error("missing link: want error")
	}
}

func TestHasNodeAndLink(t *testing.T) {
	topo := square(t)
	if !topo.HasNode("a") || topo.HasNode("zzz") {
		t.Error("HasNode wrong")
	}
	if _, ok := topo.Link("a", "b"); !ok {
		t.Error("Link(a,b) missing")
	}
	if _, ok := topo.Link("a", "zzz"); ok {
		t.Error("Link to unknown node found")
	}
}

func TestDirectedThrottleAffectsPathCapacity(t *testing.T) {
	topo := square(t)
	if err := topo.SetDirectedCapacity("a", "b", trace.Constant("ab", time.Second, 1, 60)); err != nil {
		t.Fatal(err)
	}
	fwd, _, err := topo.PathCapacityAt("a", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	rev, _, err := topo.PathCapacityAt("b", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fwd != 1 {
		t.Errorf("a→b capacity = %v, want throttled 1", fwd)
	}
	if rev != 10 {
		t.Errorf("b→a capacity = %v, want original 10", rev)
	}
}
