package simnet

import (
	"math"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// egressTopo builds a-b where a's egress is throttled to 5 Mbps while b's
// stays at 100 Mbps — the tc-style asymmetric shaping of §6.2.3.
func egressTopo(t testing.TB) (*sim.Engine, *Network) {
	t.Helper()
	topo := mesh.Line([]string{"a", "b"}, 100, time.Millisecond, time.Hour)
	if err := topo.SetDirectedCapacity("a", "b", trace.Constant("a->b", time.Second, 5, 3600)); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	return eng, net
}

func TestDirectedCapacityIndependentDirections(t *testing.T) {
	_, net := egressTopo(t)
	up, err := net.AddStream("up", "a", "b", 50)
	if err != nil {
		t.Fatal(err)
	}
	down, err := net.AddStream("down", "b", "a", 50)
	if err != nil {
		t.Fatal(err)
	}
	rUp, _ := net.StreamRate(up)
	rDown, _ := net.StreamRate(down)
	if math.Abs(rUp-5) > 1e-6 {
		t.Errorf("throttled direction rate = %v, want 5", rUp)
	}
	if math.Abs(rDown-50) > 1e-6 {
		t.Errorf("unthrottled direction rate = %v, want full 50", rDown)
	}
}

func TestThrottleEgressShapesAllOutgoingLinks(t *testing.T) {
	topo := mesh.FullMesh([]string{"a", "b", "c"}, 100, time.Millisecond, time.Hour)
	if err := topo.ThrottleEgress("a", trace.Constant("tc", time.Second, 3, 3600)); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	_ = eng

	ab, err := net.AddStream("ab", "a", "b", 50)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := net.AddStream("ac", "a", "c", 50)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := net.AddStream("ba", "b", "a", 50)
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]FlowID{"a->b": ab, "a->c": ac} {
		r, _ := net.StreamRate(id)
		if math.Abs(r-3) > 1e-6 {
			t.Errorf("%s rate = %v, want throttled 3", name, r)
		}
	}
	r, _ := net.StreamRate(ba)
	if math.Abs(r-50) > 1e-6 {
		t.Errorf("b->a rate = %v, want unthrottled 50", r)
	}
}

func TestDirectedBacklogOnlyOnCongestedDirection(t *testing.T) {
	eng, net := egressTopo(t)
	if _, err := net.AddStream("up", "a", "b", 20); err != nil { // 4x overload
		t.Fatal(err)
	}
	if _, err := net.AddStream("down", "b", "a", 20); err != nil { // fits in 100
		t.Fatal(err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	qUp, err := net.QueueDelay("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	qDown, err := net.QueueDelay("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if qUp <= 0 {
		t.Error("no backlog on the overloaded direction")
	}
	if qDown != 0 {
		t.Errorf("backlog %v on the uncongested direction", qDown)
	}
}

func TestProberReportsBottleneckDirection(t *testing.T) {
	_, net := egressTopo(t)
	capMbps, err := net.Prober().ProbeCapacity(mesh.MakeLinkID("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if capMbps != 5 {
		t.Errorf("probe = %v, want the 5 Mbps bottleneck direction", capMbps)
	}
}

func TestSetDirectedCapacityErrors(t *testing.T) {
	topo := mesh.Line([]string{"a", "b"}, 10, time.Millisecond, time.Minute)
	if err := topo.SetDirectedCapacity("a", "ghost", nil); err == nil {
		t.Error("missing link: want error")
	}
	if err := topo.ThrottleEgress("ghost", nil); err == nil {
		t.Error("unknown node: want error")
	}
	l, ok := topo.Link("a", "b")
	if !ok {
		t.Fatal("missing link")
	}
	if _, err := l.CapacityToward("a", "ghost"); err == nil {
		t.Error("bad direction: want error")
	}
	if err := l.SetCapacityToward("ghost", "a", nil); err == nil {
		t.Error("bad direction: want error")
	}
}
