package simnet

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// crash takes a node down and propagates the state to the network, as the
// fault injector does via core.Simulation.
func crash(t *testing.T, net *Network, node string) {
	t.Helper()
	if err := net.topo.SetNodeUp(node, false); err != nil {
		t.Fatal(err)
	}
	net.ApplyTopologyState()
}

func recover_(t *testing.T, net *Network, node string) {
	t.Helper()
	if err := net.topo.SetNodeUp(node, true); err != nil {
		t.Fatal(err)
	}
	net.ApplyTopologyState()
}

func TestNodeCrashParksStrandedStream(t *testing.T) {
	_, net := lineNet(t, 100)
	id, err := net.AddStream("s", "a", "c", 10)
	if err != nil {
		t.Fatal(err)
	}
	crash(t, net, "b") // a-b-c line: b down partitions a from c
	rate, err := net.StreamRate(id)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Errorf("stranded stream rate = %v, want 0", rate)
	}
	if net.ParkedFlows() != 1 {
		t.Errorf("ParkedFlows = %d, want 1", net.ParkedFlows())
	}
	recover_(t, net, "b")
	rate, _ = net.StreamRate(id)
	if rate != 10 {
		t.Errorf("resumed stream rate = %v, want 10", rate)
	}
	if net.ParkedFlows() != 0 {
		t.Errorf("ParkedFlows after recovery = %d", net.ParkedFlows())
	}
}

func TestNodeCrashFailsStrandedTransfer(t *testing.T) {
	eng, net := lineNet(t, 100)
	var got TransferResult
	var calls int
	_, err := net.AddTransfer("x", "a", "c", 1e9, 0, func(r TransferResult) {
		got = r
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(time.Second, func() { crash(t, net, "b") })
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	if !got.Failed {
		t.Error("transfer result not marked Failed")
	}
	if got.Finished != time.Second {
		t.Errorf("failed at %v, want 1s", got.Finished)
	}
	if net.FailedTransfers() != 1 {
		t.Errorf("FailedTransfers = %d, want 1", net.FailedTransfers())
	}
}

func TestLinkDownReroutesAroundOutage(t *testing.T) {
	// Ring a-b-c-d-a: losing a-b leaves the a-d-c-b detour.
	nodes := []string{"a", "b", "c", "d"}
	topo := mesh.NewTopology()
	for _, n := range nodes {
		topo.AddNode(n)
	}
	for i, n := range nodes {
		next := nodes[(i+1)%len(nodes)]
		id := mesh.MakeLinkID(n, next)
		topo.MustAddLink(n, next, trace.Constant(id.String(), time.Second, 100, 3600), time.Millisecond)
	}
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	id, err := net.AddStream("s", "a", "b", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetLinkUp("a", "b", false); err != nil {
		t.Fatal(err)
	}
	net.ApplyTopologyState()
	rate, _ := net.StreamRate(id)
	if rate != 10 {
		t.Errorf("rerouted stream rate = %v, want full demand 10", rate)
	}
	s, _ := net.slotOf(id)
	if hops := net.flow(s).hops; hops != 3 {
		t.Errorf("rerouted path = %d hops, want 3 hops via d,c", hops)
	}
}

func TestCrashReleasesCapacityForSurvivors(t *testing.T) {
	// Line a-b-c at 30 Mbps: two a->b streams share with the a->c stream's
	// a-b hop; stranding a->c must return its share to the survivors.
	_, net := lineNet(t, 30)
	s1, _ := net.AddStream("s1", "a", "b", 100)
	s2, _ := net.AddStream("s2", "a", "c", 100)
	r1, _ := net.StreamRate(s1)
	if math.Abs(r1-15) > 1e-6 {
		t.Fatalf("pre-crash rate = %v, want 15", r1)
	}
	crash(t, net, "c")
	r1, _ = net.StreamRate(s1)
	if math.Abs(r1-30) > 1e-6 {
		t.Errorf("survivor rate = %v, want full 30 after crash", r1)
	}
	r2, _ := net.StreamRate(s2)
	if r2 != 0 {
		t.Errorf("stranded rate = %v, want 0", r2)
	}
}

func TestProbeErrorsAreTyped(t *testing.T) {
	_, net := lineNet(t, 100)
	p := net.Prober()
	ab := mesh.MakeLinkID("a", "b")

	net.SetProbeLoss(ab, true)
	if _, err := p.ProbeCapacity(ab); !errors.Is(err, errProbeTimeout) {
		t.Errorf("lossy probe err = %v, want ErrProbeTimeout", err)
	}
	net.SetProbeLoss(ab, false)
	if _, err := p.ProbeCapacity(ab); err != nil {
		t.Errorf("cleared probe err = %v", err)
	}

	if err := net.topo.SetLinkUp("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProbeSpare(ab); !errors.Is(err, ErrLinkUnreachable) {
		t.Errorf("down-link probe err = %v, want ErrLinkUnreachable", err)
	}
	if err := net.topo.SetLinkUp("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if err := net.topo.SetNodeUp("b", false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProbeCapacity(ab); !errors.Is(err, ErrLinkUnreachable) {
		t.Errorf("down-endpoint probe err = %v, want ErrLinkUnreachable", err)
	}
}

func TestTickKeepsDownLinkAtZero(t *testing.T) {
	eng, net := lineNet(t, 100)
	id, err := net.AddStream("s", "a", "b", 10)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(500*time.Millisecond, func() { crash(t, net, "b") })
	eng.At(5*time.Second, func() {
		// Several ticks after the crash, trace sampling must not have
		// resurrected the link's capacity.
		if rate, _ := net.StreamRate(id); rate != 0 {
			t.Errorf("rate = %v after ticks over a dead link, want 0", rate)
		}
	})
	if err := eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestNewTransferToDeadNodeFailsImmediately(t *testing.T) {
	_, net := lineNet(t, 100)
	crash(t, net, "c")
	if _, err := net.AddTransfer("x", "a", "c", 1e6, 0, nil); !errors.Is(err, mesh.ErrNodeDown) {
		t.Errorf("AddTransfer to dead node err = %v, want ErrNodeDown", err)
	}
}

// TestLinkAddedAfterNewIsAnError pins that a routed hop over a link the
// network has no state for — one added to the topology after New — fails the
// route instead of yielding a shorter path, for flows and for every path read,
// and that no failure is memoized.
func TestLinkAddedAfterNewIsAnError(t *testing.T) {
	topo := mesh.Line([]string{"a", "b", "c"}, 100, time.Millisecond, time.Hour)
	net := New(sim.NewEngine(1), topo)
	defer net.Start()()
	if _, err := net.PathLatencyOf("a", "c"); err != nil {
		t.Fatal(err) // warm the memo on the two-hop route
	}
	if err := topo.AddLink("a", "c", trace.Constant("ac", time.Second, 100, 3600), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "a->c") {
			t.Errorf("%s over the unknown link: error %v, want one naming a->c", what, err)
		}
	}
	for range 2 {
		_, err := net.AddStream("s", "a", "c", 1)
		check("AddStream", err)
		_, err = net.PathAllocatedMbps("a", "c", 10)
		check("PathAllocatedMbps", err)
		_, err = net.PathQueueDelay("a", "c")
		check("PathQueueDelay", err)
		_, err = net.PathLatencyOf("a", "c")
		check("PathLatencyOf", err)
	}
	if got, err := net.PathAllocatedMbps("a", "b", 10); err != nil || got != 10 {
		t.Errorf("PathAllocatedMbps(a, b) = %v, %v; want 10 over the known link", got, err)
	}
	// A node added later takes the next id without an epoch bump: its reads
	// grow the memo's rows, and its missing route is an error every time.
	topo.AddNode("d")
	for range 2 {
		if _, err := net.PathAllocatedMbps("a", "d", 10); !errors.Is(err, mesh.ErrNoPath) {
			t.Errorf("PathAllocatedMbps(a, d) to an unlinked node: error %v, want ErrNoPath", err)
		}
		if lat, err := net.PathLatencyOf("d", "d"); err != nil || lat != 0 {
			t.Errorf("PathLatencyOf(d, d) = %v, %v; want 0, nil", lat, err)
		}
	}
}
