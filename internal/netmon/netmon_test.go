package netmon

import (
	"errors"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/simnet"
	"bass/internal/trace"
)

// harness builds a monitor over an a-b-c line with trace-driven capacity.
func harness(t testing.TB, mbps float64) (*sim.Engine, *simnet.Network, *Monitor, *mesh.Topology) {
	t.Helper()
	topo := mesh.Line([]string{"a", "b", "c"}, mbps, time.Millisecond, time.Hour)
	eng := sim.NewEngine(1)
	net := simnet.New(eng, topo)
	net.Start()
	m := New(topo, net.Prober(), eng.Now)
	return eng, net, m, topo
}

func TestFullProbeAllCachesCapacities(t *testing.T) {
	_, _, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	v, err := m.View(mesh.MakeLinkID("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if v.CapacityMbps != 25 {
		t.Errorf("cached capacity = %v", v.CapacityMbps)
	}
	if v.HeadroomMbps != 5 { // 20% of 25
		t.Errorf("headroom target = %v, want 5", v.HeadroomMbps)
	}
	st := m.Stats()
	if st.FullProbes != 2 {
		t.Errorf("FullProbes = %d, want one per link", st.FullProbes)
	}
	if st.OverheadMbits != 50 { // 2 links × 25 Mbps × 1 s
		t.Errorf("OverheadMbits = %v", st.OverheadMbits)
	}
}

func TestHeadroomProbeDetectsViolation(t *testing.T) {
	_, net, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	// Load the a-b link to 22 of 25 Mbps: spare 3 < wanted headroom 5.
	if _, err := net.AddStream("load", "a", "b", 22); err != nil {
		t.Fatal(err)
	}
	evs, perrs := m.HeadroomProbeAll()
	if len(perrs) != 0 {
		t.Fatal(perrs)
	}
	var ev HeadroomEvent
	for _, e := range evs {
		if e.Link == mesh.MakeLinkID("a", "b") {
			ev = e
		}
	}
	if !ev.Violated {
		t.Errorf("event = %+v, want violation (spare 3 < want 5)", ev)
	}
	if ev.SpareMbps != 3 {
		t.Errorf("spare = %v", ev.SpareMbps)
	}
}

func TestHeadroomProbeAllReportsOnlyInterestingLinks(t *testing.T) {
	_, net, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	// First round: all links report Changed (first observation).
	evs, perrs := m.HeadroomProbeAll()
	if len(perrs) != 0 {
		t.Fatalf("probe errors: %v", perrs)
	}
	if len(evs) != 2 {
		t.Fatalf("first probe events = %d, want 2 (initial observations)", len(evs))
	}
	// Second round with nothing changed: quiet.
	evs, perrs = m.HeadroomProbeAll()
	if len(perrs) != 0 {
		t.Fatalf("probe errors: %v", perrs)
	}
	if len(evs) != 0 {
		t.Errorf("steady-state events = %v", evs)
	}
	// Load one link by >25%: one change event.
	if _, err := net.AddStream("load", "b", "c", 15); err != nil {
		t.Fatal(err)
	}
	evs, perrs = m.HeadroomProbeAll()
	if len(perrs) != 0 {
		t.Fatalf("probe errors: %v", perrs)
	}
	if len(evs) != 1 || evs[0].Link != mesh.MakeLinkID("b", "c") {
		t.Errorf("events = %+v, want one for b-c", evs)
	}
}

func TestPathEstimates(t *testing.T) {
	_, net, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("load", "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	if _, perrs := m.HeadroomProbeAll(); len(perrs) != 0 {
		t.Fatal(perrs)
	}
	capMbps, networked, err := m.PathCapacityMbps("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !networked || capMbps != 25 {
		t.Errorf("path capacity = %v networked=%v", capMbps, networked)
	}
	spare, _, err := m.PathSpareMbps("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if spare != 15 {
		t.Errorf("path spare = %v, want bottleneck 15", spare)
	}
	_, networked, err = m.PathCapacityMbps("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if networked {
		t.Error("self path must be non-networked")
	}
}

func TestNodeLinkCapacity(t *testing.T) {
	_, _, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	if got := m.NodeLinkCapacityMbps("b"); got != 50 {
		t.Errorf("node b combined capacity = %v, want 50", got)
	}
	if got := m.NodeLinkCapacityMbps("a"); got != 25 {
		t.Errorf("node a combined capacity = %v, want 25", got)
	}
}

func TestUnknownLinkErrors(t *testing.T) {
	_, _, m, _ := harness(t, 25)
	ghost := mesh.MakeLinkID("x", "y")
	if err := m.FullProbe(ghost); !errors.Is(err, errUnknownLink) {
		t.Errorf("FullProbe: %v", err)
	}
	if _, err := m.View(ghost); !errors.Is(err, errUnknownLink) {
		t.Errorf("View: %v", err)
	}
}

func TestProbeOverheadMatchesPaperBudget(t *testing.T) {
	// Headroom probing at 10% of capacity for 1 s every 30 s must stay well
	// under 1% of link traffic (the paper reports ~0.3%).
	eng, _, m, _ := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	start := m.Stats().OverheadMbits
	horizon := 20 * time.Minute
	stop := eng.Every(30*time.Second, func() {
		if _, perrs := m.HeadroomProbeAll(); len(perrs) != 0 {
			t.Errorf("probe: %v", perrs)
		}
	})
	defer stop()
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	headroomOverhead := m.Stats().OverheadMbits - start
	frac := ProbeStats{OverheadMbits: headroomOverhead}.OverheadFrac(horizon, 25, 2)
	if frac <= 0 || frac > 0.01 {
		t.Errorf("headroom probing overhead = %.4f of capacity, want (0, 1%%]", frac)
	}
}

func TestViewsSorted(t *testing.T) {
	_, _, m, _ := harness(t, 25)
	views := m.Views()
	if len(views) != 2 {
		t.Fatalf("views = %d", len(views))
	}
	if views[0].ID.String() > views[1].ID.String() {
		t.Error("views not sorted")
	}
}

func TestConsecutiveFailuresAndNodeFloor(t *testing.T) {
	_, _, m, topo := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	ab, bc := mesh.MakeLinkID("a", "b"), mesh.MakeLinkID("b", "c")

	// Crash c: its only link b-c fails probes; a-b keeps succeeding.
	if err := topo.SetNodeUp("c", false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		evs, perrs := m.HeadroomProbeAll()
		if len(perrs) != 1 || perrs[0].Link != bc {
			t.Fatalf("sweep %d: probe errors = %v, want one for b-c", i, perrs)
		}
		if !errors.Is(perrs[0], simnet.ErrLinkUnreachable) {
			t.Errorf("sweep %d: error %v not ErrLinkUnreachable", i, perrs[0])
		}
		_ = evs
		for id, want := range map[mesh.LinkID]int{bc: i, ab: 0} {
			v, err := m.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.ConsecutiveFailures != want {
				t.Errorf("sweep %d: %s failures = %d, want %d", i, id, v.ConsecutiveFailures, want)
			}
		}
	}
	// b has a healthy link (a-b), so its floor stays 0; c's floor tracks the
	// streak on its only link.
	if got := m.NodeFailureFloor("b"); got != 0 {
		t.Errorf("floor(b) = %d, want 0", got)
	}
	if got := m.NodeFailureFloor("c"); got != 3 {
		t.Errorf("floor(c) = %d, want 3", got)
	}

	// Recovery: one successful sweep clears every streak.
	if err := topo.SetNodeUp("c", true); err != nil {
		t.Fatal(err)
	}
	if _, perrs := m.HeadroomProbeAll(); len(perrs) != 0 {
		t.Fatalf("post-recovery probe errors: %v", perrs)
	}
	if got := m.NodeFailureFloor("c"); got != 0 {
		t.Errorf("floor(c) after recovery = %d", got)
	}
}

func TestHeadroomProbeAllContinuesPastDeadLink(t *testing.T) {
	_, _, m, topo := harness(t, 25)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	// Down the FIRST link in iteration order; the second must still be probed.
	if err := topo.SetLinkUp("a", "b", false); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().HeadroomProbes
	_, perrs := m.HeadroomProbeAll()
	if len(perrs) != 1 {
		t.Fatalf("probe errors = %v", perrs)
	}
	if got := m.Stats().HeadroomProbes - before; got != 1 {
		t.Errorf("successful probes after dead link = %d, want 1 (b-c)", got)
	}
}

func TestFullProbeTracksTraceChanges(t *testing.T) {
	topo := mesh.NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	tr := trace.StepTrace("a-b", time.Second, time.Hour, []trace.Level{
		{From: 0, Mbps: 25},
		{From: 10 * time.Second, Mbps: 7},
	})
	topo.MustAddLink("a", "b", tr, time.Millisecond)
	eng := sim.NewEngine(1)
	net := simnet.New(eng, topo)
	net.Start()
	m := New(topo, net.Prober(), eng.Now)
	if err := m.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	id := mesh.MakeLinkID("a", "b")
	if err := m.FullProbe(id); err != nil {
		t.Fatal(err)
	}
	v, err := m.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.CapacityMbps != 7 {
		t.Errorf("re-probed capacity = %v, want 7", v.CapacityMbps)
	}
	if v.LastFullProbe != 15*time.Second {
		t.Errorf("LastFullProbe = %v", v.LastFullProbe)
	}
}
