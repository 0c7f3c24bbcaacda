package core

import (
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/mesh"
)

// TestNodeRecoversMidEvacuationNoDoublePlace pins the recovery-queue edge
// case where the dead node itself comes back while its evacuated component is
// still working through backoff retries: dst fits nowhere else, so every
// retry fails until the victim's own capacity returns and one retry lands it
// back home. The component must be placed exactly once — a queue drain racing
// a still-armed backoff retry must not double-place it or leak a pending
// record in the recovery queue.
func TestNodeRecoversMidEvacuationNoDoublePlace(t *testing.T) {
	// n1 holds the pinned src (CPU 2 of 3); only n2 can take dst (CPU 2),
	// n3/n4 are too small, so dst is stranded until n2 recovers.
	nodes := []cluster.Node{
		{Name: "n1", CPU: 3, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
		{Name: "n3", CPU: 1, MemoryMB: 4096},
		{Name: "n4", CPU: 1, MemoryMB: 4096},
	}
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	w := newPairWorkload("pair", 8, "n1", 2)
	assignment, err := s.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if assignment["dst"] != "n2" {
		t.Fatalf("dst placed on %q, want n2", assignment["dst"])
	}

	// Crash at 60s → verdict at ~150s (3 failed sweeps), evacuation and
	// backoff retries start. Recovery at 160s is observed by the 180s sweep,
	// while retries are still mid-flight (the last budgeted attempt lands
	// between ~178s and ~217s depending on jitter).
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: "n2"},
		{AtSec: 160, Type: faults.NodeRecover, Node: "n2"},
	}}
	if err := sched.ValidateWindows(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	rep := s.Orch.RecoveryReport()
	if len(rep.Detections) != 1 {
		t.Fatalf("detections = %v, want exactly one", rep.Detections)
	}
	if len(rep.Failovers) != 1 {
		t.Fatalf("failovers = %v, want exactly one placement of dst", rep.Failovers)
	}
	if got := rep.Failovers[0]; got.Component != "dst" || got.To != "n2" {
		t.Fatalf("failover = %+v, want dst re-placed on the recovered n2", got)
	}
	if rep.QueuedNow != 0 {
		t.Fatalf("recovery queue holds %d leaked entries: %v",
			rep.QueuedNow, s.Orch.QueuedFailovers())
	}
	// Exactly one placement record for dst — a double-place would show up as
	// a duplicate here (and as over-counted CPU on n2).
	var dstPlacements int
	for _, p := range s.Cluster.Placements() {
		if p.App == "pair" && p.Component == "dst" {
			dstPlacements++
		}
	}
	if dstPlacements != 1 {
		t.Fatalf("dst has %d placements, want exactly 1", dstPlacements)
	}
	if !w.attached {
		t.Fatal("workload stream never re-attached after the failover")
	}
	if parked := s.Net.ParkedFlows(); parked != 0 {
		t.Fatalf("%d parked flows leaked past recovery", parked)
	}
	rate, err := s.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 7.9 {
		t.Fatalf("stream rate %.2f Mbps after recovery, want ~8", rate)
	}
}

// TestLinkFlapShorterThanProbeIntervalLeaksNothing pins the second edge case:
// a link outage that opens and closes entirely between two probe sweeps. The
// control plane must never see it (no detections, no failovers), and the
// data plane must fully recover — the flow parks during the outage and
// resumes at the flap's end rather than leaking as permanently parked.
func TestLinkFlapShorterThanProbeIntervalLeaksNothing(t *testing.T) {
	// Two nodes, one link: when it goes down there is no alternate route, so
	// the stream genuinely parks instead of rerouting.
	topo := mesh.FullMesh([]string{"n1", "n2"}, 25, time.Millisecond, time.Hour)
	nodes := []cluster.Node{
		{Name: "n1", CPU: 3, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
	}
	cfg := Config{
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 2 * time.Second,
	}
	s, err := NewSimulation(topo, nodes, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newPairWorkload("pair", 8, "n1", 2)
	if _, err := s.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}

	// Sweeps land at 60s and 90s; the flap lives entirely inside (65s, 75s).
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 65, Type: faults.LinkDown, LinkA: "n1", LinkB: "n2"},
		{AtSec: 75, Type: faults.LinkUp, LinkA: "n1", LinkB: "n2"},
	}}
	if err := sched.ValidateWindows(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}

	// Mid-flap the stream must actually be parked — otherwise the scenario
	// is not exercising the stranded-flow path at all.
	s.Eng.At(70*time.Second, func() {
		if parked := s.Net.ParkedFlows(); parked != 1 {
			t.Errorf("at t=70s: %d parked flows, want 1 (flap should strand the stream)", parked)
		}
	})
	if err := s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	rep := s.Orch.RecoveryReport()
	if len(rep.Detections) != 0 {
		t.Fatalf("sub-probe-interval flap produced detections: %v", rep.Detections)
	}
	if len(rep.Failovers) != 0 || rep.QueuedNow != 0 {
		t.Fatalf("flap triggered recovery machinery: %d failovers, %d queued",
			len(rep.Failovers), rep.QueuedNow)
	}
	if migs := s.Orch.Migrations(); len(migs) != 0 {
		t.Fatalf("flap triggered migrations: %v", migs)
	}
	if parked := s.Net.ParkedFlows(); parked != 0 {
		t.Fatalf("%d parked flows leaked past the flap", parked)
	}
	rate, err := s.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 7.9 {
		t.Fatalf("stream rate %.2f Mbps after flap, want ~8", rate)
	}
}
