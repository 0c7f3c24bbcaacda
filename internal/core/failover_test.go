package core

import (
	"reflect"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/controller"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/obs"
)

// chaosSim builds a full-mesh simulation with failure detection armed: the
// controller loop runs every interval and declares a node down after
// threshold consecutive failed sweeps of all its links.
func chaosSim(t *testing.T, nodes []cluster.Node, cfg Config) *Simulation {
	t.Helper()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	topo := mesh.FullMesh(names, 25, time.Millisecond, time.Hour)
	cfg.EnableMigration = true
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 30 * time.Second
	}
	if cfg.MigrationDowntime == 0 {
		cfg.MigrationDowntime = 2 * time.Second
	}
	s, err := NewSimulation(topo, nodes, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fourNodes() []cluster.Node {
	return []cluster.Node{
		{Name: "n1", CPU: 4, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
		{Name: "n3", CPU: 4, MemoryMB: 4096},
		{Name: "n4", CPU: 4, MemoryMB: 4096},
	}
}

// TestNodeCrashDetectedAndFailedOver is the PR's acceptance scenario: a node
// crash mid-run is detected within K monitoring intervals, every component on
// the dead node is re-placed on a survivor, the workload's traffic resumes,
// and recovery metrics cover the episode.
func TestNodeCrashDetectedAndFailedOver(t *testing.T) {
	// n1 (CPU 3) can hold the pinned src (CPU 2) but not both components, so
	// dst lands cross-node.
	nodes := fourNodes()
	nodes[0].CPU = 3
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	w := newPairWorkload("pair", 8, "n1", 2)
	assignment, err := s.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := assignment["dst"]
	srcNode := assignment["src"]
	if victim == srcNode {
		t.Fatalf("pair co-located on %q; scenario needs a cross-node pair", victim)
	}

	const crashAt = 60 * time.Second
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: crashAt.Seconds(), Type: faults.NodeCrash, Node: victim},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	report := s.Orch.RecoveryReport()
	if len(report.Detections) != 1 || report.Detections[0].Node != victim {
		t.Fatalf("detections = %+v, want one for %q", report.Detections, victim)
	}
	det := report.Detections[0]
	// K=3 failed sweeps after the crash, plus one interval of slack for sweep
	// phase alignment.
	interval := s.Orch.cfg.MonitorInterval
	if maxDetect := crashAt + (controller.FailureThreshold+1)*interval; det.DetectedAt > maxDetect {
		t.Errorf("detected at %v, want within %v", det.DetectedAt, maxDetect)
	}
	if det.DetectedAt <= crashAt {
		t.Errorf("detected at %v, before the crash at %v", det.DetectedAt, crashAt)
	}

	if len(report.Failovers) != 1 {
		t.Fatalf("failovers = %+v, want exactly one (dst)", report.Failovers)
	}
	fo := report.Failovers[0]
	if fo.Component != "dst" || fo.From != victim || fo.To == victim {
		t.Errorf("failover = %+v", fo)
	}
	if got := s.Cluster.NodeOf("pair", "dst"); got == victim || got == "" {
		t.Errorf("dst now on %q", got)
	}
	// The untouched component never moved.
	if got := s.Cluster.NodeOf("pair", "src"); got != srcNode {
		t.Errorf("src moved to %q during dst's failover", got)
	}
	if report.MTTRMean <= 0 || report.MTTRMax < report.MTTRMean {
		t.Errorf("MTTR mean=%v max=%v", report.MTTRMean, report.MTTRMax)
	}
	if report.QueuedNow != 0 {
		t.Errorf("QueuedNow = %d", report.QueuedNow)
	}

	// Traffic resumed at full demand on the new placement.
	if !w.attached {
		t.Fatal("workload stream not re-attached after failover")
	}
	rate, err := s.Net.StreamRate(w.stream)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8 {
		t.Errorf("post-failover stream rate = %v, want 8", rate)
	}
}

// TestFailoverQueuesUntilCapacityReturns exhausts the five placement retries
// (no surviving node fits the component) and checks the component waits in
// the recovery queue, then lands as soon as the crashed node returns.
func TestFailoverQueuesUntilCapacityReturns(t *testing.T) {
	nodes := []cluster.Node{
		{Name: "n1", CPU: 4, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
		{Name: "n3", CPU: 1, MemoryMB: 512}, // too small for a CPU-4 component
	}
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, nil)
	w := newPairWorkload("pair", 8, "", 4) // CPU 4: exactly one per big node
	assignment, err := s.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := assignment["dst"]

	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: victim},
		{AtSec: 360, Type: faults.NodeRecover, Node: victim},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}

	// Mid-outage: retries exhausted, component parked in the queue.
	s.Eng.At(300*time.Second, func() {
		if q := s.Orch.QueuedFailovers(); len(q) != 1 || q[0] != "pair/dst" {
			t.Errorf("at 300s queue = %v, want [pair/dst]", q)
		}
		if s.Cluster.NodeOf("pair", "dst") != "" {
			t.Error("dst placed mid-outage despite nowhere to fit")
		}
	})
	if err := s.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}

	report := s.Orch.RecoveryReport()
	if report.QueuedNow != 0 {
		t.Fatalf("still queued at end: %v", s.Orch.QueuedFailovers())
	}
	if len(report.Failovers) != 1 {
		t.Fatalf("failovers = %+v", report.Failovers)
	}
	fo := report.Failovers[0]
	if !fo.FromQueue {
		t.Errorf("failover %+v should have come from the queue", fo)
	}
	// The retry schedule: five attempts, the four gaps between them backing
	// off 5+10+20+40 s, each jittered ±20 %, before the component parks.
	var queued []obs.Event
	for _, ev := range journal.Events() {
		if ev.Type == obs.EventFailoverQueued {
			queued = append(queued, ev)
		}
	}
	if len(queued) != 1 || queued[0].Value != failoverMaxRetries {
		t.Fatalf("failover_queued events = %+v, want one after %d attempts", queued, failoverMaxRetries)
	}
	const schedule = 75 * time.Second
	if wait := queued[0].At - report.Detections[0].DetectedAt; wait < schedule*8/10 || wait > schedule*12/10 {
		t.Errorf("parked %v after detection, want %v ±20%%", wait, schedule)
	}
	if fo.To != victim {
		t.Errorf("dst re-placed on %q, want the recovered %q (only node that fits)", fo.To, victim)
	}
	if got := s.Cluster.NodeOf("pair", "dst"); got != victim {
		t.Errorf("dst on %q at end", got)
	}
}

// TestNodeDownEvacuatesEveryComponentOfAnApp pins handleNodeDown's walk over
// one app's components on the dead node: every one of them is evacuated,
// although each removal changes the cluster's per-app bookkeeping mid-walk.
func TestNodeDownEvacuatesEveryComponentOfAnApp(t *testing.T) {
	s := chaosSim(t, fourNodes(), Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, nil)
	w := newBenchChain("tri", 1, "n2", "n2")
	if _, err := s.Orch.DeployAt("tri", w, nil); err != nil {
		t.Fatal(err)
	}
	for _, comp := range w.comps {
		if s.Cluster.NodeOf("tri", comp) != "n2" {
			if err := s.Cluster.Move("tri", comp, "n2"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Cluster.ComponentsOn("tri", "n2"); len(got) != 3 {
		t.Fatalf("components on n2 = %v, want all three", got)
	}

	s.Orch.handleNodeDown("n2", 0)

	if got := s.Cluster.ComponentsOn("tri", "n2"); len(got) != 0 {
		t.Fatalf("components left on the dead node: %v", got)
	}
	if det := s.Orch.Detections(); len(det) != 1 || det[0].Components != 3 {
		t.Fatalf("detections = %+v, want one stranding 3 components", det)
	}
	var evacuated []string
	for _, ev := range journal.Events() {
		if ev.Type == obs.EventEvacuate && ev.Node == "n2" {
			evacuated = append(evacuated, ev.Component)
		}
	}
	want := []string{"dst-tri", "mid-tri", "src-tri"}
	if !reflect.DeepEqual(evacuated, want) {
		t.Fatalf("evacuations = %v, want %v (sorted)", evacuated, want)
	}
}

// chaosRun executes one full generated-chaos run and returns its observable
// outcome.
func chaosRun(t *testing.T) (RecoveryReport, []MigrationEvent, []cluster.Placement, int) {
	t.Helper()
	s := chaosSim(t, fourNodes(), Config{})
	defer s.Close()
	w := newPairWorkload("pair", 8, "", 2)
	if _, err := s.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	sched := faults.Generate(s.Topo, faults.GeneratorConfig{
		Seed:               42,
		Horizon:            20 * time.Minute,
		NodeCrashesPerHour: 4,
		MeanNodeDowntime:   3 * time.Minute,
		LinkFlapsPerHour:   4,
	})
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(25 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return s.Orch.RecoveryReport(), s.Orch.Migrations(), s.Cluster.Placements(), s.Net.FailedTransfers()
}

// TestChaosRunsAreDeterministic re-runs an identical generated fault storm
// and requires identical recovery reports, migration logs, and final
// placements — PR 1's determinism contract extended to failure handling.
func TestChaosRunsAreDeterministic(t *testing.T) {
	r1, m1, p1, f1 := chaosRun(t)
	r2, m2, p2, f2 := chaosRun(t)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("recovery reports differ:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("migration logs differ:\n%+v\n%+v", m1, m2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("final placements differ:\n%+v\n%+v", p1, p2)
	}
	if f1 != f2 {
		t.Errorf("failed transfers differ: %d vs %d", f1, f2)
	}
}
