package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/reconcile"
)

// TestReconcileConvergesAfterCrash pins the reconciler's convergence
// invariant: a crash turns into drift, the drift into bounded
// actions, and observed placement equals desired placement within a few
// epochs of the last fault — without restarting anything.
func TestReconcileConvergesAfterCrash(t *testing.T) {
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
	if victim == assignment["src"] {
		t.Fatalf("pair co-located on %q; scenario needs a cross-node pair", victim)
	}

	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: victim},
		{AtSec: 240, Type: faults.NodeRecover, Node: victim},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}

	rec := s.Orch.Reconciler()
	if rec == nil {
		t.Fatal("EnableMigration did not attach a reconciler")
	}
	// Bounded convergence: the verdict lands at ~150s and survivors have
	// capacity, so well before the recovery at 240s the drift must be gone.
	s.Eng.At(230*time.Second, func() {
		if !rec.Converged() {
			t.Errorf("at t=230s: %d drifts outstanding, want converged before the node even recovers",
				rec.OutstandingDrift())
		}
	})
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if !rec.Converged() || rec.OutstandingDrift() != 0 {
		t.Fatalf("not converged at end: %d drifts outstanding", rec.OutstandingDrift())
	}
	if len(rec.Converges()) < 1 {
		t.Fatal("no converge episode recorded")
	}
	if rec.DriftsSeen() < 1 || rec.ActionsTotal() < 1 {
		t.Fatalf("drift/action counters empty: drifts=%d actions=%d",
			rec.DriftsSeen(), rec.ActionsTotal())
	}
	// Desired == observed: both components placed on healthy, uncordoned
	// nodes; the dead-node episode produced exactly one failover record.
	for _, comp := range []string{"src", "dst"} {
		node := s.Cluster.NodeOf("pair", comp)
		if node == "" {
			t.Fatalf("%s unplaced at end", comp)
		}
	}
	rep := s.Orch.RecoveryReport()
	if len(rep.Failovers) != 1 || rep.Failovers[0].Component != "dst" {
		t.Fatalf("failovers = %v, want exactly one for dst", rep.Failovers)
	}
	if rep.QueuedNow != 0 {
		t.Fatalf("QueuedNow = %d at end, want no open drift", rep.QueuedNow)
	}
	if !w.attached {
		t.Fatal("workload stream never re-attached")
	}
}

// TestReconcileParksThenConvergesWhenCapacityReturns drives the degraded-mode
// ladder to its last rung: dst fits only on the victim, so migrate, re-route,
// and shed all fail, the drift parks, and parked retries keep probing until
// the victim recovers — then the reconciler converges without any restart.
func TestReconcileParksThenConvergesWhenCapacityReturns(t *testing.T) {
	nodes := []cluster.Node{
		{Name: "n1", CPU: 3, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
		{Name: "n3", CPU: 1, MemoryMB: 4096},
		{Name: "n4", CPU: 1, MemoryMB: 4096},
	}
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	w := newPairWorkload("pair", 8, "n1", 2)
	if _, err := s.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}

	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: "n2"},
		{AtSec: 900, Type: faults.NodeRecover, Node: "n2"},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}

	rec := s.Orch.Reconciler()
	// Deep in the outage the drift must still be tracked — parked, not
	// dropped — with the ladder fully escalated.
	s.Eng.At(800*time.Second, func() {
		if rec.OutstandingDrift() != 1 {
			t.Errorf("at t=800s: %d drifts outstanding, want the parked dst", rec.OutstandingDrift())
		}
		if got := rec.DegradedMode(); got != reconcile.RungPark {
			t.Errorf("at t=800s: degraded mode %v, want park", got)
		}
	})
	if err := s.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if !rec.Converged() {
		t.Fatalf("not converged after capacity returned: %d outstanding", rec.OutstandingDrift())
	}
	if got := rec.DegradedMode(); got != reconcile.RungMigrate {
		t.Fatalf("degraded mode %v at end, want back to normal", got)
	}
	if node := s.Cluster.NodeOf("pair", "dst"); node != "n2" {
		t.Fatalf("dst on %q at end, want re-placed on the recovered n2", node)
	}
	if parked := s.Net.ParkedFlows(); parked != 0 {
		t.Fatalf("%d parked flows leaked", parked)
	}
}

// reconcileCrashRun executes the reconcile-mode crash scenario with a journal
// attached and returns the journal bytes.
func reconcileCrashRun(t *testing.T) []byte {
	t.Helper()
	nodes := fourNodes()
	nodes[0].CPU = 3
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	topo := mesh.FullMesh(names, 25, time.Millisecond, time.Hour)
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
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, metricstore.New(0))
	w := newPairWorkload("pair", 8, "n1", 2)
	assignment, err := s.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: assignment["dst"]},
		{AtSec: 240, Type: faults.NodeRecover, Node: assignment["dst"]},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := journal.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenReconcileJournal is the SHA-256 of reconcileCrashRun's journal.
const goldenReconcileJournal = "9fca8d80708f481633f5c31a184940bd3afc68f8c0736d4b3a6b6ba2b0d58f35"

// TestReconcileJournalGolden extends the determinism contract to the
// reconciler: at equal seeds the full decision journal — drift, actions,
// convergence, gauges — is byte-identical run to run, and equal to its
// golden.
func TestReconcileJournalGolden(t *testing.T) {
	first := reconcileCrashRun(t)
	if second := reconcileCrashRun(t); !bytes.Equal(first, second) {
		t.Fatalf("reconcile journals differ at equal seeds: %d vs %d bytes", len(first), len(second))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(first)); got != goldenReconcileJournal {
		t.Errorf("reconcile journal digest %s, want golden %s", got, goldenReconcileJournal)
	}
	if !bytes.Contains(first, []byte(obs.EventReconcileDrift)) ||
		!bytes.Contains(first, []byte(obs.EventReconcileConverged)) {
		t.Fatal("journal missing reconcile drift/converged events")
	}
}

// TestSelfDetectedDeadNodeDriftCitesVerdict covers the reconciler's own scan
// finding a component on a dead node (reconcileHost.NodeDownCause). No
// placement path lands on a cordoned node, so the test plants one after the
// crash has converged: dst moved back onto the dead, cordoned victim with no
// drift open, as a placement the cordon did not stop would leave it. The
// next tick's drift must cite the node-down verdict, whose chain ends at the
// failed probes, and the reconciler must move dst off the node again.
func TestSelfDetectedDeadNodeDriftCitesVerdict(t *testing.T) {
	nodes := fourNodes()
	nodes[0].CPU = 3
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, nil)
	assignment, err := s.Orch.DeployAt("pair", newPairWorkload("pair", 8, "n1", 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := assignment["dst"]
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: victim},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	rec := s.Orch.Reconciler()
	if !rec.Converged() || s.Cluster.NodeOf("pair", "dst") == victim {
		t.Fatalf("crash not converged before the plant: dst on %q", s.Cluster.NodeOf("pair", "dst"))
	}

	o := s.Orch
	if err := s.Cluster.Uncordon(victim); err != nil {
		t.Fatal(err)
	}
	if err := o.move("pair", "dst", victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Cluster.Cordon(victim); err != nil {
		t.Fatal(err)
	}
	o.view.built = false
	before := len(journal.Events())
	rec.Tick()

	events := journal.Events()
	var drift *obs.Event
	for i := before; i < len(events); i++ {
		if ev := &events[i]; ev.Type == obs.EventReconcileDrift && ev.Component == "dst" {
			drift = ev
			break
		}
	}
	if drift == nil {
		t.Fatal("the tick opened no drift for dst on the dead node")
	}
	if drift.Reason != string(reconcile.DriftDeadNode) || drift.Node != victim {
		t.Fatalf("drift = %+v, want %s on %s", *drift, reconcile.DriftDeadNode, victim)
	}
	chain := obs.CauseChain(events, drift.Span)
	if len(chain) < 3 || chain[1].Type != obs.EventNodeDown || chain[1].Node != victim {
		t.Fatalf("drift cause chain %v, want the node_down verdict for %s next", chainTypes(chain), victim)
	}
	if root := chain[len(chain)-1]; !root.IsProbeSample() {
		t.Errorf("chain %v roots at %s, want a probe sample", chainTypes(chain), root.Type)
	}
	if _, err := obs.CheckCauses(events); err != nil {
		t.Error(err)
	}
	if err := s.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if node := s.Cluster.NodeOf("pair", "dst"); node == victim || node == "" || !rec.Converged() {
		t.Fatalf("dst on %q at end (converged %v), want moved off the dead %s", node, rec.Converged(), victim)
	}
}

// TestUnexpectedPlacementEvicted covers reconcileHost.Evict: a placement no
// spec asks for is drift whose convergence is eviction. The eviction journals
// an evacuate citing the drift, and clears the placement from the cluster's
// per-app index and from its node's usage.
func TestUnexpectedPlacementEvicted(t *testing.T) {
	s := chaosSim(t, fourNodes(), Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, nil)
	if _, err := s.Orch.DeployAt("pair", newPairWorkload("pair", 8, "n1", 1), nil); err != nil {
		t.Fatal(err)
	}
	node := "n4"
	if s.Cluster.NodeOf("pair", "dst") == node {
		node = "n3"
	}
	free := s.Cluster.FreeCPU(node)
	if err := s.Orch.place(cluster.Placement{App: "pair", Component: "ghost", Node: node, CPU: 1, MemoryMB: 64}); err != nil {
		t.Fatal(err)
	}
	s.Orch.Reconciler().Tick()

	if got := s.Cluster.NodeOf("pair", "ghost"); got != "" {
		t.Errorf("ghost still placed on %q", got)
	}
	if got := s.Cluster.AppComponents("pair"); !slices.Equal(got, []string{"dst", "src"}) {
		t.Errorf("pair's components = %v, want [dst src]", got)
	}
	if got := s.Cluster.FreeCPU(node); got != free {
		t.Errorf("%s free CPU %v after the eviction, want %v", node, got, free)
	}
	var driftSpan uint64
	evacuated, evicted := false, false
	for _, ev := range journal.Events() {
		if ev.Component != "ghost" {
			continue
		}
		switch ev.Type {
		case obs.EventReconcileDrift:
			if ev.Reason != "unexpected" || ev.Node != node {
				t.Errorf("drift %+v, want unexpected on %s", ev, node)
			}
			driftSpan = ev.Span
		case obs.EventEvacuate:
			evacuated = driftSpan != 0 && ev.Cause == driftSpan
		case obs.EventReconcileAction:
			evicted = driftSpan != 0 && ev.Cause == driftSpan
		}
	}
	if !evacuated || !evicted {
		t.Fatalf("journal: evacuate citing the drift %v, eviction action %v; want both", evacuated, evicted)
	}
	if !s.Orch.Reconciler().Converged() {
		t.Error("not converged after the eviction")
	}
}

func chainTypes(chain []obs.Event) []obs.EventType {
	types := make([]obs.EventType, len(chain))
	for i, ev := range chain {
		types[i] = ev.Type
	}
	return types
}
