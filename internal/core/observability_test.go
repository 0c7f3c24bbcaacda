package core

import (
	"bytes"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/metricstore"
	"bass/internal/obs"
)

// obsCrashRun executes the node-crash scenario with observability attached
// and returns the journal bytes and the metric store.
func obsCrashRun(t *testing.T) ([]byte, *metricstore.Store) {
	t.Helper()
	nodes := fourNodes()
	nodes[0].CPU = 3
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	store := metricstore.New(0)
	s.AttachObservability(journal, store)
	w := newPairWorkload("pair", 8, "n1", 2)
	assignment, err := s.Orch.DeployAt("pair", w, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 60, Type: faults.NodeCrash, Node: assignment["dst"]},
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
	return buf.Bytes(), store
}

// TestObservabilityJournalsFailureHandling drives a crash through the regular
// monitoring path and checks the journal tells the whole story: failing
// probes, the down verdict, cordon, evacuation, and the failover, plus the
// metric series the same components emitted.
func TestObservabilityJournalsFailureHandling(t *testing.T) {
	raw, store := obsCrashRun(t)
	journal := string(raw)
	for _, want := range []obs.EventType{
		obs.EventProbeHeadroom, obs.EventProbeError, obs.EventNodeDown,
		obs.EventCordon, obs.EventEvacuate, obs.EventFailover,
	} {
		if !bytes.Contains(raw, []byte(`"type":"`+string(want)+`"`)) {
			t.Errorf("journal missing %q events:\n%s", want, journal)
		}
	}
	for _, metric := range []string{obs.MetricLinkHeadroom, obs.MetricDepGoodput, obs.MetricFailoverMTTR} {
		if _, ok := store.Latest(metric, nil); !ok {
			t.Errorf("store missing %s samples; metrics: %v", metric, store.Metrics())
		}
	}
}

// TestObservabilityJournalIsDeterministic pins the plane's headline
// guarantee: the same seed yields a byte-identical JSONL journal.
func TestObservabilityJournalIsDeterministic(t *testing.T) {
	run1, store1 := obsCrashRun(t)
	run2, store2 := obsCrashRun(t)
	if !bytes.Equal(run1, run2) {
		t.Errorf("same-seed journals differ:\n--- 1 ---\n%s--- 2 ---\n%s", run1, run2)
	}
	var dump1, dump2 bytes.Buffer
	if err := store1.WritePrometheus(&dump1); err != nil {
		t.Fatal(err)
	}
	if err := store2.WritePrometheus(&dump2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump1.Bytes(), dump2.Bytes()) {
		t.Errorf("same-seed metric dumps differ:\n--- 1 ---\n%s--- 2 ---\n%s",
			dump1.String(), dump2.String())
	}
}

// TestObservabilityForcedMigrationJournaled checks scripted migrations are
// journaled with a reason and bump migrations_total.
func TestObservabilityForcedMigrationJournaled(t *testing.T) {
	s := chaosSim(t, fourNodes(), Config{})
	defer s.Close()
	journal := obs.NewJournal(0)
	store := metricstore.New(0)
	s.AttachObservability(journal, store)
	if got := s.Orch.Observability(); got == nil || got.Journal() != journal {
		t.Fatal("Observability() does not expose the attached plane")
	}
	w := newPairWorkload("pair", 4, "n1", 1)
	if _, err := s.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	target := "n3"
	if got := s.Cluster.NodeOf("pair", "dst"); got == target {
		target = "n4"
	}
	if err := s.Orch.ForceMigrate("pair", "dst", target); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range journal.Events() {
		if ev.Type == obs.EventMigration && ev.Component == "dst" && ev.To == target && ev.Reason != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no migration event for dst->%s in journal: %+v", target, journal.Events())
	}
	if sample, ok := store.Latest(obs.MetricMigrations, nil); !ok || sample.Value != 1 {
		t.Errorf("migrations_total = %+v ok=%v, want 1", sample, ok)
	}
}

// TestUnattachedOrchestratorRecordsNothing checks the default path stays
// dark: no plane, no panic, no events.
func TestUnattachedOrchestratorRecordsNothing(t *testing.T) {
	nodes := []cluster.Node{
		{Name: "n1", CPU: 4, MemoryMB: 4096},
		{Name: "n2", CPU: 4, MemoryMB: 4096},
	}
	s := chaosSim(t, nodes, Config{})
	defer s.Close()
	if s.Orch.Observability() != nil {
		t.Fatal("fresh orchestrator has a plane attached")
	}
	w := newPairWorkload("pair", 4, "n1", 1)
	if _, err := s.Orch.DeployAt("pair", w, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
}
