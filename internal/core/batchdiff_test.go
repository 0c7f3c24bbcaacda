package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scheduler"
)

// batchDiffRun executes a storm-loaded multi-app simulation with
// observability attached, with or without the batch placement mode, and
// returns the journal JSONL and the Prometheus metric dump. moveBudget only
// applies when batch is true; a negative budget is the zero-move search the
// differential below pins against greedy.
func batchDiffRun(t *testing.T, seed int64, batch bool, moveBudget int) (journal, metrics []byte) {
	t.Helper()
	const rows, cols, apps = 6, 6, 12
	topo, err := mesh.Grid(mesh.GridOptions{Rows: rows, Cols: cols, Seed: seed, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	n := rows * cols
	nodes := make([]cluster.Node, 0, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: 2, MemoryMB: 16384})
		}
	}
	cfg := Config{
		EnableMigration: true,
		MonitorInterval: 30 * time.Second,
	}
	if batch {
		cfg.BatchPlacement = true
		cfg.Batch = scheduler.BatchConfig{MoveBudget: moveBudget}
	}
	s, err := NewSimulation(topo, nodes, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := obs.NewJournal(0)
	store := metricstore.New(0)
	s.AttachObservability(j, store)
	for i := 0; i < apps; i++ {
		cell := (i * 7) % n
		sr, sc := cell/cols, cell%cols
		name := fmt.Sprintf("chain-%04d", i)
		w := newBenchChain(name, 12, mesh.GridNodeName(sr, sc), mesh.GridNodeName((sr+2)%rows, (sc+1)%cols))
		if _, err := s.Orch.DeployAt(name, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var jb, mb bytes.Buffer
	if err := j.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if err := store.WritePrometheus(&mb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), mb.Bytes()
}

// TestBatchZeroBudgetByteIdenticalToGreedy pins the batch mode's containment
// contract: with a zero-move budget (MoveBudget < 0 at the core level) the
// batch-wrapped policy must produce byte-identical journals — including every
// sched_candidate scoreboard row — and metric dumps to the plain greedy path
// at three seeds. The new mode cannot silently
// perturb existing experiment output.
func TestBatchZeroBudgetByteIdenticalToGreedy(t *testing.T) {
	t.Run("event-driven", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			refJournal, refMetrics := batchDiffRun(t, seed, false, 0)
			if len(refJournal) == 0 {
				t.Fatalf("seed %d: greedy run produced an empty journal", seed)
			}
			gotJournal, gotMetrics := batchDiffRun(t, seed, true, -1)
			if !bytes.Equal(refJournal, gotJournal) {
				t.Errorf("seed %d: zero-budget batch journal differs from greedy", seed)
			}
			if !bytes.Equal(refMetrics, gotMetrics) {
				t.Errorf("seed %d: zero-budget batch metric dump differs from greedy", seed)
			}
		}
	})
}

// TestBatchSearchDeterministicAndVisible pins the other half of the
// contract: with a real budget the search is byte-deterministic (double-run
// identical journals and metrics) and its decisions are visible — ChoiceBatch
// scoreboards reach the journal through the recorder.
func TestBatchSearchDeterministicAndVisible(t *testing.T) {
	t.Run("event-driven", func(t *testing.T) {
		seed := int64(2)
		j1, m1 := batchDiffRun(t, seed, true, 128)
		j2, m2 := batchDiffRun(t, seed, true, 128)
		if !bytes.Equal(j1, j2) {
			t.Error("batch double-run journals differ")
		}
		if !bytes.Equal(m1, m2) {
			t.Error("batch double-run metric dumps differ")
		}
		// The final verdict explanation emits candidate rows for the
		// pseudo-component "joint" — its presence proves ChoiceBatch
		// scoreboards flow through the recorder into the journal.
		if !bytes.Contains(j1, []byte(`"joint"`)) {
			t.Error("batch journal records no ChoiceBatch verdict explanations")
		}
	})
}
