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
// observability attached under cfg's policy and batch placement mode, and
// returns the journal JSONL and the Prometheus metric dump.
func batchDiffRun(t *testing.T, seed int64, cfg Config) (journal, metrics []byte) {
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
	cfg.EnableMigration = true
	cfg.MonitorInterval = 30 * time.Second
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
// contract: with a zero-move budget (MoveBudget < 0) the batch-wrapped
// policy must produce byte-identical journals — including every
// sched_candidate scoreboard row — and metric dumps to the plain greedy path
// at three seeds. The new mode cannot silently
// perturb existing experiment output.
func TestBatchZeroBudgetByteIdenticalToGreedy(t *testing.T) {
	t.Run("event-driven", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			refJournal, refMetrics := batchDiffRun(t, seed, Config{})
			if len(refJournal) == 0 {
				t.Fatalf("seed %d: greedy run produced an empty journal", seed)
			}
			zero := scheduler.NewBatch(scheduler.NewBass(scheduler.HeuristicLongestPath), scheduler.BatchConfig{MoveBudget: -1})
			gotJournal, gotMetrics := batchDiffRun(t, seed, Config{Policy: zero})
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
// contract: with BatchPlacement's budget the search is byte-deterministic
// (double-run identical journals and metrics) and its decisions are visible
// — ChoiceBatch scoreboards reach the journal through the recorder.
func TestBatchSearchDeterministicAndVisible(t *testing.T) {
	t.Run("event-driven", func(t *testing.T) {
		seed := int64(2)
		j1, m1 := batchDiffRun(t, seed, Config{BatchPlacement: true})
		j2, m2 := batchDiffRun(t, seed, Config{BatchPlacement: true})
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
