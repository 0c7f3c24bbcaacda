package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
)

// diffGrid sizes a diffRun fixture: a rows×cols mesh carrying apps chains.
type diffGrid struct{ rows, cols, apps int }

var (
	// diffGridTown is the golden-pinned fixture.
	diffGridTown = diffGrid{6, 6, 12}
	// diffGridWide is a larger mesh and app count than diffGridTown, pinned
	// by goldenDiffRunWide.
	diffGridWide = diffGrid{9, 9, 27}
)

// diffRun executes a storm-loaded multi-app simulation with observability
// attached, returning the journal JSONL, the Prometheus metric dump, and the
// number of migrations committed.
func diffRun(t *testing.T, grid diffGrid, seed int64) (journal, metrics []byte, migrations int) {
	t.Helper()
	rows, cols, apps := grid.rows, grid.cols, grid.apps
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
	s, err := NewSimulation(topo, nodes, seed, Config{
		EnableMigration: true,
		MonitorInterval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := obs.NewJournal(0)
	store := metricstore.New(0)
	s.AttachObservability(j, store)
	// Storm demand on jittered ~25 Mbps links: plenty of violations, so the
	// runs exercise candidate scoring, cooldowns, and real migrations.
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
	return jb.Bytes(), mb.Bytes(), len(s.Orch.Migrations())
}

// goldenDiffRun holds the SHA-256 of diffRun's full journal JSONL
// (sched_candidate rows included) and Prometheus dump on diffGridTown, serial,
// at seeds 1–3, captured at the commit before the target choosers were folded
// into one scoring loop. Chain apps have at most two neighbors per component,
// so those bytes were already reproducible there. Matching them is the
// cross-commit proof that no scoreboard moved. The metric halves were
// re-captured when the reconciler became the only recovery path and so ran
// in every migration run: the dumps gained its three gauges
// (reconcile_drift_total, reconcile_actions_total, degraded_mode) and
// changed in nothing else; the journals held.
var goldenDiffRun = map[int64][2]string{
	1: {"a903c3c7a3a130db9b1c0b942ad6e1ef13874d69d0cc4a993a0e03029e94b2b3", "feef0191a9098a0008dd4da7bae16bd97c796e2f6e403c8ba37068140decf8cb"},
	2: {"786491fa755bb5cc41d88dd86a5eb6c1574a2d75de9e893a645b156a0b193f60", "de75acebd15cb7dc6f42e1e24d7cc9d9a744aeee29a33808df28cb0ba5f71a01"},
	3: {"07bdec4bcdf12ea78456f486de9de58d6c56b0d56eb8cf57a81c29476efb1345", "ce841e2c54b14820d9de53b0a534df8135988bbc4422175c0222e02607e3e1e3"},
}

// goldenDiffRunWide is goldenDiffRun on diffGridWide, captured when the
// per-app evaluation could still fan out across workers and every worker
// count matched these bytes.
var goldenDiffRunWide = map[int64][2]string{
	1: {"0e3a906fed381af22872803d41fe6a7986ad0d1b4d888ab760974a00f88c2c60", "81b33cd1124e6da3884d23050479224a80db0c0a73620ff3659c6470e8935ed6"},
	2: {"d144a78eb218b81bd9a17b0ef4b5a34f92d7dc838709cd58f5c991aa9cd3cd26", "35ca98380997293d1c734b229a2de6edbcf25b2197358a9ba0c00f7879606d4c"},
	3: {"878e6b0f83894766427fdbe485d6129b8f2c3406e5db21c937b69f8c42997db8", "a01ce20991547574d8b176924bacaeb11e6f043689b218e87ed7fb7c7d8d49fb"},
}

// TestParallelEvalByteIdentical pins the hot path's determinism contract at
// the core level: with many storm-loaded apps contending, the controller's
// journal and metric output must match the bytes captured when the per-app
// read/score phase could run in parallel. Every emission happens in the
// commit phase in deployment order, so span IDs, journal bytes, and metric
// series cannot depend on scheduling.
func TestParallelEvalByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		grid   diffGrid
		golden map[int64][2]string
	}{
		{"event-driven", diffGridTown, goldenDiffRun},
		{"per-app-fanout-wide", diffGridWide, goldenDiffRunWide},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sawMigration := false
			for seed := int64(1); seed <= 3; seed++ {
				journal, metrics, migs := diffRun(t, tc.grid, seed)
				if len(journal) == 0 {
					t.Fatalf("seed %d: run produced an empty journal", seed)
				}
				sawMigration = sawMigration || migs > 0
				want := tc.golden[seed]
				if got := fmt.Sprintf("%x", sha256.Sum256(journal)); got != want[0] {
					t.Errorf("seed %d: journal digest %s, want golden %s", seed, got, want[0])
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(metrics)); got != want[1] {
					t.Errorf("seed %d: metric dump digest %s, want golden %s", seed, got, want[1])
				}
			}
			if !sawMigration {
				t.Error("no seed produced a migration — the differential never exercised the commit path")
			}
		})
	}
}
