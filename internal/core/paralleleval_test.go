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
// cross-commit proof that no scoreboard moved.
var goldenDiffRun = map[int64][2]string{
	1: {"a903c3c7a3a130db9b1c0b942ad6e1ef13874d69d0cc4a993a0e03029e94b2b3", "1bf812e9fb6085c62213be921ef4a2d94399a649fcfc7b68ea21c2f5b5a52087"},
	2: {"786491fa755bb5cc41d88dd86a5eb6c1574a2d75de9e893a645b156a0b193f60", "888f060700bed61fd9f740aca89d903cb1b4bfb39fa9d99bf02ee6cf1cb6f362"},
	3: {"07bdec4bcdf12ea78456f486de9de58d6c56b0d56eb8cf57a81c29476efb1345", "b4a45642d4077812ea84bc01bd5ad35f8119d8f4a0960d46344287390e0e5b07"},
}

// goldenDiffRunWide is goldenDiffRun on diffGridWide, captured when the
// per-app evaluation could still fan out across workers and every worker
// count matched these bytes.
var goldenDiffRunWide = map[int64][2]string{
	1: {"0e3a906fed381af22872803d41fe6a7986ad0d1b4d888ab760974a00f88c2c60", "759eeefa242ad72a18a75990815386af1dd84bc7dbef8c688114642d752ba65f"},
	2: {"d144a78eb218b81bd9a17b0ef4b5a34f92d7dc838709cd58f5c991aa9cd3cd26", "82962b562b3ade4c87d983ca6cb3b7060cbccd8cc9bee539d99778df0f64236d"},
	3: {"878e6b0f83894766427fdbe485d6129b8f2c3406e5db21c937b69f8c42997db8", "6900bab421158effac7e586a50a56341e932d45e2a8dc7bbdefaa4d77d86f2e4"},
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
