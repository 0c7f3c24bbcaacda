package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
)

// The SLO differential scenario: a 2×4 ladder mesh with four chains pinned
// along each row. Killing row 0's middle link reroutes its traffic through
// row 1, overcommitting the surviving middle link (~40 Mbps of demand on a
// 25 Mbps link) — goodput and headroom SLIs both go bad for the fault
// window, so alerts must fire and later resolve.
func runSLOScenario(t *testing.T, seed int64, workers int) (*obs.Journal, []obs.Event) {
	t.Helper()
	rows, cols := 2, 4
	topo := staticGrid(rows, cols, 25)
	var nodes []cluster.Node
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: 2, MemoryMB: 16384})
		}
	}
	s, err := NewSimulation(topo, nodes, seed, Config{
		EnableMigration: true,
		MonitorInterval: 30 * time.Second,
		EvalWorkers:     workers,
		EnableSLO:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	journal := obs.NewJournal(0)
	s.AttachObservability(journal, metricstore.New(0))
	for r := 0; r < rows; r++ {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("chain-r%d-%d", r, i)
			w := newBenchChain(name, 5, mesh.GridNodeName(r, 0), mesh.GridNodeName(r, cols-1))
			if _, err := s.Orch.DeployAt(name, w, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched := &faults.Schedule{Events: []faults.Event{
		{AtSec: 600, Type: faults.LinkDown, LinkA: mesh.GridNodeName(0, 1), LinkB: mesh.GridNodeName(0, 2)},
		{AtSec: 1200, Type: faults.LinkUp, LinkA: mesh.GridNodeName(0, 1), LinkB: mesh.GridNodeName(0, 2)},
	}}
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(40 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var alerts []obs.Event
	for _, ev := range journal.Events() {
		if ev.Type == obs.EventAlertFired || ev.Type == obs.EventAlertResolved {
			alerts = append(alerts, ev)
		}
	}
	return journal, alerts
}

// alertBytes serialises the alert sub-journal for byte comparison.
func alertBytes(t *testing.T, alerts []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range alerts {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSLOAlertJournalDifferential pins the determinism half of the SLO
// contract: at equal seeds the alert journal is byte-identical at any
// EvalWorkers count — and alerts actually fire during
// the injected fault window and resolve after it.
func TestSLOAlertJournalDifferential(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		_, base := runSLOScenario(t, seed, 0)
		fired, resolved := 0, 0
		for _, ev := range base {
			switch ev.Type {
			case obs.EventAlertFired:
				fired++
			case obs.EventAlertResolved:
				resolved++
			}
		}
		if fired == 0 {
			t.Fatalf("seed %d: no alerts fired during fault window", seed)
		}
		if resolved == 0 {
			t.Fatalf("seed %d: no alerts resolved after recovery", seed)
		}
		want := alertBytes(t, base)
		_, alerts := runSLOScenario(t, seed, 4)
		if got := alertBytes(t, alerts); !bytes.Equal(got, want) {
			t.Errorf("seed %d workers=4: alert journal diverged\nwant:\n%s\ngot:\n%s", seed, want, got)
		}
	}
}

// TestSLOAlertCauseChains pins the explainability half: every alert in a
// fault-driven run passes obs.CheckCauses — fired alerts root at a probe
// sample or the injected fault, and resolves chain through their alert.
func TestSLOAlertCauseChains(t *testing.T) {
	journal, _ := runSLOScenario(t, 42, 0)
	n, err := obs.CheckCauses(journal.Events())
	if err != nil {
		t.Fatal(err)
	}
	if n.Alerts == 0 {
		t.Fatal("scenario fired no alerts to check")
	}
}

// TestSLOAutoRegisteredSpecs pins the wiring: EnableSLO registers the mesh
// headroom and control-latency specs at attach, and a goodput spec per
// deployed app.
func TestSLOAutoRegisteredSpecs(t *testing.T) {
	s := setupControlPlaneObserved(t, 2, 2, 2, false, 0, true)
	defer s.Close()
	ev := s.Orch.SLO()
	if ev == nil {
		t.Fatal("EnableSLO did not build an evaluator")
	}
	want := map[string]bool{
		"mesh/headroom":      false,
		"control/loop":       false,
		"goodput/chain-0000": false,
		"goodput/chain-0001": false,
	}
	for _, st := range ev.Snapshot() {
		if _, ok := want[st.Name]; ok {
			want[st.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("spec %q not auto-registered", name)
		}
	}
}
