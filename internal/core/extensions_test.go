package core

import (
	"testing"
	"time"

	"bass/internal/scheduler"
)

// statefulPair is a pairWorkload whose consumer carries migratable state.
func statefulPair(app string, demand float64, pinSrc string, cpu, stateMB float64) *pairWorkload {
	w := newPairWorkload(app, demand, pinSrc, cpu)
	c, err := w.graph.Component("dst")
	if err != nil {
		panic(err)
	}
	c.StateMB = stateMB
	return w
}

// runFig8Style runs the Fig 8 scenario with the given workload and returns
// the time the pair's stream was down around the first migration.
func downtimeAroundFirstMigration(t *testing.T, w *pairWorkload) time.Duration {
	t.Helper()
	const dropAt = 120 * time.Second
	topo := fig8Topology(dropAt)
	sim, err := NewSimulation(topo, fig8Nodes(), 1, Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Orch.Deploy("pair", w); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(dropAt + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	migs := sim.Orch.Migrations()
	if len(migs) == 0 {
		t.Fatal("no migration occurred")
	}
	// The stream detaches at migration time and re-attaches after the
	// downtime; measure by probing when the stream was re-added.
	if !w.attached {
		t.Fatal("stream never re-attached")
	}
	return w.lastDowntime
}

func TestStatefulMigrationTakesLonger(t *testing.T) {
	stateless := newPairWorkload("pair", 8, "node3", 2)
	statelessDown := downtimeAroundFirstMigration(t, stateless)

	stateful := statefulPair("pair", 8, "node3", 2, 200) // 200 MB of state
	statefulDown := downtimeAroundFirstMigration(t, stateful)

	if statefulDown <= statelessDown {
		t.Errorf("stateful downtime %v not above stateless %v", statefulDown, statelessDown)
	}
	// 200 MB over a ≤20 Mbps path is at least 80 s of transfer.
	if statefulDown < time.Minute {
		t.Errorf("stateful downtime %v implausibly short for 200 MB", statefulDown)
	}
}
