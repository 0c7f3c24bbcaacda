package videoconf

import (
	"math"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/trace"
)

func lanNodes() []cluster.Node {
	return []cluster.Node{
		{Name: "node1", CPU: 16, MemoryMB: 16384},
		{Name: "node2", CPU: 16, MemoryMB: 16384},
		{Name: "node3", CPU: 16, MemoryMB: 16384},
	}
}

func TestGraphShape(t *testing.T) {
	app, err := New(Config{
		ClientsPerNode: map[string]int{"node1": 2, "node3": 1},
		PublishMbps:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph()
	if got := g.NumComponents(); got != 4 { // sfu + 3 clients
		t.Fatalf("components = %d", got)
	}
	// All publish: each client subscribes to the other 2 → edge weight 4.
	if got := g.Weight(serverComponent, "client-node1-0"); got != 4 {
		t.Errorf("edge weight = %v, want 4", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid: %v", err)
	}
}

func TestSinglePublisherGraph(t *testing.T) {
	app, err := New(Config{
		ClientsPerNode: map[string]int{"node1": 3},
		PublishMbps:    2,
		Publishers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph()
	// The publisher receives nothing; the two viewers receive one stream.
	if got := g.Weight(serverComponent, "client-node1-0"); got != 0 {
		t.Errorf("publisher download weight = %v, want 0 (no self-subscribe)", got)
	}
	if got := g.Weight(serverComponent, "client-node1-1"); got != 2 {
		t.Errorf("viewer download weight = %v", got)
	}
}

func TestNoClients(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error with no clients")
	}
}

// TestFig4BitrateCollapsesOnBottleneck reproduces the Fig 4 shape: with the
// SFU behind a 30 Mbps bottleneck, per-client bitrate holds until the
// subscription load crosses the link capacity, then degrades with rising
// packet loss.
func TestFig4BitrateCollapsesOnBottleneck(t *testing.T) {
	run := func(participants int) NodeStats {
		topo := mesh.Line([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, time.Hour)
		// Throttle node2-node3 to 30 Mbps, as the paper does with tc.
		if err := topo.SetCapacity("node2", "node3", trace.Constant("node2-node3", time.Second, 30, 3600)); err != nil {
			t.Fatal(err)
		}
		sim, err := core.NewSimulation(topo, lanNodes(), 1, core.Config{
			Policy: scheduler.NewBass(scheduler.HeuristicBFS),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		app, err := New(Config{
			ClientsPerNode: map[string]int{"node3": participants},
			PublishMbps:    3,
			Publishers:     1,
			InitialNode:    "node2",
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Orch.DeployAt("videoconf", app, app.InitialAssignment()); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		stats := app.StatsByNode()
		if len(stats) != 1 {
			t.Fatalf("stats = %+v", stats)
		}
		return stats[0]
	}

	small := run(5)  // 4 viewers × 3 Mbps = 12 < 30: full bitrate
	large := run(15) // 14 viewers × 3 Mbps = 42 > 30: degraded

	if math.Abs(small.MeanBitrateMbps-3) > 0.05 {
		t.Errorf("5 participants: bitrate = %v, want ≈3", small.MeanBitrateMbps)
	}
	if small.MeanLossFrac > 0.01 {
		t.Errorf("5 participants: loss = %v, want ≈0", small.MeanLossFrac)
	}
	if large.MeanBitrateMbps > 2.5 {
		t.Errorf("15 participants: bitrate = %v, want degraded below 2.5", large.MeanBitrateMbps)
	}
	if large.MeanLossFrac < 0.2 {
		t.Errorf("15 participants: loss = %v, want significant", large.MeanLossFrac)
	}
}

// TestMigrationRestoresBitrate reproduces the Fig 12 mechanism: the SFU's
// node loses bandwidth, BASS migrates it, and after the reconnect window the
// clients see full bitrate again.
func TestMigrationRestoresBitrate(t *testing.T) {
	topo := mesh.FullMesh([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, time.Hour)
	dropAt := 60 * time.Second
	if err := topo.SetCapacity("node2", "node3", trace.StepTrace("node2-node3", time.Second, time.Hour, []trace.Level{
		{From: 0, Mbps: 1000},
		{From: dropAt, Mbps: 5},
	})); err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulation(topo, lanNodes(), 1, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	app, err := New(Config{
		ClientsPerNode: map[string]int{"node3": 9},
		PublishMbps:    2,
		Publishers:     1,
		InitialNode:    "node2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Orch.DeployAt("videoconf", app, app.InitialAssignment()); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	migs := sim.Orch.Migrations()
	if len(migs) == 0 {
		t.Fatal("SFU never migrated off the degraded node")
	}
	if migs[0].Component != serverComponent {
		t.Errorf("migrated %q, want the SFU", migs[0].Component)
	}
	// Bitrate at the end must be back at full publish rate via node1/node3
	// paths, despite node2-node3 staying at 5 Mbps.
	series := app.BitrateSeries()
	end, ok := series.At(9 * time.Minute)
	if !ok || math.Abs(end-2) > 0.1 {
		t.Errorf("bitrate at end = %v (ok=%v), want ≈2", end, ok)
	}
}

func TestClientBitrateLookup(t *testing.T) {
	app, err := New(Config{ClientsPerNode: map[string]int{"node1": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.ClientBitrate("client-node1-0"); err != nil {
		t.Errorf("known client: %v", err)
	}
	if _, err := app.ClientBitrate("ghost"); err == nil {
		t.Error("unknown client: want error")
	}
	if got := app.ClientNames(); len(got) != 1 || got[0] != "client-node1-0" {
		t.Errorf("ClientNames = %v", got)
	}
}
