package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/obs"
	"bass/internal/scheduler"
)

// sameNodeInfos reports the first difference between two node views, field
// by field and bit for bit, or "" when they are identical.
func sameNodeInfos(got, want []scheduler.NodeInfo) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, rebuild has %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Name != w.Name {
			return fmt.Sprintf("entry %d is %q, rebuild has %q", i, g.Name, w.Name)
		}
		fields := [...]struct {
			name string
			g, w float64
		}{
			{"FreeCPU", g.FreeCPU, w.FreeCPU},
			{"FreeMemoryMB", g.FreeMemoryMB, w.FreeMemoryMB},
			{"TotalCPU", g.TotalCPU, w.TotalCPU},
			{"TotalMemoryMB", g.TotalMemoryMB, w.TotalMemoryMB},
			{"LinkCapacityMbps", g.LinkCapacityMbps, w.LinkCapacityMbps},
		}
		for _, f := range fields {
			if math.Float64bits(f.g) != math.Float64bits(f.w) {
				return fmt.Sprintf("%s.%s = %v, rebuild has %v", g.Name, f.name, f.g, f.w)
			}
		}
	}
	return ""
}

// TestNodeViewMatchesRebuild runs a seeded town-chaos-shaped simulation —
// storm-loaded chain apps on a jittered grid with tight CPU, migration and
// reconcile on, node crashes and link flaps — and checks the maintained
// node view against a fresh appendNodeInfos rebuild after every deploy
// placement, migration, reconcile placement, cordon, uncordon,
// evacuation and full probe. Whenever the view reads as current it must
// equal the rebuild bit for bit; after the orchestrator's own placement
// changes it must read as current, so a skipped patch shows as a view that
// fell back to rebuilding.
func TestNodeViewMatchesRebuild(t *testing.T) {
	const rows, cols, apps = 5, 5, 30
	const seed = 7
	topo, err := mesh.Grid(mesh.GridOptions{Rows: rows, Cols: cols, Seed: seed, Duration: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]cluster.Node, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: 0.8, MemoryMB: 4096})
		}
	}
	s, err := NewSimulation(topo, nodes, seed, Config{
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
		ReservedCPU:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := s.Orch
	plane := s.AttachObservability(obs.NewJournal(0), nil)

	checked := map[obs.EventType]int{}
	compared := 0
	plane.SetTap(func(ev obs.Event) {
		mustBeCurrent := false
		switch ev.Type {
		case obs.EventSchedule, obs.EventMigration:
			mustBeCurrent = true
		case obs.EventReconcileAction:
			mustBeCurrent = strings.HasPrefix(ev.Reason, "placed via")
		case obs.EventCordon, obs.EventUncordon, obs.EventEvacuate, obs.EventProbeFull:
		default:
			return
		}
		checked[ev.Type]++
		if !o.viewCurrent() {
			if mustBeCurrent {
				t.Errorf("at %v %s %s/%s: node view not current after the orchestrator's own placement change",
					ev.At, ev.Type, ev.App, ev.Component)
			}
			return
		}
		compared++
		if diff := sameNodeInfos(o.view.infos, o.appendNodeInfos(nil)); diff != "" {
			t.Errorf("at %v after %s %s/%s: %s", ev.At, ev.Type, ev.App, ev.Component, diff)
		}
	}, obs.EventSchedule, obs.EventMigration, obs.EventReconcileAction,
		obs.EventCordon, obs.EventUncordon, obs.EventEvacuate, obs.EventProbeFull)

	for i := 0; i < apps; i++ {
		cell := (i * 7) % (rows * cols)
		sr, sc := cell/cols, cell%cols
		name := fmt.Sprintf("chain-%04d", i)
		w := newBenchChain(name, 12, mesh.GridNodeName(sr, sc), mesh.GridNodeName((sr+2)%rows, (sc+1)%cols))
		if _, err := o.DeployAt(name, w, nil); err != nil {
			t.Fatal(err)
		}
	}
	horizon := 20 * time.Minute
	sched := faults.Generate(topo, faults.GeneratorConfig{
		Seed:               seed + 1000,
		Horizon:            horizon,
		NodeCrashesPerHour: 4,
		MeanNodeDowntime:   2 * time.Minute,
		LinkFlapsPerHour:   3,
		MeanLinkDowntime:   30 * time.Second,
	}).Clamp(horizon)
	if _, err := s.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(horizon + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %v; compared a current view %d times", checked, compared)
	for _, typ := range []obs.EventType{obs.EventSchedule, obs.EventMigration, obs.EventCordon,
		obs.EventUncordon, obs.EventEvacuate, obs.EventProbeFull, obs.EventReconcileAction} {
		if checked[typ] == 0 {
			t.Errorf("the run never reached a %s event: the scenario no longer exercises that path", typ)
		}
	}
}

// TestDeployOnLinklessCluster deploys onto a one-node topology with no
// links: its startup probing round measures nothing, so the cluster's
// placement epoch and the monitor's full-probe count both still read 0 at
// the first deploy, and the node view must rebuild anyway rather than hand
// the policy an empty node list.
func TestDeployOnLinklessCluster(t *testing.T) {
	topo := mesh.NewTopology()
	topo.AddNode("solo")
	s, err := NewSimulation(topo, []cluster.Node{{Name: "solo", CPU: 1, MemoryMB: 1024}}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Orch.DeployAt("chain", newBenchChain("chain", 1, "solo", "solo"), nil); err != nil {
		t.Fatalf("deploy on a one-node cluster: %v", err)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	got := s.Cluster.Placements()
	if len(got) != 3 {
		t.Fatalf("placements = %v, want all 3 components", got)
	}
	for _, p := range got {
		if p.Node != "solo" {
			t.Errorf("%s placed on %q, want solo", p.Component, p.Node)
		}
	}
}
