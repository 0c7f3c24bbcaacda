package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/videoconf"
	"bass/internal/controller"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
)

// Fig15aTable renders the emulated 5-node CityLab subset (Fig 15a): nodes,
// links, and their configured mean bandwidths.
func Fig15aTable() Table {
	t := Table{
		Title:  "Fig 15a: emulated CityLab 5-node subset (node0 = control plane)",
		Header: []string{"link", "mean_mbps", "std_pct", "latency_ms"},
	}
	for _, l := range mesh.CityLabLinks() {
		t.Rows = append(t.Rows, []string{
			mesh.MakeLinkID(l.A, l.B).String(),
			f2(l.MeanMbps),
			f2(l.StdFrac * 100),
			f2(l.LatencyMS),
		})
	}
	return t
}

// Fig15Row is one (strategy, node) cell of Fig 15(b).
type Fig15Row struct {
	Strategy          string
	Node              string
	MedianBitrateMbps float64
	MeanBitrateMbps   float64
}

// Fig15Result compares migration strategies on the emulated CityLab mesh.
type Fig15Result struct {
	Rows       []Fig15Row
	Migrations map[string]int
}

// RunFig15b reproduces Fig 15(b): a 10-minute conference with 3 participants
// at each of the 4 worker nodes of the CityLab subset, all publishing and
// subscribing to everyone, under the replayed bandwidth trace. Strategies:
// no migration, and migration at 65% / 85% link-utilization thresholds. The
// paper sees the biggest gains for the participants at nodes 1 and 2.
func RunFig15b(seed int64) (Fig15Result, error) {
	const horizon = 10 * time.Minute
	strategies := []struct {
		name      string
		threshold float64
	}{
		{name: "no-migration", threshold: 0},
		{name: "65%", threshold: 0.65},
		{name: "85%", threshold: 0.85},
	}
	out := Fig15Result{Migrations: make(map[string]int)}
	for _, s := range strategies {
		topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: seed, Duration: horizon})
		if err != nil {
			return out, err
		}
		ctrlCfg := controller.DefaultConfig()
		ctrlCfg.Migration = scheduler.MigrationConfig{
			UtilizationThreshold: s.threshold,
			GoodputFloor:         0, // sweep isolates the utilization trigger
			HeadroomMbps:         2,
		}
		// WebRTC reconnects cost ~20 s; space SFU moves out so the paid
		// downtime amortises (§6.3.2's take-away).
		ctrlCfg.ReMigrationInterval = 5 * time.Minute
		cfg := core.Config{
			Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
			Controller:        ctrlCfg,
			EnableMigration:   s.threshold > 0,
			MonitorInterval:   30 * time.Second,
			MigrationDowntime: 20 * time.Second,
			ReservedCPU:       1,
		}
		sim, err := core.NewSimulation(topo, CityLabWorkers(), seed, cfg)
		if err != nil {
			return out, err
		}
		app, err := videoconf.New(videoconf.Config{
			ClientsPerNode: map[string]int{
				mesh.CityLabNode1: 3,
				mesh.CityLabNode2: 3,
				mesh.CityLabNode3: 3,
				mesh.CityLabNode4: 3,
			},
			PublishMbps: 0.5,
			InitialNode: mesh.CityLabNode4,
		})
		if err != nil {
			sim.Close()
			return out, err
		}
		if _, err := sim.Orch.DeployAt("videoconf", app, app.InitialAssignment()); err != nil {
			sim.Close()
			return out, err
		}
		if err := sim.Run(horizon); err != nil {
			sim.Close()
			return out, err
		}
		out.Migrations[s.name] = len(sim.Orch.Migrations())
		for _, ns := range app.StatsByNode() {
			out.Rows = append(out.Rows, Fig15Row{
				Strategy:          s.name,
				Node:              ns.Node,
				MedianBitrateMbps: ns.MedianBitrateMbps,
				MeanBitrateMbps:   ns.MeanBitrateMbps,
			})
		}
		sim.Close()
	}
	return out, nil
}

// Table renders per-node bitrates by strategy.
func (r Fig15Result) Table() Table {
	t := Table{
		Title:  "Fig 15b: average bitrate per participant node on the CityLab mesh (paper: node1 1.4→1.6 Mbps, node2 0.24→0.48 Mbps with 65% threshold)",
		Header: []string{"strategy", "node", "median_mbps", "mean_mbps", "migrations"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Strategy,
			row.Node,
			f2(row.MedianBitrateMbps),
			f2(row.MeanBitrateMbps),
			fmt.Sprintf("%d", r.Migrations[row.Strategy]),
		})
	}
	return t
}

func init() {
	register("fig15a", func(Params) ([]Table, error) {
		return []Table{Fig15aTable()}, nil
	})
	register("fig15b", func(p Params) ([]Table, error) {
		return oneTable(RunFig15b(p.Seed))
	})
}
