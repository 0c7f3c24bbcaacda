package experiments

import (
	"fmt"
	"time"

	"bass/internal/controller"
	"bass/internal/mesh"
	"bass/internal/scenario"
	"bass/internal/scheduler"
)

// fig15aTable renders the emulated 5-node CityLab subset (Fig 15a): nodes,
// links, and their configured mean bandwidths.
func fig15aTable() Table {
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

// fig15Row is one (strategy, node) cell of Fig 15(b).
type fig15Row struct {
	Strategy          string
	Node              string
	MedianBitrateMbps float64
	MeanBitrateMbps   float64
}

// fig15Result compares migration strategies on the emulated CityLab mesh.
type fig15Result struct {
	Rows       []fig15Row
	Migrations map[string]int
}

// runFig15b reproduces Fig 15(b): a 10-minute conference with 3 participants
// at each of the 4 worker nodes of the CityLab subset, all publishing and
// subscribing to everyone, under the replayed bandwidth trace. Strategies:
// no migration, and migration at 65% / 85% link-utilization thresholds. The
// paper sees the biggest gains for the participants at nodes 1 and 2.
func runFig15b(seed int64) (fig15Result, error) {
	const horizon = 10 * time.Minute
	strategies := []struct {
		name      string
		threshold float64
	}{
		{name: "no-migration", threshold: 0},
		{name: "65%", threshold: 0.65},
		{name: "85%", threshold: 0.85},
	}
	out := fig15Result{Migrations: make(map[string]int)}
	for _, s := range strategies {
		ctrlCfg := controller.DefaultConfig()
		ctrlCfg.Migration = scheduler.MigrationConfig{
			UtilizationThreshold: s.threshold,
			GoodputFloor:         0, // sweep isolates the utilization trigger
			HeadroomMbps:         2,
		}
		// WebRTC reconnects cost ~20 s; space SFU moves out so the paid
		// downtime amortises (§6.3.2's take-away).
		ctrlCfg.ReMigrationInterval = 5 * time.Minute
		r, err := complete(scenario.Spec{
			Scheduler:           "bfs",
			Controller:          ctrlCfg,
			Migration:           s.threshold > 0,
			MonitorIntervalSec:  30,
			MigrationDowntime:   20 * time.Second,
			ReservedCPU:         1,
			App:                 "videoconf",
			ParticipantsPerNode: 3,
			PublishMbps:         0.5,
			InitialNode:         mesh.CityLabNode4,
			HorizonSec:          int(horizon / time.Second),
			Seed:                seed,
		})
		if err != nil {
			return out, err
		}
		out.Migrations[s.name] = len(r.Sim.Orch.Migrations())
		for _, ns := range r.Video.StatsByNode() {
			out.Rows = append(out.Rows, fig15Row{
				Strategy:          s.name,
				Node:              ns.Node,
				MedianBitrateMbps: ns.MedianBitrateMbps,
				MeanBitrateMbps:   ns.MeanBitrateMbps,
			})
		}
	}
	return out, nil
}

// Table renders per-node bitrates by strategy.
func (r fig15Result) Table() Table {
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
