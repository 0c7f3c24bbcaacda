package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/videoconf"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/scheduler"
	"bass/internal/trace"
)

// Fig4Row is one participant-count configuration of Fig 4.
type Fig4Row struct {
	Participants   int
	PerClientMbps  float64
	PacketLossFrac float64
}

// Fig4Result sweeps conference size on a 30 Mbps bottleneck.
type Fig4Result struct {
	Rows []Fig4Row
}

// RunFig4 reproduces Fig 4's motivation experiment: the Pion SFU sits on
// node2, all clients on node3, and the node2-node3 link is tc-limited to
// 30 Mbps (Fig 3's setup). Per-client bitrate degrades and packet loss
// climbs once the number of participants pushes subscription load past the
// bottleneck (the paper sees the knee beyond 10 participants).
func RunFig4(seed int64, participants []int, publishMbps float64) (Fig4Result, error) {
	if len(participants) == 0 {
		participants = []int{2, 4, 6, 8, 10, 12, 14}
	}
	if publishMbps == 0 {
		publishMbps = 3
	}
	var out Fig4Result
	for _, p := range participants {
		topo := mesh.Line([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, time.Hour)
		if err := topo.SetCapacity("node2", "node3",
			trace.Constant("node2-node3", time.Second, 30, 3600)); err != nil {
			return out, err
		}
		sim, err := core.NewSimulation(topo, LANNodes(3, 16, 131072), seed, core.Config{
			Policy: scheduler.NewBass(scheduler.HeuristicBFS),
		})
		if err != nil {
			return out, err
		}
		app, err := videoconf.New(videoconf.Config{
			ClientsPerNode: map[string]int{"node3": p},
			PublishMbps:    publishMbps,
			Publishers:     1,
			InitialNode:    "node2",
		})
		if err != nil {
			sim.Close()
			return out, err
		}
		if _, err := sim.Orch.DeployAt("videoconf", app, app.InitialAssignment()); err != nil {
			sim.Close()
			return out, err
		}
		if err := sim.Run(3 * time.Minute); err != nil {
			sim.Close()
			return out, err
		}
		stats := app.StatsByNode()
		sim.Close()
		if len(stats) != 1 {
			return out, fmt.Errorf("fig4: unexpected stats %+v", stats)
		}
		out.Rows = append(out.Rows, Fig4Row{
			Participants:   p,
			PerClientMbps:  stats[0].MeanBitrateMbps,
			PacketLossFrac: stats[0].MeanLossFrac,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r Fig4Result) Table() Table {
	t := Table{
		Title:  "Fig 4: per-client bandwidth and packet loss vs participants (SFU behind a 30 Mbps bottleneck)",
		Header: []string{"participants", "per_client_mbps", "loss_frac"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Participants),
			f2(row.PerClientMbps),
			f2(row.PacketLossFrac),
		})
	}
	return t
}

func init() {
	register("fig4", func(p Params) ([]Table, error) {
		participants := []int{2, 4, 6, 8, 10, 12, 14}
		if p.Quick {
			participants = []int{4, 10, 14}
		}
		return oneTable(RunFig4(p.Seed, participants, 3))
	})
}
