package experiments

import (
	"fmt"
	"time"

	"bass/internal/mesh"
	"bass/internal/scenario"
	"bass/internal/trace"
)

// fig4Row is one participant-count configuration of Fig 4.
type fig4Row struct {
	Participants   int
	PerClientMbps  float64
	PacketLossFrac float64
}

// fig4Result sweeps conference size on a 30 Mbps bottleneck.
type fig4Result struct {
	Rows []fig4Row
}

// runFig4 reproduces Fig 4's motivation experiment: the Pion SFU sits on
// node2, all clients on node3, and the node2-node3 link is tc-limited to
// 30 Mbps (Fig 3's setup). Per-client bitrate degrades and packet loss
// climbs once the number of participants pushes subscription load past the
// bottleneck (the paper sees the knee beyond 10 participants).
func runFig4(seed int64, participants []int, publishMbps float64) (fig4Result, error) {
	if len(participants) == 0 {
		participants = []int{2, 4, 6, 8, 10, 12, 14}
	}
	if publishMbps == 0 {
		publishMbps = 3
	}
	var out fig4Result
	for _, p := range participants {
		topo := mesh.Line([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, time.Hour)
		if err := topo.SetCapacity("node2", "node3",
			trace.Constant("node2-node3", time.Second, 30, 3600)); err != nil {
			return out, err
		}
		r, err := complete(scenario.Spec{
			Topo:         topo,
			Nodes:        scenario.LANNodes(3, 16, 131072),
			Scheduler:    "bfs",
			App:          "videoconf",
			VideoClients: map[string]int{"node3": p},
			PublishMbps:  publishMbps,
			Publishers:   1,
			InitialNode:  "node2",
			HorizonSec:   3 * 60,
			Seed:         seed,
		})
		if err != nil {
			return out, err
		}
		stats := r.Video.StatsByNode()
		if len(stats) != 1 {
			return out, fmt.Errorf("fig4: unexpected stats %+v", stats)
		}
		out.Rows = append(out.Rows, fig4Row{
			Participants:   p,
			PerClientMbps:  stats[0].MeanBitrateMbps,
			PacketLossFrac: stats[0].MeanLossFrac,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r fig4Result) Table() Table {
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
