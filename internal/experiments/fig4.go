package experiments

import (
	"fmt"

	"bass/internal/scenario"
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
		r, err := complete(fig4Spec(seed, p, publishMbps))
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

// fig4Spec is one Fig 4 point: participants clients on node3 of a
// c6525-class LAN, the SFU on node2 behind a 30 Mbps node2-node3 link.
func fig4Spec(seed int64, participants int, publishMbps float64) scenario.Spec {
	return scenario.Spec{
		Topology:  "lan",
		Nodes:     lanNodes(3, 16, 131072),
		Links:     []scenario.Link{{A: "node2", B: "node3", Mbps: 30}},
		Scheduler: "bfs",
		Apps: []scenario.App{{Videoconf: &scenario.Videoconf{
			Clients: map[string]int{"node3": participants}, PublishMbps: publishMbps, Publishers: 1, InitialNode: "node2",
		}}},
		HorizonSec: 3 * 60,
		Seed:       seed,
	}
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
