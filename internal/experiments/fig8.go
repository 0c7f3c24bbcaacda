package experiments

import (
	"fmt"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/mesh"
	"bass/internal/obs"
	"bass/internal/scenario"
)

// fig8Result is the migration timeline of Fig 8.
type fig8Result struct {
	// Migrations are the component moves, in order.
	Migrations []core.MigrationEvent
	// GoodputBeforeDrop, GoodputDuringDrop, GoodputAfterFirstMigration and
	// GoodputEnd sample the pair's achieved/required fraction at the
	// figure's landmark times.
	GoodputBeforeDrop          float64
	GoodputDuringDrop          float64
	GoodputAfterFirstMigration float64
	GoodputEnd                 float64
	// JournalSummary is the decision journal rolled up by event type
	// ("type:count ..."), identical for equal seeds.
	JournalSummary string
}

// runFig8 reproduces the Fig 8 scenario on the Fig 15(a) topology: a
// component pair requiring 8 Mbps starts on nodes 3 and 4 (25 Mbps link,
// 4 Mbps headroom, 50% goodput threshold, 30 s probing). The node3-node4
// link degrades at t≈540 s, forcing a migration to node1; at t≈1119 s the
// node1-node3 link degrades and node3-node4 recovers, forcing a migration
// back.
func runFig8(seed int64) (fig8Result, error) {
	r, err := complete(fig8Spec(seed))
	if err != nil {
		return fig8Result{}, err
	}

	at := func(t time.Duration) float64 {
		v, _ := r.Streams[0].Goodput().At(t)
		return v
	}
	res := fig8Result{
		Migrations:        r.Sim.Orch.Migrations(),
		GoodputBeforeDrop: at(fig8FirstDrop - 10*time.Second),
		GoodputDuringDrop: at(fig8FirstDrop + 45*time.Second),
		GoodputEnd:        at(fig8Horizon - 30*time.Second),
		JournalSummary:    obs.Summarize(r.Journal.Events()),
	}
	if len(res.Migrations) > 0 {
		res.GoodputAfterFirstMigration = at(res.Migrations[0].At + 30*time.Second)
	}
	return res, nil
}

// Fig 8's capacity landmarks and run length.
const (
	fig8FirstDrop  = 540 * time.Second
	fig8SecondFlip = 1119 * time.Second
	fig8Horizon    = 25 * time.Minute
)

// fig8Spec is Fig 8's run: the pair on a three-node custom mesh whose
// links, 3 ms each, step at the landmarks, the decision journal attached.
func fig8Spec(seed int64) scenario.Spec {
	drop, flip, end := secs(fig8FirstDrop), secs(fig8SecondFlip), secs(fig8Horizon)
	return scenario.Spec{
		Topology: "custom",
		Nodes: []cluster.Node{
			// node3 fits only the pinned producer; node4 outranks node1 by
			// combined link capacity, so the consumer starts there (the
			// paper deploys the pair on nodes 3 and 4).
			{Name: mesh.CityLabNode3, CPU: 3, MemoryMB: 4096},
			{Name: mesh.CityLabNode4, CPU: 8, MemoryMB: 8192},
			{Name: mesh.CityLabNode1, CPU: 8, MemoryMB: 8192},
		},
		Links: []scenario.Link{
			{A: mesh.CityLabNode3, B: mesh.CityLabNode4, Phases: []scenario.Phase{
				{DurationSec: drop, Mbps: 25}, {DurationSec: flip - drop, Mbps: 7}, {DurationSec: end - flip, Mbps: 25}}},
			{A: mesh.CityLabNode1, B: mesh.CityLabNode3, Phases: []scenario.Phase{
				{DurationSec: flip, Mbps: 20}, {DurationSec: end - flip, Mbps: 3}}},
			{A: mesh.CityLabNode1, B: mesh.CityLabNode4, Mbps: 20},
		},
		Scheduler:            "bfs",
		Migration:            true,
		MonitorIntervalSec:   30,
		MigrationDowntimeSec: 10,
		Journal:              true,
		Apps:                 []scenario.App{pair("pair", 8, mesh.CityLabNode3, "", 2)},
		HorizonSec:           end,
		Seed:                 seed,
	}
}

// Table renders the timeline.
func (r fig8Result) Table() Table {
	rows := [][]string{
		{"goodput before drop (t=530s)", f2(r.GoodputBeforeDrop), "1.00"},
		{"goodput during drop", f2(r.GoodputDuringDrop), "<0.9 (7/8 link)"},
		{"goodput after 1st migration", f2(r.GoodputAfterFirstMigration), "1.00"},
		{"goodput at end (migrated back)", f2(r.GoodputEnd), "1.00"},
	}
	for i, m := range r.Migrations {
		rows = append(rows, []string{
			fmt.Sprintf("migration %d", i+1),
			fmt.Sprintf("t=%.0fs %s: %s->%s", m.At.Seconds(), m.Component, m.From, m.To),
			map[int]string{0: "t≈870s node4->node1", 1: "t≈1240s node1->node4"}[i],
		})
	}
	rows = append(rows, []string{"journal", r.JournalSummary, ""})
	return Table{
		Title:  "Fig 8: migration on bandwidth change (8 Mbps pair, 4 Mbps headroom, 50% threshold, 30 s probes)",
		Header: []string{"event", "measured", "paper"},
		Rows:   rows,
	}
}
