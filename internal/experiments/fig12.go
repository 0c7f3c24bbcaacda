package experiments

import (
	"fmt"
	"time"

	"bass/internal/scenario"
)

// fig12Row is one bandwidth-querying-interval configuration.
type fig12Row struct {
	// IntervalSec is the monitoring interval; 0 means no migration.
	IntervalSec int
	// Migrations is how many times the SFU moved.
	Migrations int
	// MeanMbpsDuringRestriction averages client bitrate over the 3-minute
	// restriction window.
	MeanMbpsDuringRestriction float64
	// MeanMbpsAfterRecovery averages client bitrate after the window.
	MeanMbpsAfterRecovery float64
	// FirstMigrationSec is when the SFU first moved (-1 if never).
	FirstMigrationSec float64
}

// fig12Result compares querying intervals for the videoconf migration.
type fig12Result struct {
	Rows []fig12Row
}

// runFig12 reproduces Fig 12: a 9-participant conference with one publisher;
// the SFU starts on node2; 10 s into the run, node2's links are restricted
// for 3 minutes. With bandwidth querying every 30 s the violation is
// discovered and the SFU migrates (≈20-30 s of disruption); with no
// migration the clients suffer for the whole restriction.
func runFig12(seed int64, intervals []int) (fig12Result, error) {
	if len(intervals) == 0 {
		intervals = []int{30, 60, 90, 0}
	}
	var out fig12Result
	for _, interval := range intervals {
		r, err := complete(fig12Spec(seed, interval))
		if err != nil {
			return out, err
		}

		series := r.Video.BitrateSeries()
		var during, after []float64
		for _, p := range series.Points() {
			switch {
			case p.At >= fig12RestrictAt && p.At < fig12RestrictAt+fig12RestrictFor:
				during = append(during, p.Value)
			case p.At >= fig12RestrictAt+fig12RestrictFor:
				after = append(after, p.Value)
			}
		}
		row := fig12Row{IntervalSec: interval, FirstMigrationSec: -1}
		migs := r.Sim.Orch.Migrations()
		row.Migrations = len(migs)
		if len(migs) > 0 {
			row.FirstMigrationSec = migs[0].At.Seconds()
		}
		row.MeanMbpsDuringRestriction = mean(during)
		row.MeanMbpsAfterRecovery = mean(after)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig 12's restriction window.
const (
	fig12RestrictAt  = 10 * time.Second
	fig12RestrictFor = 3 * time.Minute
)

// fig12Spec is Fig 12's conference for 8 minutes on a c6525-class LAN, the
// SFU starting on node2, migrating every intervalSec (0: no migration).
func fig12Spec(seed int64, intervalSec int) scenario.Spec {
	const horizon = 8 * time.Minute
	// Restrict node2's links (the paper throttles node2's outgoing
	// interface, Fig 3).
	restrict := throttleWindow(fig12RestrictAt, fig12RestrictFor, horizon, 4)
	return scenario.Spec{
		Topology: "lan",
		Nodes:    lanNodes(3, 16, 131072),
		Links: []scenario.Link{
			{A: "node2", B: "node1", Phases: restrict},
			{A: "node2", B: "node3", Phases: restrict},
		},
		Scheduler:            "bfs",
		Migration:            intervalSec > 0,
		MonitorIntervalSec:   intervalSec,
		MigrationDowntimeSec: 25,
		Apps: []scenario.App{{Videoconf: &scenario.Videoconf{
			Clients: map[string]int{"node1": 4, "node3": 5}, PublishMbps: 2, Publishers: 1, InitialNode: "node2",
		}}},
		HorizonSec: secs(horizon),
		Seed:       seed,
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Table renders the comparison.
func (r fig12Result) Table() Table {
	t := Table{
		Title:  "Fig 12: videoconf bitrate under a 3-minute restriction, by bandwidth querying interval (0 = no migration)",
		Header: []string{"interval_s", "migrations", "first_migration_s", "mbps_during_restriction", "mbps_after"},
	}
	for _, row := range r.Rows {
		first := "-"
		if row.FirstMigrationSec >= 0 {
			first = fmt.Sprintf("%.0f", row.FirstMigrationSec)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.IntervalSec),
			fmt.Sprintf("%d", row.Migrations),
			first,
			f2(row.MeanMbpsDuringRestriction),
			f2(row.MeanMbpsAfterRecovery),
		})
	}
	return t
}
