package experiments

import (
	"fmt"
	"time"

	"bass/internal/mesh"
	"bass/internal/scenario"
	"bass/internal/trace"
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
	const (
		restrictAt  = 10 * time.Second
		restrictFor = 3 * time.Minute
		horizon     = 8 * time.Minute
		publish     = 2.0
	)
	var out fig12Result
	for _, interval := range intervals {
		topo := mesh.FullMesh([]string{"node1", "node2", "node3"}, 1000, time.Millisecond, horizon)
		// Restrict node2's links (the paper throttles node2's outgoing
		// interface, Fig 3).
		for _, peer := range []string{"node1", "node3"} {
			if err := topo.SetCapacity("node2", peer, trace.StepTrace("node2-"+peer, time.Second, horizon, []trace.Level{
				{From: 0, Mbps: 1000},
				{From: restrictAt, Mbps: 4},
				{From: restrictAt + restrictFor, Mbps: 1000},
			})); err != nil {
				return out, err
			}
		}
		r, err := complete(scenario.Spec{
			Topo:               topo,
			Nodes:              scenario.LANNodes(3, 16, 131072),
			Scheduler:          "bfs",
			Migration:          interval > 0,
			MonitorIntervalSec: interval,
			MigrationDowntime:  25 * time.Second,
			App:                "videoconf",
			VideoClients:       map[string]int{"node1": 4, "node3": 5},
			PublishMbps:        publish,
			Publishers:         1,
			InitialNode:        "node2",
			HorizonSec:         int(horizon / time.Second),
			Seed:               seed,
		})
		if err != nil {
			return out, err
		}

		series := r.Video.BitrateSeries()
		var during, after []float64
		for _, p := range series.Points() {
			switch {
			case p.At >= restrictAt && p.At < restrictAt+restrictFor:
				during = append(during, p.Value)
			case p.At >= restrictAt+restrictFor:
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
