package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scheduler"
	"bass/internal/trace"
)

// The alertquality experiment replays a seeded fault schedule with the SLO
// evaluator armed and scores the alert journal against the schedule's
// reconstructed ground-truth windows (faults.Windows): did the burn-rate
// ladder page for every real degradation (recall), did it stay silent
// otherwise (precision), and how long after fault onset did the first alert
// fire (detection latency, MTTD)?
//
// The scenario is a 2×4 constant-capacity ladder mesh with four fully pinned
// producer→consumer pairs per row. Each row's pairs saturate 20 of the row's
// 25 Mbps, so dropping one row's middle link reroutes its traffic through the
// other row, overcommitting the surviving middle link — dependency goodput
// and mesh headroom both go bad for exactly the injected window. Pinning both
// endpoints removes migrations from the picture: congestion is the only
// response, so SLI degradation aligns with the fault window and every alert
// outside a (graced) window is a genuine false positive. Probe-loss windows
// injected between outages exercise the other half of the contract: they
// blind the measurement plane without degrading service, so the evaluator's
// no-data-is-good policy must keep them alert-free.

// AlertQualityOptions configures one replay.
type AlertQualityOptions struct {
	Seed    int64
	Horizon time.Duration // 0 = 2h
	Polling bool          // polling net driver instead of event-driven
	Shards  int           // mesh regions (0/1 = single shard)
}

// detectGrace is how far past a window's repair an alert may still fire and
// count as caused by it: up to two monitor epochs of sampling lag plus the
// page tier's short lookback keeping the last in-window bad sample visible.
const detectGrace = 2 * time.Minute

// AlertQualityResult is one replay's scorecard.
type AlertQualityResult struct {
	Seed    int64
	Horizon time.Duration
	Polling bool

	// FaultWindows counts every ground-truth window in the schedule;
	// LinkWindows are the alertable (service-degrading) subset scored for
	// recall, ProbeWindows the measurement-noise ones that must not alert.
	FaultWindows int
	LinkWindows  int
	ProbeWindows int

	Detected      int // link windows with at least one alert inside [start, end+grace]
	AlertsFired   int
	TruePositives int
	Precision     float64 // true positives / alerts fired
	Recall        float64 // detected / link windows

	// MTTD is the mean detection latency (fault onset → first alert) over
	// detected windows; DetectP50/DetectMax sketch the distribution.
	MTTD      time.Duration
	DetectP50 time.Duration
	DetectMax time.Duration
	// MTTR is the mean time from a window's repair to its first page-tier
	// alert clearing — how long a resolved fault stays paged.
	MTTR        time.Duration
	Resolutions int

	MeanGoodput    float64 // mean achieved/required across the pairs
	JournalSummary string
}

// ladderMesh builds the 2×cols constant-capacity ladder the scenario runs on.
func ladderMesh(cols int, mbps float64) *mesh.Topology {
	topo := mesh.NewTopology()
	for r := 0; r < 2; r++ {
		for c := 0; c < cols; c++ {
			topo.AddNode(mesh.GridNodeName(r, c))
		}
	}
	link := func(a, b string) {
		tr := trace.Constant(mesh.MakeLinkID(a, b).String(), time.Second, mbps, 24*3600)
		topo.MustAddLink(a, b, tr, 3*time.Millisecond)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c+1 < cols; c++ {
			link(mesh.GridNodeName(r, c), mesh.GridNodeName(r, c+1))
		}
	}
	for c := 0; c < cols; c++ {
		link(mesh.GridNodeName(0, c), mesh.GridNodeName(1, c))
	}
	return topo
}

// alertStorm generates the seeded schedule: alternating 3–6 min outages of
// the two middle links separated by 6–9 min recovery gaps (long enough for
// the page tier to resolve before the next window), with a 1-minute
// probe-loss window on a rung link dropped into roughly half the gaps. The
// gaps exceed detectGrace, so no alert can be attributable to two windows.
func alertStorm(seed int64, horizon time.Duration) *faults.Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched := &faults.Schedule{}
	row := 0
	t := 5 * time.Minute // warm-up: burn windows fill with good epochs first
	for {
		dur := 3*time.Minute + time.Duration(rng.Int63n(int64(3*time.Minute)))
		gap := 6*time.Minute + time.Duration(rng.Int63n(int64(3*time.Minute)))
		if t+dur+detectGrace >= horizon {
			break
		}
		a, b := mesh.GridNodeName(row, 1), mesh.GridNodeName(row, 2)
		sched.Events = append(sched.Events,
			faults.Event{AtSec: t.Seconds(), Type: faults.LinkDown, LinkA: a, LinkB: b},
			faults.Event{AtSec: (t + dur).Seconds(), Type: faults.LinkUp, LinkA: a, LinkB: b},
		)
		if rng.Float64() < 0.5 {
			ps := t + dur + detectGrace + time.Minute
			if ps+time.Minute < t+dur+gap && ps+time.Minute < horizon {
				ra, rb := mesh.GridNodeName(0, 0), mesh.GridNodeName(1, 0)
				sched.Events = append(sched.Events,
					faults.Event{AtSec: ps.Seconds(), Type: faults.ProbeLossStart, LinkA: ra, LinkB: rb},
					faults.Event{AtSec: (ps + time.Minute).Seconds(), Type: faults.ProbeLossEnd, LinkA: ra, LinkB: rb},
				)
			}
		}
		row = 1 - row
		t += dur + gap
	}
	sched.Sort()
	return sched
}

// RunAlertQuality replays one seeded schedule and scores the alert journal.
// Equal seeds yield identical results whatever the net driver or shard count.
func RunAlertQuality(o AlertQualityOptions) (AlertQualityResult, error) {
	if o.Horizon == 0 {
		o.Horizon = 2 * time.Hour
	}
	const rows, cols = 2, 4
	topo := ladderMesh(cols, 25)
	var nodes []cluster.Node
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			nodes = append(nodes, cluster.Node{Name: mesh.GridNodeName(r, c), CPU: 8, MemoryMB: 16384})
		}
	}
	sim, err := core.NewSimulation(topo, nodes, o.Seed, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
		PollingNet:        o.Polling,
		Shards:            o.Shards,
		EnableSLO:         true,
	})
	if err != nil {
		return AlertQualityResult{}, err
	}
	defer sim.Close()
	journal := obs.NewJournal(0)
	sim.AttachObservability(journal, metricstore.New(0))

	var pairs []*pairApp
	for r := 0; r < rows; r++ {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("pair-r%d-%d", r, i)
			p := newPinnedPairApp(name, 5, mesh.GridNodeName(r, 0), mesh.GridNodeName(r, cols-1), 1)
			if _, err := sim.Orch.Deploy(name, p); err != nil {
				return AlertQualityResult{}, err
			}
			pairs = append(pairs, p)
		}
	}

	sched := alertStorm(o.Seed, o.Horizon)
	if err := sched.ValidateWindows(o.Horizon); err != nil {
		return AlertQualityResult{}, err
	}
	if _, err := sim.InjectFaults(sched); err != nil {
		return AlertQualityResult{}, err
	}
	if err := sim.Run(o.Horizon); err != nil {
		return AlertQualityResult{}, err
	}

	res := AlertQualityResult{
		Seed:           o.Seed,
		Horizon:        o.Horizon,
		Polling:        o.Polling,
		JournalSummary: obs.Summarize(journal.Events()),
	}
	goodput := 0.0
	for _, p := range pairs {
		goodput += p.Goodput().Mean()
	}
	res.MeanGoodput = goodput / float64(len(pairs))

	windows := sched.Windows(o.Horizon)
	res.FaultWindows = len(windows)
	var linkWins []faults.Window
	for _, w := range windows {
		switch w.Kind {
		case faults.WindowLink:
			linkWins = append(linkWins, w)
		case faults.WindowProbe:
			res.ProbeWindows++
		}
	}
	res.LinkWindows = len(linkWins)
	res.score(linkWins, journal.Events())
	return res, nil
}

// score matches the journal's alert events against the ground-truth link
// windows: an alert_fired is a true positive when it falls inside some
// window's [start, end+grace]; a window is detected when at least one does.
func (r *AlertQualityResult) score(linkWins []faults.Window, events []obs.Event) {
	var fired, resolved []obs.Event
	for _, ev := range events {
		switch ev.Type {
		case obs.EventAlertFired:
			fired = append(fired, ev)
		case obs.EventAlertResolved:
			resolved = append(resolved, ev)
		}
	}
	r.AlertsFired = len(fired)
	matched := make([]bool, len(fired))
	var latencies, clears []time.Duration
	for _, w := range linkWins {
		first := time.Duration(-1)
		clear := time.Duration(-1)
		for i, ev := range fired {
			if ev.At < w.Start || ev.At > w.End+detectGrace {
				continue
			}
			matched[i] = true
			if first < 0 || ev.At < first {
				first = ev.At
			}
			if !strings.HasPrefix(ev.Reason, "page") {
				continue
			}
			// Repair-to-clear: the first resolve of this page alert at or
			// after the link came back (resolved is in journal time order).
			for _, rv := range resolved {
				if rv.SLO == ev.SLO && rv.Reason == ev.Reason && rv.At >= w.End {
					if clear < 0 || rv.At < clear {
						clear = rv.At
					}
					break
				}
			}
		}
		if first >= 0 {
			r.Detected++
			latencies = append(latencies, first-w.Start)
		}
		if clear >= 0 {
			clears = append(clears, clear-w.End)
		}
	}
	for _, m := range matched {
		if m {
			r.TruePositives++
		}
	}
	if r.AlertsFired > 0 {
		r.Precision = float64(r.TruePositives) / float64(r.AlertsFired)
	}
	if len(linkWins) > 0 {
		r.Recall = float64(r.Detected) / float64(len(linkWins))
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		r.MTTD = sum / time.Duration(len(latencies))
		r.DetectP50 = latencies[len(latencies)/2]
		r.DetectMax = latencies[len(latencies)-1]
	}
	if len(clears) > 0 {
		var sum time.Duration
		for _, c := range clears {
			sum += c
		}
		r.MTTR = sum / time.Duration(len(clears))
		r.Resolutions = len(clears)
	}
}

// Table renders one replay's scorecard.
func (r AlertQualityResult) Table() Table {
	driver := "event-driven"
	if r.Polling {
		driver = "polling"
	}
	return Table{
		Title: fmt.Sprintf("Alert quality: seeded fault replay over %s, %s net (page 1m/5m @14.4x, ticket 5m/30m @6x)",
			r.Horizon, driver),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"fault windows", fmt.Sprintf("%d (%d link, %d probe-loss)", r.FaultWindows, r.LinkWindows, r.ProbeWindows)},
			{"windows detected", fmt.Sprintf("%d of %d", r.Detected, r.LinkWindows)},
			{"alerts fired", fmt.Sprintf("%d (%d true positive)", r.AlertsFired, r.TruePositives)},
			{"precision", f2(r.Precision)},
			{"recall", f2(r.Recall)},
			{"MTTD", fmt.Sprintf("%.1fs", r.MTTD.Seconds())},
			{"detect p50 / max", fmt.Sprintf("%.1fs / %.1fs", r.DetectP50.Seconds(), r.DetectMax.Seconds())},
			{"MTTR (repair→clear)", fmt.Sprintf("%.1fs over %d windows", r.MTTR.Seconds(), r.Resolutions)},
			{"pair mean goodput", f2(r.MeanGoodput)},
			{"journal", r.JournalSummary},
		},
	}
}

func init() {
	register("alertquality", func(p Params) ([]Table, error) {
		r, err := RunAlertQuality(AlertQualityOptions{
			Seed: p.Seed, Horizon: p.Horizon(2 * time.Hour), Shards: p.ShardCount(),
		})
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
}
