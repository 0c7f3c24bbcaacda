// Command bass-sim runs BASS emulation scenarios described by JSON config
// files and prints each application's outcome metrics — the command-line
// front door to the same machinery the experiments use.
//
// Usage:
//
//	bass-sim scenario.json [more.json ...]
//	bass-sim -seeds 4 -workers 2 scenario.json
//	bass-sim -example > scenario.json       # print a starter config
//
// With -seeds N each scenario is replicated across seeds seed..seed+N-1.
// Runs execute on a bounded worker pool (-workers, default GOMAXPROCS); each
// run's output is buffered and printed in config-major, seed-ascending
// order, so the report is byte-identical whatever the worker count.
//
// A config is one JSON object; its keys are scenario.Spec's JSON fields,
// documented there. "apps" lists the applications deployed, in order: a
// "camera", "socialnet", "videoconf" or "stream" entry each ("app": "K" is
// shorthand for [{"K": {}}]). "packLimit" caps a BASS scheduler's packing,
// "controller" sets migration's thresholds and timers (a key left out keeps
// its default; all five at 0 is an error, since that reads as the
// defaults) and "reservedCPU" holds cores back on every node (1 if absent).
// -example prints this starter, Table 2's camera feed entering the mesh at
// node2, with the controller's defaults and "reservedCPU" spelled out:
//
//	{"topology": "citylab", "scheduler": "bfs", "horizonSec": 600,
//	 "seed": 42, "migration": true, "monitorIntervalSec": 30,
//	 "apps": [{"camera": {"frameKB": 30, "pinCamera": "node2"}}]}
//
// "nodes" lists the cluster, each {"name", "cpu", "memoryMB",
// "unschedulable"}, and "topology" joins them: "citylab" (the default) is
// the fixed 5-node CityLab mesh and takes none, "lan" a 1 Gbps, 1 ms full
// mesh over them (node1..node3 at 16 cores and 65,536 MB when absent), and
// "custom" has the links its "links" entries add. This LAN runs the social
// network's workload generator on an unschedulable host:
//
//	{"topology": "lan", "horizonSec": 300,
//	 "nodes": [{"name": "node1", "cpu": 8, "memoryMB": 12288},
//	           {"name": "node2", "cpu": 8, "memoryMB": 12288},
//	           {"name": "client", "cpu": 8, "memoryMB": 8192, "unschedulable": true}],
//	 "apps": [{"socialnet": {"rps": 400, "bursty": true, "clientNode": "client"}}]}
//
// "links" shapes capacity before the run: each entry names a link ("a",
// "b") or a node's "egress" and gives "mbps", "phases" or a "csv" trace
// file, a relative path read from the config's directory. This replays a
// tracegen (or measured) trace on CityLab's node2-node3 link:
//
//	tracegen -profile volatile -duration 20m -out volatile.csv
//	{"topology": "citylab", "horizonSec": 1200, "app": "socialnet",
//	 "links": [{"a": "node2", "b": "node3", "csv": "volatile.csv"}]}
//
// On "custom" each entry adds its link instead, 3 ms one way (custom takes
// no "egress"). This is Fig 8's mesh and pair:
//
//	{"topology": "custom", "scheduler": "bfs", "horizonSec": 1500,
//	 "migration": true, "monitorIntervalSec": 30, "migrationDowntimeSec": 10,
//	 "reservedCPU": 0,
//	 "nodes": [{"name": "node3", "cpu": 3, "memoryMB": 4096},
//	           {"name": "node4", "cpu": 8, "memoryMB": 8192},
//	           {"name": "node1", "cpu": 8, "memoryMB": 8192}],
//	 "links": [
//	   {"a": "node3", "b": "node4", "phases": [
//	     {"durationSec": 540, "mbps": 25}, {"durationSec": 579, "mbps": 7},
//	     {"durationSec": 381, "mbps": 25}]},
//	   {"a": "node1", "b": "node3", "phases": [
//	     {"durationSec": 1119, "mbps": 20}, {"durationSec": 381, "mbps": 3}]},
//	   {"a": "node1", "b": "node4", "mbps": 20}],
//	 "apps": [{"stream": {"name": "pair", "sampleGoodput": true,
//	   "components": [{"name": "producer", "cpu": 2, "pin": "node3"},
//	                  {"name": "consumer", "cpu": 2}],
//	   "edges": [{"from": "producer", "to": "consumer", "mbps": 8}]}}]}
//
// "faults" lists explicit fault events and "chaos" arms the seeded generator;
// either adds a recovery report (detections, failovers, MTTR). "migration":
// true runs the control loop, its failure detector and the reconciler, whose
// convergence summary every such run prints. "slo" appends a budget/alert
// summary; pair it with -events-out to capture the alert journal for
// bass-trace. "slo" needs "migration": true: the SLO tick runs only in the
// control loop, so without it it is an error.
//
// -events-out writes the decision journal as JSONL and -metrics-out the
// metric series as JSON; `bass-trace convert` turns a journal into Chrome
// trace-event JSON for Perfetto.
//
// Every config is decoded and validated, and every trace file it cites
// read, before anything runs: an unknown key (among them "reconcile", which
// the schema no longer has: the reconciler runs whenever migration does), a
// negative size or rate, seconds too large for a duration, a fraction
// outside [0, 1], "slo" without "migration", an unknown name, a node list
// the topology does not take or an empty or repeated node name, a malformed
// apps or links entry, a node or link the topology lacks, a pin on an
// unschedulable node, or a missing or malformed trace file is an error
// naming the file and key (and trace line).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"bass/internal/core"
	"bass/internal/experiments"
	"bass/internal/faults"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scenario"
	"bass/internal/slo"
)

func exampleScenario() scenario.Spec {
	return scenario.Spec{
		Topology:           "citylab",
		Apps:               []scenario.App{{Camera: &scenario.Camera{FrameKB: 30, PinCamera: "node2"}}},
		Scheduler:          "bfs",
		HorizonSec:         600,
		Seed:               42,
		Migration:          true,
		MonitorIntervalSec: 30,
		Controller:         scenario.DefaultController(),
		ReservedCPU:        1,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bass-sim:", err)
		os.Exit(1)
	}
}

// runSpec is one scheduled scenario execution.
type runSpec struct {
	label string
	sc    scenario.Spec
	// eventsPath/metricsPath, when non-empty, receive the run's decision
	// journal (JSONL) and metric-store dump (JSON).
	eventsPath  string
	metricsPath string
}

// derivePath returns the per-run output path: the base itself for a single
// run, or the base with a ".NNN" run index inserted before the extension so
// parallel multi-run invocations never clobber each other's journals.
func derivePath(base string, i, total int) string {
	if base == "" || total == 1 {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.%03d%s", strings.TrimSuffix(base, ext), i, ext)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bass-sim", flag.ContinueOnError)
	example := fs.Bool("example", false, "print a starter scenario and exit")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel scenario runs (1 = sequential)")
	seeds := fs.Int("seeds", 1, "per-scenario seed replicas (seed, seed+1, ...)")
	eventsOut := fs.String("events-out", "", "write the decision journal as JSONL to this path (\".NNN\" run index inserted when running multiple scenarios)")
	metricsOut := fs.String("metrics-out", "", "write the collected metric series as JSON to this path (\".NNN\" run index inserted when running multiple scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *example {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(exampleScenario())
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("missing scenario config (try -example)")
	}
	if *seeds < 1 {
		return fmt.Errorf("seeds must be >= 1, got %d", *seeds)
	}

	// Load and validate every config before running anything.
	specs := make([]runSpec, 0, len(paths)**seeds)
	for _, p := range paths {
		sc, err := scenario.Load(p)
		if err != nil {
			return err
		}
		for s := 0; s < *seeds; s++ {
			replica := sc
			replica.Seed = sc.Seed + int64(s)
			specs = append(specs, runSpec{
				label: fmt.Sprintf("%s seed=%d", p, replica.Seed),
				sc:    replica,
			})
		}
	}
	for i := range specs {
		specs[i].eventsPath = derivePath(*eventsOut, i, len(specs))
		specs[i].metricsPath = derivePath(*metricsOut, i, len(specs))
	}
	return executeAll(specs, *workers, stdout)
}

// runOutput is one run's buffered report and error.
type runOutput struct {
	report bytes.Buffer
	err    error
}

// executeAll runs every spec on the experiments' ordered worker pool,
// buffering each run's output and flushing in input order so reports are
// deterministic.
func executeAll(specs []runSpec, workers int, stdout io.Writer) error {
	outputs := experiments.Ordered(specs, workers, func(s runSpec) *runOutput {
		o := &runOutput{}
		o.err = executeObserved(s.sc, &o.report, s.eventsPath, s.metricsPath)
		return o
	}, nil)
	var firstErr error
	for i, spec := range specs {
		if len(specs) > 1 {
			fmt.Fprintf(stdout, "=== %s ===\n", spec.label)
		}
		if _, err := io.Copy(stdout, &outputs[i].report); err != nil {
			return err
		}
		if err := outputs[i].err; err != nil {
			fmt.Fprintf(stdout, "error: %v\n", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", spec.label, err)
			}
		}
		if len(specs) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return firstErr
}

// executeObserved runs one scenario; non-empty eventsPath/metricsPath attach
// the observability plane and write the decision journal (JSONL) and metric
// dump (JSON) after the run. Runs without either path attach nothing.
func executeObserved(sc scenario.Spec, out io.Writer, eventsPath, metricsPath string) error {
	sc.Journal, sc.Metrics = eventsPath != "", metricsPath != ""
	run, err := scenario.Build(sc)
	if err != nil {
		return err
	}
	if err := run.Complete(); err != nil {
		return err
	}
	reportApp(run, out)
	sim := run.Sim
	migs := sim.Orch.Migrations()
	fmt.Fprintf(out, "migrations: %d\n", len(migs))
	for _, m := range migs {
		fmt.Fprintf(out, "  t=%.0fs %s: %s -> %s\n", m.At.Seconds(), m.Component, m.From, m.To)
	}
	stats := sim.Orch.Monitor().Stats()
	fmt.Fprintf(out, "probing: %d full, %d headroom, %.1f Mbit injected\n",
		stats.FullProbes, stats.HeadroomProbes, stats.OverheadMbits)
	if run.Faults != nil {
		reportRecovery(sim, run.Faults, out)
	}
	if rec := sim.Orch.Reconciler(); rec != nil {
		fmt.Fprintf(out, "reconcile: converged=%t drift=%d drifts=%d actions=%d sheds=%d restores=%d episodes=%d\n",
			rec.Converged(), rec.OutstandingDrift(), rec.DriftsSeen(),
			rec.ActionsTotal(), rec.Sheds(), rec.Restores(), len(rec.Converges()))
	}
	if ev := sim.Orch.SLO(); ev != nil {
		reportSLO(ev, out)
		// Host time differs run to run and stdout is byte-identical per seed
		// (TestScenarioContracts pins its SHA-256), so the slo: line's
		// wall-clock half goes to stderr:
		// what the evaluator cost next to the control cycles WallNS covers.
		cs := sim.Orch.ControlStats()
		fmt.Fprintf(os.Stderr, "slo: seed=%d epochs=%d tick_wall_ms=%.3f control_wall_ms=%.3f\n",
			sc.Seed, cs.Cycles, float64(cs.SLOTickNS)/1e6, float64(cs.WallNS)/1e6)
	}
	if run.Journal != nil {
		if err := writeJournal(run.Journal, eventsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "journal: %d events (%d evicted) -> %s\n",
			run.Journal.Len(), run.Journal.Dropped(), eventsPath)
	}
	if metricsPath != "" {
		if err := writeMetrics(run.Store, metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %d series -> %s\n", len(run.Store.Snapshot()), metricsPath)
	}
	return nil
}

// writeJournal dumps the decision journal as JSONL — same seed, same bytes.
func writeJournal(journal *obs.Journal, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := journal.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps every collected series as indented JSON, sorted by
// canonical series key.
func writeMetrics(store *metricstore.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(store.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportSLO prints the end-of-run SLO scoreboard: one summary line, then one
// line per spec with its verdict and error budget remaining.
func reportSLO(ev *slo.Evaluator, out io.Writer) {
	specs := ev.Snapshot()
	good := 0
	for _, s := range specs {
		if s.Good {
			good++
		}
	}
	fmt.Fprintf(out, "slo: specs=%d good=%d firing=%d\n", len(specs), good, ev.Firing())
	for _, s := range specs {
		verdict := "good"
		switch {
		case !s.HasData:
			verdict = "no-data"
		case !s.Good:
			verdict = "bad"
		}
		fmt.Fprintf(out, "  %-20s %-7s budget=%.1f%%\n", s.Name, verdict, 100*s.Budget)
	}
}

// reportRecovery prints the failure-handling summary for runs with faults.
func reportRecovery(sim *core.Simulation, sched *faults.Schedule, out io.Writer) {
	var parts []string
	for _, c := range sched.Counts() {
		parts = append(parts, fmt.Sprintf("%s=%d", c.Type, c.Count))
	}
	fmt.Fprintf(out, "faults: %s\n", strings.Join(parts, " "))
	rep := sim.Orch.RecoveryReport()
	fmt.Fprintf(out, "recovery: detections=%d failovers=%d queued=%d mttrMean=%.1fs mttrMax=%.1fs transfersFailed=%d\n",
		len(rep.Detections), len(rep.Failovers), rep.QueuedNow,
		rep.MTTRMean.Seconds(), rep.MTTRMax.Seconds(), sim.Net.FailedTransfers())
	for _, d := range rep.Detections {
		fmt.Fprintf(out, "  t=%.0fs node-down %s (%d components stranded)\n",
			d.DetectedAt.Seconds(), d.Node, d.Components)
	}
	for _, fo := range rep.Failovers {
		src := ""
		if fo.FromQueue {
			src = " (from queue)"
		}
		fmt.Fprintf(out, "  t=%.0fs failover %s/%s: %s -> %s attempts=%d%s\n",
			fo.At.Seconds(), fo.App, fo.Component, fo.From, fo.To, fo.Attempts, src)
	}
}

// reportApp writes each deployed application's metrics: the paper
// applications, then the streams in entry order.
func reportApp(run *scenario.Run, out io.Writer) {
	if run.Camera != nil {
		published, sampled, annotated, dropped := run.Camera.Counters()
		fmt.Fprintf(out, "camera: %s\n", run.Camera.Latency().Histogram().Summary())
		fmt.Fprintf(out, "frames: published=%d sampled=%d annotated=%d dropped=%d\n",
			published, sampled, annotated, dropped)
	}
	if run.Social != nil {
		fmt.Fprintf(out, "socialnet (%d requests): %s\n", run.Social.Requests(), run.Social.Latency().Histogram().Summary())
	}
	if run.Video != nil {
		for _, s := range run.Video.StatsByNode() {
			fmt.Fprintf(out, "videoconf %s: median=%.2f Mbps mean=%.2f Mbps loss=%.1f%% (%d clients)\n",
				s.Node, s.MedianBitrateMbps, s.MeanBitrateMbps, 100*s.MeanLossFrac, s.Clients)
		}
	}
	for _, s := range run.Streams {
		achieved, required, cross := s.Measure()
		fmt.Fprintf(out, "stream %s: %.2f of %.2f Mbps delivered at the horizon, %d cross-node edges\n",
			s.Graph().AppName, achieved, required, cross)
		if g := s.Goodput(); g != nil {
			fmt.Fprintf(out, "  goodput mean=%.3f over %d samples\n", g.Mean(), g.Len())
		}
	}
}
