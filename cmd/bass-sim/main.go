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
// Config schema (JSON):
//
//	{
//	  "topology": "citylab" | "lan",
//	  "lanNodes": 3, "lanNodeCPU": 16, "lanNodeMemMB": 65536,
//	  "app": "camera" | "socialnet" | "videoconf",
//	  "scheduler": "bfs" | "longest-path" | "k3s",
//	  "horizonSec": 600, "seed": 42,
//	  "migration": true, "monitorIntervalSec": 30,
//	  "reconcile": true, "slo": true,
//	  "batch": true, "batchBudget": 256, "batchK": 4,
//	  "rps": 50, "clientNode": "node1",
//	  "participantsPerNode": 3, "publishMbps": 0.5,
//	  "faults": [{"atSec": 120, "type": "node-crash", "node": "node2"}],
//	  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 120,
//	            "linkFlapsPerHour": 6, "meanLinkDowntimeSec": 30}
//	}
//
// "faults" lists explicit fault events; "chaos" arms the seeded generator
// (rates per hour, durations in seconds) over the run horizon. Either — or
// both — add a recovery report (detections, failovers, MTTR) to the output.
// Explicit fault lists are window-validated before generated chaos is merged
// on top; a schedule with overlapping windows on one element, an unmatched
// recovery, or an event at or past the horizon is rejected before anything
// runs. "reconcile" hands failure handling to the declarative reconciliation
// loop and appends its convergence summary. "batch" places each application
// DAG as one joint decision, refined by the budgeted k-best search;
// "batchBudget" and "batchK" tune it. "slo" runs the burn-rate SLO evaluator
// over the run — mesh headroom, control-loop cadence, and per-app goodput
// specs — and appends a budget/alert summary; pair it with -events-out to
// capture the alert journal for bass-trace.
//
// A key outside this schema is an error, reported with the file name before
// anything runs: a misspelt key would otherwise run a different scenario.
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
	"sync"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/apps/socialnet"
	"bass/internal/apps/videoconf"
	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/obs"
	"bass/internal/scheduler"
	"bass/internal/slo"
	"bass/internal/workload"
)

// scenario is the JSON configuration.
type scenario struct {
	Topology     string  `json:"topology"`
	LANNodes     int     `json:"lanNodes,omitempty"`
	LANNodeCPU   float64 `json:"lanNodeCPU,omitempty"`
	LANNodeMemMB float64 `json:"lanNodeMemMB,omitempty"`

	App       string `json:"app"`
	Scheduler string `json:"scheduler"`

	HorizonSec         int   `json:"horizonSec"`
	Seed               int64 `json:"seed"`
	Migration          bool  `json:"migration"`
	MonitorIntervalSec int   `json:"monitorIntervalSec,omitempty"`
	// Reconcile enables the declarative reconciliation loop: desired-state
	// specs, drift detection, idempotent convergence with the degraded-mode
	// ladder. The recovery summary gains a reconcile line.
	Reconcile bool `json:"reconcile,omitempty"`
	// SLO runs the burn-rate SLO evaluator each control epoch (mesh
	// headroom, control-loop cadence, per-app dependency goodput) and
	// appends a budget/alert summary line. A metric store is attached
	// automatically — the evaluator reads SLIs from it.
	SLO bool `json:"slo,omitempty"`
	// Batch wraps the scheduler in the batch placement mode: each DAG is
	// placed as one joint decision refined by a budgeted k-best local search
	// over the greedy seed. BatchBudget bounds the search's joint-candidate
	// evaluations per DAG (0 = the core default; negative = zero-move
	// passthrough, byte-identical to the plain scheduler); BatchK sets the
	// frontier width (0 = default).
	Batch       bool `json:"batch,omitempty"`
	BatchBudget int  `json:"batchBudget,omitempty"`
	BatchK      int  `json:"batchK,omitempty"`

	// Social network.
	RPS        float64 `json:"rps,omitempty"`
	ClientNode string  `json:"clientNode,omitempty"`

	// Video conferencing.
	ParticipantsPerNode int     `json:"participantsPerNode,omitempty"`
	PublishMbps         float64 `json:"publishMbps,omitempty"`

	// Fault injection: an explicit event schedule, a seeded chaos generator,
	// or both (events merge, sorted by time).
	Faults []faults.Event `json:"faults,omitempty"`
	Chaos  *chaosConfig   `json:"chaos,omitempty"`
}

// chaosConfig parameterises the seeded fault generator (rates are per hour,
// durations in seconds). The scenario seed drives the generator, so replicas
// under -seeds each get their own storm and equal seeds reproduce exactly.
type chaosConfig struct {
	NodeCrashesPerHour      float64  `json:"nodeCrashesPerHour,omitempty"`
	MeanNodeDowntimeSec     float64  `json:"meanNodeDowntimeSec,omitempty"`
	LinkFlapsPerHour        float64  `json:"linkFlapsPerHour,omitempty"`
	MeanLinkDowntimeSec     float64  `json:"meanLinkDowntimeSec,omitempty"`
	ProbeLossWindowsPerHour float64  `json:"probeLossWindowsPerHour,omitempty"`
	MeanProbeLossWindowSec  float64  `json:"meanProbeLossWindowSec,omitempty"`
	Protected               []string `json:"protected,omitempty"`
}

// buildSchedule assembles the scenario's fault schedule, nil when the
// scenario declares no faults. The explicit fault list is window-validated
// against the horizon BEFORE generated chaos is merged on top: the generator
// never overlaps windows on one element by construction, but a merged
// schedule legitimately stacks explicit and generated windows, so post-merge
// validation would reject working scenarios.
func buildSchedule(sc scenario, topo *mesh.Topology, horizon time.Duration) (*faults.Schedule, error) {
	if len(sc.Faults) == 0 && sc.Chaos == nil {
		return nil, nil
	}
	sched := &faults.Schedule{Events: append([]faults.Event(nil), sc.Faults...)}
	if err := sched.ValidateWindows(horizon); err != nil {
		return nil, err
	}
	if c := sc.Chaos; c != nil {
		gcfg := faults.GeneratorConfig{
			Seed:                    sc.Seed,
			Horizon:                 horizon,
			NodeCrashesPerHour:      c.NodeCrashesPerHour,
			MeanNodeDowntime:        time.Duration(c.MeanNodeDowntimeSec * float64(time.Second)),
			LinkFlapsPerHour:        c.LinkFlapsPerHour,
			MeanLinkDowntime:        time.Duration(c.MeanLinkDowntimeSec * float64(time.Second)),
			ProbeLossWindowsPerHour: c.ProbeLossWindowsPerHour,
			MeanProbeLossWindow:     time.Duration(c.MeanProbeLossWindowSec * float64(time.Second)),
			Protected:               c.Protected,
		}
		if err := gcfg.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		sched.Events = append(sched.Events, faults.Generate(topo, gcfg).Events...)
	}
	sched.Sort()
	return sched, nil
}

func exampleScenario() scenario {
	return scenario{
		Topology:           "citylab",
		App:                "camera",
		Scheduler:          "bfs",
		HorizonSec:         600,
		Seed:               42,
		Migration:          true,
		MonitorIntervalSec: 30,
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
	sc    scenario
	// eventsPath/metricsPath/tracePath, when non-empty, receive the run's
	// decision journal (JSONL), metric-store dump (JSON), and Chrome
	// trace-event export (JSON, loadable in Perfetto).
	eventsPath  string
	metricsPath string
	tracePath   string
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
	traceOut := fs.String("trace-out", "", "write the decision journal as Chrome trace-event JSON (Perfetto-loadable) to this path (\".NNN\" run index inserted when running multiple scenarios)")
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
		sc, err := loadScenario(p)
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
		specs[i].tracePath = derivePath(*traceOut, i, len(specs))
	}
	return executeAll(specs, *workers, stdout)
}

// loadScenario decodes one scenario file. Unknown keys and trailing data are
// errors naming the file, so a typo such as "migraton" cannot silently run a
// different scenario.
func loadScenario(path string) (scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario{}, err
	}
	defer f.Close()
	var sc scenario
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return scenario{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return scenario{}, fmt.Errorf("parse %s: trailing data after the scenario object", path)
	}
	return sc, nil
}

// executeAll runs every spec across a bounded worker pool, buffering each
// run's output and flushing in input order so reports are deterministic.
func executeAll(specs []runSpec, workers int, stdout io.Writer) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	outputs := make([]bytes.Buffer, len(specs))
	errs := make([]error, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = executeObserved(specs[i].sc, &outputs[i], specs[i].eventsPath, specs[i].metricsPath, specs[i].tracePath)
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var firstErr error
	for i, spec := range specs {
		if len(specs) > 1 {
			fmt.Fprintf(stdout, "=== %s ===\n", spec.label)
		}
		if _, err := io.Copy(stdout, &outputs[i]); err != nil {
			return err
		}
		if errs[i] != nil {
			fmt.Fprintf(stdout, "error: %v\n", errs[i])
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", spec.label, errs[i])
			}
		}
		if len(specs) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return firstErr
}

func execute(sc scenario, out io.Writer) error {
	return executeObserved(sc, out, "", "", "")
}

// executeObserved runs one scenario; non-empty eventsPath/metricsPath/
// tracePath attach the observability plane and write the decision journal
// (JSONL), metric dump (JSON), and Chrome trace export after the run. Runs
// without any path attach nothing, so their output bytes — and hot paths —
// are identical to earlier releases.
func executeObserved(sc scenario, out io.Writer, eventsPath, metricsPath, tracePath string) error {
	if sc.HorizonSec <= 0 {
		sc.HorizonSec = 600
	}
	horizon := time.Duration(sc.HorizonSec) * time.Second

	topo, nodes, err := buildTopology(sc, horizon)
	if err != nil {
		return err
	}
	policy, err := buildPolicy(sc.Scheduler)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Policy:          policy,
		EnableMigration: sc.Migration,
		EnableReconcile: sc.Reconcile,
		EnableSLO:       sc.SLO,
		ReservedCPU:     1,
	}
	if sc.Batch {
		cfg.BatchPlacement = true
		cfg.Batch = scheduler.BatchConfig{MoveBudget: sc.BatchBudget, K: sc.BatchK}
	}
	if sc.MonitorIntervalSec > 0 {
		cfg.MonitorInterval = time.Duration(sc.MonitorIntervalSec) * time.Second
	}
	sim, err := core.NewSimulation(topo, nodes, sc.Seed, cfg)
	if err != nil {
		return err
	}
	defer sim.Close()

	var journal *obs.Journal
	var store *metricstore.Store
	if eventsPath != "" || metricsPath != "" || tracePath != "" || sc.SLO {
		if eventsPath != "" || tracePath != "" {
			journal = obs.NewJournal(0)
		}
		if metricsPath != "" || sc.SLO {
			// The SLO evaluator reads its SLIs back from the store, so "slo"
			// attaches one even when no -metrics-out dump was requested.
			store = metricstore.New(0)
		}
		sim.AttachObservability(journal, store)
	}

	sched, err := buildSchedule(sc, topo, horizon)
	if err != nil {
		return err
	}
	if sched != nil {
		if _, err := sim.InjectFaults(sched); err != nil {
			return err
		}
	}

	report, err := deployApp(sc, sim, out)
	if err != nil {
		return err
	}
	if err := sim.Run(horizon); err != nil {
		return err
	}
	report()

	migs := sim.Orch.Migrations()
	fmt.Fprintf(out, "migrations: %d\n", len(migs))
	for _, m := range migs {
		fmt.Fprintf(out, "  t=%.0fs %s: %s -> %s\n", m.At.Seconds(), m.Component, m.From, m.To)
	}
	stats := sim.Orch.Monitor().Stats()
	fmt.Fprintf(out, "probing: %d full, %d headroom, %.1f Mbit injected\n",
		stats.FullProbes, stats.HeadroomProbes, stats.OverheadMbits)
	if sched != nil {
		reportRecovery(sim, sched, out)
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
	if journal != nil && eventsPath != "" {
		if err := writeJournal(journal, eventsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "journal: %d events (%d evicted) -> %s\n",
			journal.Len(), journal.Dropped(), eventsPath)
	}
	if journal != nil && tracePath != "" {
		if err := writeTrace(journal, tracePath); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events -> %s\n", journal.Len(), tracePath)
	}
	if store != nil && metricsPath != "" {
		if err := writeMetrics(store, metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %d series -> %s\n", len(store.Snapshot()), metricsPath)
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

// writeTrace exports the journal's span tree in Chrome trace-event format —
// loadable in Perfetto / chrome://tracing. Same seed, same bytes.
func writeTrace(journal *obs.Journal, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, journal.Events()); err != nil {
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
// Runs without a fault schedule never reach here, so fault-free scenario
// output is byte-identical to earlier releases.
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

func buildTopology(sc scenario, horizon time.Duration) (*mesh.Topology, []cluster.Node, error) {
	switch sc.Topology {
	case "citylab", "":
		topo, err := mesh.CityLab(mesh.CityLabOptions{Seed: sc.Seed, Duration: horizon})
		if err != nil {
			return nil, nil, err
		}
		nodes := []cluster.Node{
			{Name: mesh.CityLabControl, CPU: 12, MemoryMB: 8192, Unschedulable: true},
			{Name: mesh.CityLabNode1, CPU: 12, MemoryMB: 8192},
			{Name: mesh.CityLabNode2, CPU: 8, MemoryMB: 8192},
			{Name: mesh.CityLabNode3, CPU: 12, MemoryMB: 8192},
			{Name: mesh.CityLabNode4, CPU: 8, MemoryMB: 8192},
		}
		return topo, nodes, nil
	case "lan":
		n := sc.LANNodes
		if n <= 0 {
			n = 3
		}
		cpu := sc.LANNodeCPU
		if cpu <= 0 {
			cpu = 16
		}
		mem := sc.LANNodeMemMB
		if mem <= 0 {
			mem = 65536
		}
		nodes := make([]cluster.Node, n)
		names := make([]string, n)
		for i := range nodes {
			names[i] = fmt.Sprintf("node%d", i+1)
			nodes[i] = cluster.Node{Name: names[i], CPU: cpu, MemoryMB: mem}
		}
		topo := mesh.FullMesh(names, 1000, time.Millisecond, horizon)
		return topo, nodes, nil
	default:
		return nil, nil, fmt.Errorf("unknown topology %q", sc.Topology)
	}
}

func buildPolicy(name string) (scheduler.Policy, error) {
	switch name {
	case "bfs":
		return scheduler.NewBass(scheduler.HeuristicBFS), nil
	case "longest-path", "", "lp":
		return scheduler.NewBass(scheduler.HeuristicLongestPath), nil
	case "k3s":
		return scheduler.NewK3s(), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// deployApp deploys the configured workload and returns a closure that
// writes its metrics to out after the run.
func deployApp(sc scenario, sim *core.Simulation, out io.Writer) (func(), error) {
	switch sc.App {
	case "camera", "":
		app, err := camera.New(camera.Config{})
		if err != nil {
			return nil, err
		}
		if _, err := sim.Orch.Deploy("camera", app); err != nil {
			return nil, err
		}
		return func() {
			published, sampled, annotated, dropped := app.Counters()
			fmt.Fprintf(out, "camera: %s\n", app.Latency().Histogram().Summary())
			fmt.Fprintf(out, "frames: published=%d sampled=%d annotated=%d dropped=%d\n",
				published, sampled, annotated, dropped)
		}, nil
	case "socialnet":
		clientNode := sc.ClientNode
		if clientNode == "" {
			clientNode = mesh.CityLabNode1
		}
		rps := sc.RPS
		if rps <= 0 {
			rps = 50
		}
		app, err := socialnet.New(socialnet.Config{
			ClientNode: clientNode,
			Arrival:    workload.Constant{PerSecond: rps},
		})
		if err != nil {
			return nil, err
		}
		if _, err := sim.Orch.Deploy("socialnet", app); err != nil {
			return nil, err
		}
		return func() {
			fmt.Fprintf(out, "socialnet (%d requests): %s\n", app.Requests(), app.Latency().Histogram().Summary())
		}, nil
	case "videoconf":
		per := sc.ParticipantsPerNode
		if per <= 0 {
			per = 3
		}
		publish := sc.PublishMbps
		if publish <= 0 {
			publish = 0.5
		}
		clients := make(map[string]int)
		for _, n := range sim.Cluster.SchedulableNodes() {
			clients[n] = per
		}
		app, err := videoconf.New(videoconf.Config{
			ClientsPerNode: clients,
			PublishMbps:    publish,
		})
		if err != nil {
			return nil, err
		}
		if _, err := sim.Orch.Deploy("videoconf", app); err != nil {
			return nil, err
		}
		return func() {
			for _, s := range app.StatsByNode() {
				fmt.Fprintf(out, "videoconf %s: median=%.2f Mbps mean=%.2f Mbps loss=%.1f%% (%d clients)\n",
					s.Node, s.MedianBitrateMbps, s.MeanBitrateMbps, 100*s.MeanLossFrac, s.Clients)
			}
		}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", sc.App)
	}
}
