package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// Metric kinds. Host numbers are wall time or memory of the bench's own
// process and carry sandbox noise; sim numbers are virtual time or simulated
// outcomes and repeat exactly at equal seed — they are the guard that a
// host-time speed-up changed no behaviour. Counts are exact program counters.
const (
	kindHost  = "host"
	kindSim   = "sim"
	kindCount = "count"
)

// timingFloorMS is the size below which a whole-phase timing is printed but
// not compared: under 50 ms the sandbox's scheduling noise is the number.
const timingFloorMS = 50

// metricDef declares one metric: the single source for -list, the comparator
// and BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	kind   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which the metric may get
	// worse before it counts as regressed. Sim and count metrics additionally
	// compare exactly when both result sets used the same seed.
	bound float64
	// gated metrics are BENCHMARK.json's end_to_end: reported, non-zero, on
	// every workload. Everything else is listed there under per_layer.
	gated bool
	// on lists the workloads the metric applies to (nil = all).
	on []string
	// floorScale, when set, marks a whole-phase duration subject to
	// timingFloorMS and converts the metric's unit to ms.
	floorScale float64
	what       string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	wMesh  = "paper-mesh"
	wFlows = "city-flows"
	wStorm = "city-storm"
	wBatch = "city-batch"
	wChaos = "town-chaos"
)

var (
	controlled = []string{wMesh, wStorm, wChaos} // workloads whose controller loop runs
	orchestrd  = []string{wMesh, wStorm, wBatch, wChaos}
	observed   = []string{wMesh, wStorm, wChaos} // journal + store attached
)

// endToEnd are the metrics a user of the system would see. The gated four are
// the ones that are defined, non-zero and steady from seed to seed on every
// workload, which is what the driver requires of BENCHMARK.json's end_to_end;
// their bounds are sized to this sandbox's drift (see README, "What the
// driver gates"). The others apply to some workloads only.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", kind: kindHost, better: "lower", bound: 0.25, gated: true, floorScale: 1000,
		what: "topology + traces + cluster + NewSimulation/Bootstrap + observability + installing the population"},
	{name: "total_s", unit: "s", kind: kindHost, better: "lower", bound: 0.25, gated: true,
		what: "set-up plus run phase: host seconds to build the scenario and simulate it to the horizon"},
	{name: "peak_rss_mb", unit: "MB", kind: kindHost, better: "lower", bound: 0.25, gated: true,
		what: "VmHWM of the rep's own process at the end of the run phase"},
	{name: "goodput_frac", unit: "frac", kind: kindSim, better: "higher", bound: 0.10, gated: true,
		what: "sum min(rate,demand) / sum demand over streams and DAG edges, mean over epoch samples"},

	{name: "place_ms_p50", unit: "ms", kind: kindHost, better: "lower", bound: 0.25, on: []string{wStorm, wBatch},
		what: "host ms per Orch.Deploy, median"},
	{name: "place_ms_p90", unit: "ms", kind: kindHost, better: "lower", bound: 0.25, on: []string{wStorm, wBatch},
		what: "host ms per Orch.Deploy, p90"},
	{name: "realtime_x", unit: "x", kind: kindHost, better: "higher", bound: 0.25, on: []string{wMesh, wFlows, wStorm, wChaos},
		what: "simulated seconds per host second of the run phase"},
	{name: "epoch_ms_p50", unit: "ms", kind: kindHost, better: "lower", bound: 0.25, on: []string{wStorm, wChaos},
		what: "host ms to advance one 30 s monitor interval, median"},
	{name: "epoch_ms_p99", unit: "ms", kind: kindHost, better: "lower", bound: 0.25, on: []string{wChaos},
		what: "host ms to advance one monitor interval, p99 (needs >= 1,100 epochs, pooled over reps)"},
	{name: "decisions_per_s", unit: "1/s", kind: kindHost, better: "higher", bound: 0.25, on: []string{wStorm, wChaos},
		what: "AppEvaluations per host second of ControlStats.WallNS (the BENCH_sched.json base)"},
	{name: "allocs_per_sim_s", unit: "1/s", kind: kindHost, better: "lower", bound: 0.02, on: []string{wMesh, wFlows, wStorm, wChaos},
		what: "heap allocations over the run phase per simulated second"},
	{name: "mttr_sim_s", unit: "s", kind: kindSim, better: "lower", on: []string{wChaos},
		what: "RecoveryReport.MTTRMean"},
	{name: "req_mean_sim_s", unit: "s", kind: kindSim, better: "lower", on: []string{wMesh},
		what: "socialnet mean request latency"},
	{name: "ops_failed_frac", unit: "frac", kind: kindSim, better: "lower",
		what: "failed / attempted over deploys, AddStreams, requests+frames, path queries, components at horizon"},
}

// perLayer are single-layer metrics: exact counters, spans the bench times
// around public calls, post-horizon probes on the run's warm state, and
// event-class self times from the traced pass. They have no bound.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count", kind: kindCount, better: "lower", what: "engine events executed"},
	{name: "sim.dispatch_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: no-op At+Run per event on a fresh engine"},
	{name: "sim.other_self_s", unit: "s", kind: kindHost, better: "lower", what: "class: events that moved no layer counter (app timers, transfers, absorbed passes)"},

	{name: "trace.gen_ms", unit: "ms", kind: kindHost, better: "lower", what: "probe: trace.Generate at the workload horizon"},
	{name: "trace.walk_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: NextChangeAfter per change-point walked"},

	{name: "mesh.build_s", unit: "s", kind: kindHost, better: "lower", what: "span: mesh.Grid / mesh.CityLab"},
	{name: "mesh.route_warm_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: Route, cached"},
	{name: "mesh.route_cold_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: Route after an availability-epoch bump"},

	{name: "simnet.full_passes", unit: "count", kind: kindCount, better: "lower", what: "water-filling recomputations"},
	{name: "simnet.skipped_passes", unit: "count", kind: kindCount, better: "higher", what: "reallocation requests absorbed incrementally"},
	{name: "simnet.flows", unit: "count", kind: kindCount, better: "lower", what: "streams + transfers live at horizon"},
	{name: "simnet.install_s", unit: "s", kind: kindHost, better: "lower", on: []string{wFlows}, what: "span: the Batch of AddStreams"},
	{name: "simnet.pass_self_s", unit: "s", kind: kindHost, better: "lower", what: "class: events in which FullPasses advanced"},
	{name: "simnet.pass_ms_p50", unit: "ms", kind: kindHost, better: "lower", what: "class: median duration of such an event"},
	{name: "simnet.query_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: PathAllocatedMbps + PathLatencyOf + rate read"},
	{name: "simnet.flow_churn_us", unit: "us", kind: kindHost, better: "lower", what: "probe: un-batched AddStream + RemoveStream on the loaded net"},
	{name: "simnet.shards2_x", unit: "x", kind: kindHost, better: "higher", on: []string{wFlows}, what: "serial run wall / SetShards(2) run wall, one extra rep"},

	{name: "netmon.oracle_hit_frac", unit: "frac", kind: kindCount, better: "higher", on: orchestrd, what: "path oracle Hits / (Hits+Misses)"},
	{name: "netmon.probes", unit: "count", kind: kindCount, better: "lower", on: orchestrd, what: "full + headroom probes"},
	{name: "netmon.probe_overhead_mbit", unit: "Mbit", kind: kindSim, better: "lower", on: orchestrd, what: "traffic injected by probes"},
	{name: "netmon.sweep_ms", unit: "ms", kind: kindHost, better: "lower", on: orchestrd, what: "probe: HeadroomProbeAll"},
	{name: "netmon.path_hit_ns", unit: "ns", kind: kindHost, better: "lower", on: orchestrd, what: "probe: PathMetricsBatch per request, warm"},
	{name: "netmon.path_miss_ns", unit: "ns", kind: kindHost, better: "lower", on: orchestrd, what: "probe: PathMetricsBatch per request after an epoch bump"},

	{name: "core.cycles", unit: "count", kind: kindCount, better: "lower", on: controlled, what: "controller epochs"},
	{name: "core.app_evals", unit: "count", kind: kindCount, better: "lower", on: controlled, what: "per-app evaluations"},
	{name: "core.target_scans", unit: "count", kind: kindCount, better: "lower", on: controlled, what: "migration-target searches"},
	{name: "core.migrations", unit: "count", kind: kindCount, better: "lower", on: controlled, what: "committed moves"},
	{name: "core.path_query_errors", unit: "count", kind: kindCount, better: "lower", on: controlled, what: "edges dropped from evaluations by unanswerable path queries"},
	{name: "core.control_self_s", unit: "s", kind: kindHost, better: "lower", on: controlled, what: "sum of ControlStats.WallNS"},
	{name: "core.epoch_tail_self_s", unit: "s", kind: kindHost, better: "lower", on: controlled, what: "class: control-event duration minus its WallNS — the SLO tick and cadence metric WallNS omits"},
	{name: "core.deploy_self_s", unit: "s", kind: kindHost, better: "lower", on: orchestrd, what: "span: sum of Orch.Deploy"},
	{name: "core.workers2_x", unit: "x", kind: kindHost, better: "higher", on: []string{wStorm}, what: "serial control wall / EvalWorkers=2 control wall, one extra rep"},

	{name: "scheduler.sched_us_p50", unit: "us", kind: kindHost, better: "lower", on: orchestrd, what: "SchedulingLatenciesNS median (Table 3)"},
	{name: "scheduler.dag_us_p50", unit: "us", kind: kindHost, better: "lower", on: orchestrd, what: "DAGProcessingNS median (Table 4)"},
	{name: "scheduler.target_scan_us", unit: "us", kind: kindHost, better: "lower", on: orchestrd, what: "probe: ChooseMigrationTarget on sampled components"},
	{name: "scheduler.batch_over_greedy_x", unit: "x", kind: kindHost, better: "lower", on: []string{wBatch}, what: "set-up time / greedy twin's set-up time"},
	{name: "scheduler.batch_gain_frac", unit: "frac", kind: kindSim, better: "higher", on: []string{wBatch}, what: "batch goodput / greedy goodput - 1"},
	{name: "scheduler.batch_gain_per_solve_s", unit: "1/s", kind: kindHost, better: "higher", on: []string{wBatch}, what: "batch_gain_frac per extra second of deploy time"},

	{name: "cluster.move_ns", unit: "ns", kind: kindHost, better: "lower", on: orchestrd, what: "probe: Move there and back, per Move"},

	{name: "reconcile.drifts", unit: "count", kind: kindCount, better: "lower", on: []string{wChaos}, what: "drift records opened"},
	{name: "reconcile.actions", unit: "count", kind: kindCount, better: "lower", on: []string{wChaos}, what: "convergence actions attempted"},
	{name: "reconcile.converges", unit: "count", kind: kindCount, better: "higher", on: []string{wChaos}, what: "closed drift episodes"},
	{name: "reconcile.sheds", unit: "count", kind: kindCount, better: "lower", on: []string{wChaos}, what: "applications shed"},
	{name: "reconcile.converge_sim_s_mean", unit: "s", kind: kindSim, better: "lower", on: []string{wChaos}, what: "mean drift-to-converged time"},
	{name: "reconcile.event_self_s", unit: "s", kind: kindHost, better: "lower", on: []string{wChaos}, what: "class: events that moved a reconcile counter"},
	{name: "reconcile.tick_quiet_ns", unit: "ns", kind: kindHost, better: "lower", on: []string{wChaos}, what: "probe: Tick when converged"},

	{name: "faults.events", unit: "count", kind: kindCount, better: "lower", on: []string{wChaos}, what: "fault events applied"},
	{name: "faults.apply_self_s", unit: "s", kind: kindHost, better: "lower", on: []string{wChaos}, what: "class: events that bumped AvailabilityEpoch"},

	{name: "obs.events", unit: "count", kind: kindCount, better: "lower", on: observed, what: "journal events emitted (retained + evicted)"},
	{name: "obs.dropped_frac", unit: "frac", kind: kindCount, better: "lower", on: observed, what: "evicted / emitted"},
	{name: "obs.append_ns", unit: "ns", kind: kindHost, better: "lower", what: "probe: Journal.Append on a full default-capacity ring"},
	{name: "obs.jsonl_mb_s", unit: "MB/s", kind: kindHost, better: "higher", on: observed, what: "probe: WriteJSONL to io.Discard"},

	{name: "metricstore.series", unit: "count", kind: kindCount, better: "lower", on: observed, what: "distinct series"},
	{name: "metricstore.dropped_samples", unit: "count", kind: kindCount, better: "lower", on: observed, what: "samples refused by the cardinality guard"},
	{name: "metricstore.append_ns", unit: "ns", kind: kindHost, better: "lower", on: observed, what: "probe: Handle.Append on the loaded store"},
	{name: "metricstore.aggover_us", unit: "us", kind: kindHost, better: "lower", on: observed, what: "probe: one AggOver on the loaded store"},
	{name: "metricstore.prom_ms", unit: "ms", kind: kindHost, better: "lower", on: observed, what: "probe: WritePrometheus to io.Discard"},

	{name: "slo.specs", unit: "count", kind: kindCount, better: "lower", on: []string{wStorm, wChaos}, what: "registered SLO specs"},
	{name: "slo.alerts_fired", unit: "count", kind: kindCount, better: "lower", on: []string{wStorm, wChaos}, what: "alert_fired transitions"},
	{name: "slo.tick_ms", unit: "ms", kind: kindHost, better: "lower", on: []string{wStorm, wChaos}, what: "probe: one extra SLO().Tick() after the horizon"},

	{name: "apps.requests", unit: "count", kind: kindCount, better: "higher", on: []string{wMesh}, what: "socialnet requests served"},
	{name: "apps.frames", unit: "count", kind: kindCount, better: "higher", on: []string{wMesh}, what: "camera frames published"},
	{name: "apps.frames_dropped", unit: "count", kind: kindCount, better: "lower", on: []string{wMesh}, what: "camera frames dropped (congestion, restarts)"},
	{name: "apps.event_self_us", unit: "us", kind: kindHost, better: "lower", on: []string{wMesh}, what: "sim.other_self_s per request + frame"},

	{name: "go.gc_cycles", unit: "count", kind: kindHost, better: "lower", what: "GC cycles over the run phase"},
	{name: "go.gc_pause_ms", unit: "ms", kind: kindHost, better: "lower", what: "GC pause total over the run phase"},
	{name: "go.heap_live_mb", unit: "MB", kind: kindHost, better: "lower", what: "HeapAlloc after a forced GC at horizon"},
	{name: "go.alloc_mb", unit: "MB", kind: kindHost, better: "lower", what: "bytes allocated over the run phase"},

	{name: "bench.trace_overhead_frac", unit: "frac", kind: kindHost, better: "lower", what: "traced run wall / untraced median run wall - 1"},
	{name: "bench.attributed_frac", unit: "frac", kind: kindHost, better: "higher", what: "sum of event-class self times / traced run wall"},
}

// allMetrics is endToEnd then perLayer.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

func findMetric(name string) (metricDef, bool) {
	for _, m := range allMetrics() {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// gatedMetrics are the end-to-end metrics the driver gates; tracedMetrics is
// everything else, reported by a --trace 1 invocation.
func gatedMetrics() (gated, traced []metricDef) {
	for _, m := range allMetrics() {
		if m.gated {
			gated = append(gated, m)
		} else {
			traced = append(traced, m)
		}
	}
	return gated, traced
}

// manifest is BENCHMARK.json, in exactly the shape the driver's contract
// prescribes.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one driver invocation measures.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	gated, traced := gatedMetrics()
	for _, d := range gated {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range traced {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}

// printList is -list: every metric with unit, kind, direction, bound and the
// workloads it is reported on.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-34s %-6s %-5s %-6s %-7s %-5s %s\n", "metric", "unit", "kind", "better", "bound", "gated", "workloads / what")
	for _, m := range allMetrics() {
		bound := "-"
		switch {
		case m.bound > 0:
			bound = fmt.Sprintf("%.0f%%", 100*m.bound)
		case m.kind != kindHost:
			bound = "exact"
		}
		on := "all"
		if m.on != nil {
			on = fmt.Sprint(m.on)
		}
		fmt.Fprintf(w, "%-34s %-6s %-5s %-6s %-7s %-5t %s — %s\n", m.name, m.unit, m.kind, m.better, bound, m.gated, on, m.what)
	}
}
