// Package core is the BASS orchestrator: it deploys application DAGs onto a
// mesh-connected cluster with a pluggable placement policy, monitors link
// bandwidth through the net-monitor, and migrates components when the
// controller detects bandwidth violations — the full system of Fig 7,
// running over the simulated substrate.
package core

import (
	"errors"
	"fmt"
	"time"

	"bass/internal/cluster"
	"bass/internal/controller"
	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/netmon"
	"bass/internal/obs"
	"bass/internal/reconcile"
	"bass/internal/scheduler"
	"bass/internal/sim"
	"bass/internal/simnet"
	"bass/internal/slo"
)

// Sentinel errors.
var (
	errAppExists  = errors.New("core: application already deployed")
	errUnknownApp = errors.New("core: unknown application")
)

// Workload is an application that can run on the orchestrator. Implementations
// model their own traffic (streams/transfers through Env.Net) and metrics.
type Workload interface {
	// Graph returns the application's component DAG with bandwidth-annotated
	// edges. Called once at deployment.
	Graph() *dag.Graph
	// Start installs the workload's traffic and timers. The placement is
	// available through env.NodeOf.
	Start(env *Env) error
	// OnMigration tells the workload a component has moved. The component is
	// unavailable for the downtime window starting now; the workload must
	// re-route its traffic accordingly.
	OnMigration(env *Env, component, fromNode, toNode string, downtime time.Duration)
}

// prioritized lets a workload declare its shedding priority for the
// reconciler's degraded-mode ladder: higher values are shed later. Workloads
// that do not implement it are prioritized by deployment order (earlier
// deployments rank higher).
type prioritized interface {
	Priority() int
}

// Env is the execution environment handed to workloads.
type Env struct {
	app  string
	orch *Orchestrator
}

// Engine returns the simulation engine for timers and randomness.
func (e *Env) Engine() *sim.Engine { return e.orch.eng }

// Net returns the flow-level network.
func (e *Env) Net() *simnet.Network { return e.orch.net }

// Now reports current virtual time.
func (e *Env) Now() time.Duration { return e.orch.eng.Now() }

// NodeOf reports which node a component currently runs on ("" if absent).
func (e *Env) NodeOf(component string) string {
	return e.orch.clus.NodeOf(e.app, component)
}

// PlacementEpoch reports the cluster's placement change counter. It advances
// on every placement change of any app — migrations, evictions, failovers —
// so a workload that caches NodeOf answers refreshes them when it moves.
func (e *Env) PlacementEpoch() uint64 { return e.orch.clus.PlacementEpoch() }

// Tag builds the accounting tag for traffic between two components. The
// orchestrator measures pair goodput by these tags, so workloads must use
// them when creating streams and transfers.
func (e *Env) Tag(from, to string) string {
	return e.app + "/" + from + "->" + to
}

// Config assembles an orchestrator.
type Config struct {
	// Policy decides placement; defaults to the BASS longest-path scheduler.
	Policy scheduler.Policy
	// Controller configures migration decisions (defaults: §4.3 settings).
	Controller controller.Config
	// MonitorInterval is how often the controller evaluates the system — the
	// paper's "bandwidth querying interval" (30/60/90 s sweeps). Every cycle
	// opens with a headroom-probe sweep, so it is also the probe period.
	MonitorInterval time.Duration
	// EnableMigration turns the controller loop on.
	EnableMigration bool
	// MigrationDowntime is how long a migrated component is unavailable
	// (paper: ~20 s for the videoconf server to re-establish WebRTC, ~4 s
	// for a social-network microservice restart).
	MigrationDowntime time.Duration
	// ReservedCPU is subtracted from every node's schedulable CPU to model
	// the k3s agent and monitoring daemons.
	ReservedCPU float64
	// EnableReconcile replaces the reactive failover path with the
	// declarative reconciliation loop: deployments register desired-state
	// specs, and a reconciler diffs desired vs. observed placement every
	// MonitorInterval, converging through idempotent, bounded actions (see
	// internal/reconcile). Needs EnableMigration: failure verdicts come from
	// the control loop (NewSimulation rejects it alone).
	EnableReconcile bool
	// EvalWorkers is ignored: the controller evaluates every application
	// serially, in deployment order.
	//
	// Deprecated: kept only for callers that still set it; it will be
	// removed.
	EvalWorkers int
	// BatchPlacement wraps Policy in the batch joint search: each deployed
	// DAG is first placed by the greedy seed policy, then improved by a
	// k-best local search of DefaultBatchMoveBudget joint candidates scored
	// against the path oracle (see scheduler.Batch). Orthogonal to
	// migration — it changes only where components start.
	BatchPlacement bool
	// EnableSLO runs the SLO evaluator at the end of every control cycle:
	// a mesh-wide link-headroom spec and a control-loop latency spec are
	// registered when observability attaches, plus a dependency-goodput spec
	// per deployed app. The evaluator burns error budgets against the
	// attached metric store and journals alert_fired/alert_resolved
	// transitions (see internal/slo). Inert until AttachObservability
	// supplies a store, and — like migration itself — only evaluated while
	// the controller loop runs, so it needs EnableMigration (NewSimulation
	// rejects it alone).
	EnableSLO bool
}

// DefaultBatchMoveBudget is the joint-candidate evaluation budget of
// BatchPlacement. Solve time grows linearly in the budget; at 256 one
// five-stage DAG on the 196-node city mesh takes milliseconds to place
// (bench city-batch: place_ms_p50 8.3), against microseconds for the greedy
// seed alone.
const DefaultBatchMoveBudget = 256

// Fixed retry parameters. The backoff constants equal the reconciler's own,
// so both recovery paths retry on one schedule.
const (
	// failoverMaxRetries bounds placement attempts for a component stranded
	// by a node failure before it parks in the recovery queue.
	failoverMaxRetries = 5
	// failoverBackoffBase is the first retry delay after a failed failover
	// placement; each subsequent retry doubles it.
	failoverBackoffBase = 5 * time.Second
	// failoverBackoffMax caps the failover retry delay.
	failoverBackoffMax = 2 * time.Minute
	// failoverBackoffJitter spreads each retry delay by ±frac, drawn from the
	// engine's seeded RNG so equal seeds stay byte-identical.
	failoverBackoffJitter = 0.2
)

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = scheduler.NewBass(scheduler.HeuristicLongestPath)
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = 30 * time.Second
	}
	if c.MigrationDowntime == 0 {
		c.MigrationDowntime = 20 * time.Second
	}
	if c.Controller == (controller.Config{}) {
		c.Controller = controller.DefaultConfig()
	}
	return c
}

// MigrationEvent records one component move.
type MigrationEvent struct {
	At        time.Duration
	App       string
	Component string
	From, To  string
}

// EvaluationRecord captures one controller cycle for Table 1-style output.
type EvaluationRecord struct {
	At         time.Duration
	Violating  int
	Candidates int
	Migrated   int
}

type deployedApp struct {
	name     string
	workload Workload
	graph    *dag.Graph
	env      *Env
	scratch  *appEvalScratch
}

// Orchestrator is the BASS control plane over a simulated mesh.
type Orchestrator struct {
	cfg     Config
	eng     *sim.Engine
	topo    *mesh.Topology
	net     *simnet.Network
	clus    *cluster.Cluster
	monitor *netmon.Monitor
	ctrl    *controller.Controller

	apps        map[string]*deployedApp
	appOrder    []string
	migrations  []MigrationEvent
	evaluations evalLog
	stopMonitor func()
	schedLat    ringF64 // per-component scheduling latencies (Table 3)
	dagProc     ringF64 // DAG processing times (Table 4)

	// Control-plane hot-path state (see hotpath.go). The scratch slices let
	// a quiet controller epoch run without allocating.
	appScratch      []*appEvalScratch
	cycleExclude    map[string]map[string]bool // controller's per-app re-migration guard, set per cycle
	view            nodeView                   // the scheduler's node view (nodeview.go)
	fullProbeFn     func(mesh.LinkID) error
	pathSpareFn     scheduler.PathQuery
	pathQueryErrs   uint64
	ctrlCycles      int
	ctrlAppEvals    int
	ctrlTargetScans int
	ctrlWallNS      int64
	sloTickNS       int64

	// Failure-handling state (see failover.go).
	detections    []DetectionRecord
	failovers     []FailoverEvent
	mttrs         []time.Duration
	failoverQueue []*pendingFailover

	// Reconciliation state (see reconcile_host.go); rec is nil unless
	// Config.EnableReconcile. nodeDownSpan remembers the verdict span of each
	// currently-dead node so self-detected drift stays causally explainable.
	rec           *reconcile.Reconciler
	stopReconcile func()
	nodeDownSpan  map[string]uint64

	// plane is the observability plane shared with the monitor and
	// controller; nil (the default) records nothing at no cost. boardRows is
	// planeRecorder's reused scoreboard.
	plane     *obs.Plane
	boardRows []obs.BoardRow

	// SLO state (see internal/slo); sloEval is nil unless Config.EnableSLO
	// and AttachObservability has run. epochGapH feeds the control loop's
	// own cadence metric through a pre-resolved handle and lastCycleAt
	// remembers the previous cycle's virtual time, so the per-epoch tail
	// stays allocation free.
	sloEval      *slo.Evaluator
	epochGapH    obs.MetricHandle
	lastCycleAt  time.Duration
	hasCycleTime bool
}

// newOrchestrator wires an orchestrator over an engine, topology, network, and cluster.
func newOrchestrator(eng *sim.Engine, topo *mesh.Topology, net *simnet.Network, clus *cluster.Cluster, cfg Config) *Orchestrator {
	cfg = cfg.withDefaults()
	o := &Orchestrator{
		cfg:  cfg,
		eng:  eng,
		topo: topo,
		net:  net,
		clus: clus,
		apps: make(map[string]*deployedApp),
	}
	o.monitor = netmon.New(topo, net.Prober(), eng.Now)
	o.ctrl = controller.New(o.monitor, cfg.Controller, eng.Now)
	// Hoisted hot-path closures: allocated once here instead of per decision.
	o.fullProbeFn = o.monitor.FullProbe
	o.pathSpareFn = func(a, b string) float64 {
		spare, networked, perr := o.monitor.PathSpareMbps(a, b)
		if perr != nil {
			return 0
		}
		if !networked {
			return simnet.LocalMbps
		}
		return spare
	}
	if cfg.BatchPlacement {
		batch := scheduler.NewBatch(o.cfg.Policy, scheduler.BatchConfig{MoveBudget: DefaultBatchMoveBudget, Seed: eng.Seed()})
		batch.SetPathQuery(o.pathSpareFn)
		o.cfg.Policy = batch
	}
	if cfg.EnableReconcile {
		o.rec = reconcile.New(reconcile.Config{Epoch: cfg.MonitorInterval}, reconcileHost{o})
		o.nodeDownSpan = make(map[string]uint64)
	}
	return o
}

// AttachObservability wires a decision journal and a metric store (either may
// be nil) into the orchestrator, its monitor, and its controller, stamped
// with the engine's virtual clock. The same seed then yields a byte-identical
// journal: every event derives from deterministic simulation state. It
// returns the assembled plane.
func (o *Orchestrator) AttachObservability(journal *obs.Journal, store *metricstore.Store) *obs.Plane {
	o.plane = obs.NewPlane(journal, store, o.eng.Now)
	o.plane.SetTraceSeed(o.eng.Seed())
	o.monitor.SetObserver(o.plane)
	o.ctrl.SetObserver(o.plane)
	o.net.SetObserver(o.plane)
	o.rec.SetObserver(o.plane)
	// Pre-resolve the hot path's metric handles — the quiet-epoch
	// zero-allocation contract holds with observability attached too.
	for _, s := range o.appScratch {
		o.resolveEdgeHandles(s)
	}
	if o.cfg.EnableSLO {
		o.sloEval = slo.New(o.plane, slo.Config{Interval: o.cfg.MonitorInterval})
		o.epochGapH = o.plane.MetricHandle(obs.MetricControlEpochGap, nil)
		// Mesh-wide headroom and the control loop's own cadence are always
		// worth watching; per-app goodput specs ride along with each Deploy.
		mustRegister(o.sloEval, slo.Spec{Name: "mesh/headroom", Kind: slo.LinkHeadroom})
		mustRegister(o.sloEval, slo.Spec{Name: "control/loop", Kind: slo.ControlLatency})
		for _, name := range o.appOrder {
			o.registerAppSLO(name)
		}
	}
	return o.plane
}

// mustRegister panics on registration errors — the auto-registered specs are
// statically valid, so an error here is a programming bug, not bad input.
func mustRegister(e *slo.Evaluator, spec slo.Spec) {
	if err := e.Register(spec); err != nil {
		panic(err)
	}
}

// registerAppSLO registers the app's dependency-goodput SLO (no-op without
// an evaluator).
func (o *Orchestrator) registerAppSLO(app string) {
	if o.sloEval == nil {
		return
	}
	mustRegister(o.sloEval, slo.Spec{Name: "goodput/" + app, Kind: slo.DependencyGoodput, App: app})
}

// SLO exposes the evaluator (nil unless EnableSLO with observability
// attached) for dashboards and experiments.
func (o *Orchestrator) SLO() *slo.Evaluator { return o.sloEval }

// planeRecorder adapts the plane to the scheduler's Recorder: every candidate
// row of an Explanation becomes one sched_candidate journal event under the
// decision's cause span, so bass-trace explain can rebuild the scoreboard.
type planeRecorder struct {
	o     *Orchestrator
	app   string
	cause uint64
}

// RecordExplanation copies the scoreboard into the orchestrator's reused
// board rows and journals them as one board.
func (r planeRecorder) RecordExplanation(ex scheduler.Explanation) {
	rows := r.o.boardRows[:0]
	for i := range ex.Candidates {
		cs := &ex.Candidates[i]
		rows = append(rows, obs.BoardRow{Node: cs.Node, Reason: string(cs.Rejection),
			Value: cs.Score, Want: float64(cs.DepCount), Local: cs.LocalMbps, Remote: cs.RemoteMbps})
	}
	r.o.boardRows = rows
	r.o.plane.EmitBoard(obs.Event{Type: obs.EventSchedCandidate, App: r.app, Component: ex.Component, Cause: r.cause}, rows)
}

// recorder builds a scheduler Recorder journaling under the given cause, or
// nil when no plane is attached so choice passes skip all bookkeeping.
func (o *Orchestrator) recorder(app string, cause uint64) scheduler.Recorder {
	if !o.plane.Enabled() {
		return nil
	}
	return planeRecorder{o: o, app: app, cause: cause}
}

// Observability returns the attached plane (nil when unattached).
func (o *Orchestrator) Observability() *obs.Plane { return o.plane }

// Monitor exposes the net-monitor (read-only use by experiments).
func (o *Orchestrator) Monitor() *netmon.Monitor { return o.monitor }

// Controller exposes the bandwidth controller.
func (o *Orchestrator) Controller() *controller.Controller { return o.ctrl }

// Migrations returns the migration log.
func (o *Orchestrator) Migrations() []MigrationEvent {
	out := make([]MigrationEvent, len(o.migrations))
	copy(out, o.migrations)
	return out
}

// Evaluations returns the controller cycle log.
func (o *Orchestrator) Evaluations() []EvaluationRecord {
	return o.evaluations.all()
}

// Bootstrap performs the startup max-capacity probing round (§4.2) and, if
// migration is enabled, starts the periodic controller loop.
func (o *Orchestrator) Bootstrap() error {
	if err := o.monitor.FullProbeAll(); err != nil {
		return fmt.Errorf("core: bootstrap probing: %w", err)
	}
	if o.cfg.EnableMigration && o.stopMonitor == nil {
		o.stopMonitor = o.eng.Every(o.cfg.MonitorInterval, o.controlCycle)
	}
	if o.rec != nil && o.stopReconcile == nil {
		// The epoch tick is the reconciler's heartbeat; topology changes
		// (injected faults) additionally kick an eager same-time pass so
		// drift converges without waiting out the epoch.
		o.stopReconcile = o.eng.Every(o.rec.Config().Epoch, o.rec.Tick)
		o.net.OnTopologyApplied(o.rec.Kick)
	}
	return nil
}

// Stop halts the controller and reconciler loops.
func (o *Orchestrator) Stop() {
	if o.stopMonitor != nil {
		o.stopMonitor()
		o.stopMonitor = nil
	}
	if o.stopReconcile != nil {
		o.stopReconcile()
		o.stopReconcile = nil
		o.net.OnTopologyApplied(nil)
	}
}

// Reconciler exposes the reconciliation loop (nil unless EnableReconcile).
func (o *Orchestrator) Reconciler() *reconcile.Reconciler { return o.rec }

// DeployAt schedules and starts a workload, forcing the listed components
// (if any) onto the given nodes for the initial placement; they remain
// migratable afterwards, unlike a dag.Pin label. Call Bootstrap first so the
// monitor has link capacities for node ranking. The paper's Fig 12
// experiment starts the Pion server on node 2 this way.
func (o *Orchestrator) DeployAt(name string, w Workload, overrides scheduler.Assignment) (scheduler.Assignment, error) {
	if _, ok := o.apps[name]; ok {
		return nil, fmt.Errorf("%w: %q", errAppExists, name)
	}
	g := w.Graph()
	if g.AppName != name {
		return nil, fmt.Errorf("core: workload graph is named %q, deploying as %q", g.AppName, name)
	}
	deploySpan := o.plane.EmitSpan(obs.Event{Type: obs.EventDeploy, App: name,
		Reason: o.cfg.Policy.Name(), Value: float64(g.NumComponents())})
	assignment, err := o.schedule(g, o.recorder(name, deploySpan))
	if err != nil {
		return nil, err
	}
	for comp, node := range overrides {
		if !g.HasComponent(comp) {
			return nil, fmt.Errorf("core: override for unknown component %q", comp)
		}
		assignment[comp] = node
	}
	for _, comp := range g.Components() { // sorted: deterministic journal order
		node, ok := assignment[comp]
		if !ok {
			continue
		}
		c, cerr := g.Component(comp)
		if cerr != nil {
			return nil, cerr
		}
		if perr := o.place(cluster.Placement{
			App:       name,
			Component: comp,
			Node:      node,
			CPU:       c.CPU,
			MemoryMB:  c.MemoryMB,
		}); perr != nil {
			return nil, fmt.Errorf("core: commit placement: %w", perr)
		}
		reason := "policy placement"
		if _, forced := overrides[comp]; forced {
			reason = "deployment override"
		}
		o.plane.EmitSpan(obs.Event{Type: obs.EventSchedule, App: name, Component: comp,
			To: node, Cause: deploySpan, Reason: reason})
	}
	env := &Env{app: name, orch: o}
	app := &deployedApp{name: name, workload: w, graph: g, env: env}
	o.apps[name] = app
	o.appOrder = append(o.appOrder, name)
	o.registerAppSLO(name)
	app.scratch = o.newAppScratch(app)
	o.appScratch = append(o.appScratch, app.scratch)
	// Flows the workload opens at startup cite the deploy as their cause.
	o.net.SetCause(deploySpan)
	err = w.Start(env)
	o.net.SetCause(0)
	if err != nil {
		return nil, fmt.Errorf("core: start workload %q: %w", name, err)
	}
	if o.rec != nil {
		// The DAG + policy become the app's desired state: every component
		// placed on a healthy node. Priority defaults to deployment order
		// (earlier = higher) unless the workload declares its own.
		prio := -(len(o.appOrder) - 1)
		if p, ok := w.(prioritized); ok {
			prio = p.Priority()
		}
		spec := reconcile.Spec{App: name, Priority: prio}
		for _, cname := range g.Components() {
			c, cerr := g.Component(cname)
			if cerr != nil {
				continue
			}
			spec.Components = append(spec.Components, reconcile.ComponentSpec{
				Name: cname, CPU: c.CPU, MemoryMB: c.MemoryMB,
			})
		}
		o.rec.SetSpec(spec)
	}
	return assignment, nil
}

// schedule runs the placement policy, recording Table 3/4 timings. When a
// recorder is attached the per-component candidate scoreboards are journaled
// alongside the decision.
func (o *Orchestrator) schedule(g *dag.Graph, rec scheduler.Recorder) (scheduler.Assignment, error) {
	nodes := o.nodeInfos()
	procStart := time.Now()
	assignment, err := o.cfg.Policy.Schedule(g, nodes, rec)
	elapsed := time.Since(procStart)
	if err != nil {
		return nil, fmt.Errorf("core: schedule %q with %s: %w", g.AppName, o.cfg.Policy.Name(), err)
	}
	o.dagProc.push(float64(elapsed.Nanoseconds()))
	if n := g.NumComponents(); n > 0 {
		per := float64(elapsed.Nanoseconds()) / float64(n)
		for i := 0; i < n; i++ {
			o.schedLat.push(per)
		}
	}
	return assignment, nil
}

// SchedulingLatenciesNS returns per-component scheduling latencies (Table 3).
// The buffer keeps the latest latencyRingCap samples; below that the output
// is identical to an unbounded log.
func (o *Orchestrator) SchedulingLatenciesNS() []float64 {
	return o.schedLat.snapshot()
}

// DAGProcessingNS returns whole-DAG scheduling times (Table 4), bounded like
// SchedulingLatenciesNS.
func (o *Orchestrator) DAGProcessingNS() []float64 {
	return o.dagProc.snapshot()
}

// controlCycle runs one controller evaluation across all apps on the hot
// path (hotpath.go) and accounts the wall-clock the control plane spent.
func (o *Orchestrator) controlCycle() {
	start := time.Now()
	o.fastControlCycle()
	o.ctrlWallNS += time.Since(start).Nanoseconds()
	o.ctrlCycles++
	o.ctrlAppEvals += len(o.appOrder)
	o.finishControlEpoch()
}

// finishControlEpoch is the serial tail every control cycle shares: record
// the loop's own epoch-to-epoch cadence and run the SLO evaluator, after all
// the cycle's metrics and journal events have been committed. Quiet epochs
// pass through without allocating.
func (o *Orchestrator) finishControlEpoch() {
	now := o.eng.Now()
	if o.hasCycleTime {
		o.epochGapH.Emit((now - o.lastCycleAt).Seconds())
	}
	o.lastCycleAt, o.hasCycleTime = now, true
	if o.sloEval != nil {
		start := time.Now()
		o.sloEval.Tick()
		o.sloTickNS += time.Since(start).Nanoseconds()
	}
}

// commitMigration records and journals a committed move, for the given
// reason, and notifies the workload, which restarts the component after
// MigrationDowntime.
func (o *Orchestrator) commitMigration(app *deployedApp, comp, from, target string, cause uint64, reason string) {
	o.migrations = append(o.migrations, MigrationEvent{
		At:        o.eng.Now(),
		App:       app.name,
		Component: comp,
		From:      from,
		To:        target,
	})
	migSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventMigration, App: app.name, Component: comp,
		From: from, To: target, Cause: cause, Reason: reason})
	if o.plane.Enabled() {
		o.plane.Metric(obs.MetricMigrations, float64(len(o.migrations)))
	}
	// Any flows the workload re-routes cite the move.
	o.net.SetCause(migSpan)
	app.workload.OnMigration(app.env, comp, from, target, o.cfg.MigrationDowntime)
	o.net.SetCause(0)
}

// ForceMigrate moves a component immediately (used by experiments that
// script migrations, e.g. Fig 14a's restart-cost measurement).
func (o *Orchestrator) ForceMigrate(appName, comp, toNode string) error {
	app, ok := o.apps[appName]
	if !ok {
		return fmt.Errorf("%w: %q", errUnknownApp, appName)
	}
	from := o.clus.NodeOf(appName, comp)
	if err := o.move(appName, comp, toNode); err != nil {
		return err
	}
	o.commitMigration(app, comp, from, toNode, 0, "forced by experiment script")
	return nil
}
