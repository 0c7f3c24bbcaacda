package core

import (
	"bass/internal/netmon"
	"bass/internal/obs"
	"bass/internal/scheduler"
)

// This file is the control-plane hot path: one probe sweep per cycle feeding
// a per-application read/score phase, then a commit phase, both in
// deployment order. The read phase (path oracle queries, flow-rate lookups,
// candidate selection) emits nothing; every journal event, metric, and
// placement mutation happens in the commit phase. All per-cycle state lives
// in reused scratch, so a quiet epoch (no violations, no transitions)
// allocates nothing.

// latencyRingCap bounds the Table 3/4 latency logs. A week-long city run
// schedules far more DAGs than anyone tabulates; keeping the latest samples
// caps memory without changing sub-cap output.
const latencyRingCap = 8192

// ringF64 is a bounded sample buffer: once full, new samples overwrite the
// oldest. snapshot returns samples in insertion order, so below the cap it
// is byte-identical to a plain append log.
type ringF64 struct {
	buf  []float64
	next int
	full bool
}

func (r *ringF64) push(v float64) {
	if !r.full {
		if r.buf == nil {
			r.buf = make([]float64, 0, latencyRingCap)
		}
		r.buf = append(r.buf, v)
		if len(r.buf) == cap(r.buf) {
			r.full = true // next stays 0: the oldest sample is buf[0]
		}
		return
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

func (r *ringF64) snapshot() []float64 {
	out := make([]float64, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf...)
}

// evalChunkShift sizes the controller cycle log's chunks: 1<<10 records,
// 32 KiB.
const evalChunkShift = 10

// evalLog is the controller cycle log: append-only, in fixed chunks
// allocated as they fill, so it grows without copying what it holds.
type evalLog struct {
	chunks [][]EvaluationRecord
	n      int
}

func (l *evalLog) append(r EvaluationRecord) {
	if l.n&(1<<evalChunkShift-1) == 0 {
		l.chunks = append(l.chunks, make([]EvaluationRecord, 0, 1<<evalChunkShift))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, r)
	l.n++
}

// all returns the log's records in append order, copied.
func (l *evalLog) all() []EvaluationRecord {
	out := make([]EvaluationRecord, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// edgeState is one DAG edge with its accounting tag and goodput metric
// handle precomputed, so the hot path never rebuilds tag strings or store
// keys.
type edgeState struct {
	from, to string
	tag      string
	goodputH obs.MetricHandle
}

// appEvalScratch is one application's reusable evaluation state. The edge
// and component lists are frozen at deploy time; everything else is
// per-cycle scratch whose capacity survives between cycles.
type appEvalScratch struct {
	app   *deployedApp
	comps []string
	edges []edgeState

	reqs      []netmon.PathRequest
	reqEdge   []int // reqs[i] came from edges[reqEdge[i]]
	res       []netmon.PathResult
	usages    []scheduler.DependencyUsage
	usageEdge []int // usages[j] came from edges[usageEdge[j]]
	pathErrs  int
	report    scheduler.MigrationReport

	assignment scheduler.Assignment // rebuilt in the commit phase when migrating
}

func (o *Orchestrator) newAppScratch(app *deployedApp) *appEvalScratch {
	s := &appEvalScratch{app: app, comps: app.graph.Components()}
	for _, e := range app.graph.Edges() {
		s.edges = append(s.edges, edgeState{from: e.From, to: e.To, tag: app.env.Tag(e.From, e.To)})
	}
	s.assignment = make(scheduler.Assignment, len(s.comps))
	o.resolveEdgeHandles(s)
	return s
}

// resolveEdgeHandles binds each edge's dependency-goodput series handle to
// the attached plane (discarding handles when no store is attached). Called
// at deploy time and again when observability attaches after deployment.
func (o *Orchestrator) resolveEdgeHandles(s *appEvalScratch) {
	for i := range s.edges {
		e := &s.edges[i]
		e.goodputH = o.plane.MetricHandle(obs.MetricDepGoodput,
			map[string]string{"app": s.app.name, "component": e.from, "dep": e.to})
	}
}

// evalApp runs one application's read/score phase: assemble dependency
// usages through the batch path oracle, and select migration candidates. It
// writes only into per-app scratch and emits nothing; per-app work never
// depends on other apps.
func (o *Orchestrator) evalApp(s *appEvalScratch) {
	app := s.app
	g := app.graph
	s.reqs = s.reqs[:0]
	s.reqEdge = s.reqEdge[:0]
	for i := range s.edges {
		e := &s.edges[i]
		fromNode := o.clus.NodeOf(app.name, e.from)
		toNode := o.clus.NodeOf(app.name, e.to)
		if fromNode == "" || toNode == "" || fromNode == toNode {
			continue
		}
		s.reqs = append(s.reqs, netmon.PathRequest{Src: fromNode, Dst: toNode})
		s.reqEdge = append(s.reqEdge, i)
	}
	s.res = o.monitor.PathMetricsBatch(s.reqs, s.res)
	s.usages = s.usages[:0]
	s.usageEdge = s.usageEdge[:0]
	s.pathErrs = 0
	for j := range s.res {
		r := &s.res[j]
		if r.Err != nil {
			s.pathErrs++ // counted, not silently dropped; surfaced in commit
			continue
		}
		e := &s.edges[s.reqEdge[j]]
		s.usageEdge = append(s.usageEdge, s.reqEdge[j])
		s.usages = append(s.usages, scheduler.DependencyUsage{
			Component:         e.from,
			Dep:               e.to,
			RequiredMbps:      g.Weight(e.from, e.to),
			AchievedMbps:      o.net.FlowRateByTag(e.tag),
			PathCapacityMbps:  r.Metrics.CapacityMbps,
			PathAvailableMbps: r.Metrics.SpareMbps,
		})
	}
	s.report = scheduler.FindMigrationCandidates(g, s.usages, o.ctrl.Config().Migration, o.cycleExclude[app.name])
}

// fastControlCycle is one controller epoch on the hot path: a single shared
// Observe, the per-app read/score phase, then the commit, each in deployment
// order.
func (o *Orchestrator) fastControlCycle() {
	if len(o.appScratch) == 0 {
		o.drainFailoverQueue()
		return
	}
	cyc := o.ctrl.Observe(o.fullProbeFn)
	o.cycleExclude = cyc.Exclude

	for _, s := range o.appScratch {
		o.evalApp(s)
	}

	for i, s := range o.appScratch {
		if o.plane.Enabled() {
			for j := range s.usages {
				u := &s.usages[j]
				if u.RequiredMbps > 0 {
					s.edges[s.usageEdge[j]].goodputH.Emit(u.AchievedMbps / u.RequiredMbps)
				}
			}
		}
		o.notePathQueryErrors(s.pathErrs)
		dec := o.ctrl.ResolveApp(&cyc, s.app.name, s.report)
		if i == 0 {
			// Liveness transitions are cycle-global; handle them once, after
			// the first app's goodput samples and verdicts.
			for _, node := range cyc.NodesDown {
				o.handleNodeDown(node, cyc.NodeDownSpans[node])
			}
			for _, node := range cyc.NodesRecovered {
				o.handleNodeRecovered(node, cyc.NodeRecoveredSpans[node])
			}
		}
		migrated := 0
		if len(dec.Migrate) > 0 {
			o.buildAssignment(s)
			for _, comp := range dec.Migrate {
				if o.migrateFast(s, comp, dec.CandidateSpans[comp]) {
					migrated++
				}
			}
		}
		o.evaluations.append(EvaluationRecord{
			At:         o.eng.Now(),
			Violating:  len(s.report.Violating),
			Candidates: len(s.report.Candidates),
			Migrated:   migrated,
		})
	}
	o.ctrl.FinishCycle()
	// Capacity can return without a node-recovery transition (e.g. another
	// app released resources): give queued components a chance every cycle.
	o.drainFailoverQueue()
}

// buildAssignment refreshes the app's component→node map from the cluster.
// Called only when the app has migrations to commit, against post-evacuation
// placement state.
func (o *Orchestrator) buildAssignment(s *appEvalScratch) {
	clear(s.assignment)
	for _, c := range s.comps {
		if node := o.clus.NodeOf(s.app.name, c); node != "" {
			s.assignment[c] = node
		}
	}
}

// migrateFast moves one component to the best target node, reporting
// success. It scores against the cycle's reused assignment and the node view.
// cause is the span of the migration_candidate verdict that approved the
// move; every journal event the move produces chains back to it.
func (o *Orchestrator) migrateFast(s *appEvalScratch, comp string, cause uint64) bool {
	o.ctrlTargetScans++
	app := s.app
	target, err := scheduler.ChooseMigrationTarget(
		app.graph, comp, s.assignment, o.nodeInfos(), o.pathSpareFn,
		o.ctrl.Config().Migration,
		scheduler.TargetOptions{Recorder: o.recorder(app.name, cause)},
	)
	if err != nil {
		o.ctrl.RecordMigrationFailure(app.name, comp)
		o.plane.Emit(obs.Event{Type: obs.EventMigrationRejected, App: app.name,
			Component: comp, Cause: cause, Reason: "no feasible target: " + err.Error()})
		return false
	}
	from := s.assignment[comp]
	if err := o.move(app.name, comp, target); err != nil {
		o.ctrl.RecordMigrationFailure(app.name, comp)
		o.plane.Emit(obs.Event{Type: obs.EventMigrationRejected, App: app.name,
			Component: comp, To: target, Cause: cause, Reason: "commit failed: " + err.Error()})
		return false
	}
	s.assignment[comp] = target
	o.ctrl.RecordMigration(app.name, comp)
	o.commitMigration(app, comp, from, target, cause, "bandwidth violation persisted past cooldown")
	return true
}

// notePathQueryErrors accounts dependency edges dropped from an evaluation
// because the monitor could not answer a path query (down nodes, partitioned
// mesh). The controller still runs on the edges it can see; the counter and
// metric make the blind spots visible instead of silent.
func (o *Orchestrator) notePathQueryErrors(n int) {
	if n <= 0 {
		return
	}
	o.pathQueryErrs += uint64(n)
	if o.plane.Enabled() {
		o.plane.Metric(obs.MetricPathQueryErrors, float64(o.pathQueryErrs))
	}
}

// ControlStats summarises control-plane work since bootstrap.
type ControlStats struct {
	// Cycles counts controller epochs run.
	Cycles int
	// AppEvaluations counts per-application evaluations across all cycles.
	AppEvaluations int
	// TargetScans counts migration-target searches — each is one
	// O(nodes × deps) candidate-scoring pass, run serially in the commit
	// phase. Attempts count whether or not a feasible target emerged.
	TargetScans int
	// WallNS is real wall-clock time spent inside control cycles. It stops
	// before the epoch tail (cadence metric + SLO tick) — its historical
	// meaning, kept so decisions/sec stays comparable across reports.
	WallNS int64
	// SLOTickNS is real wall-clock time spent in the SLO evaluator's
	// per-epoch Tick, the bulk of what WallNS omits (0 with SLOs off).
	SLOTickNS int64
	// PathQueryErrors counts dependency edges dropped from controller
	// evaluations by unanswerable path queries.
	PathQueryErrors uint64
}

// ControlStats reports control-plane work counters (the benchmark harness's
// decisions/sec numerator and denominator).
func (o *Orchestrator) ControlStats() ControlStats {
	return ControlStats{
		Cycles:          o.ctrlCycles,
		AppEvaluations:  o.ctrlAppEvals,
		TargetScans:     o.ctrlTargetScans,
		WallNS:          o.ctrlWallNS,
		SLOTickNS:       o.sloTickNS,
		PathQueryErrors: o.pathQueryErrs,
	}
}
