package core

import (
	"sort"
	"time"

	"bass/internal/cluster"
	"bass/internal/dag"
	"bass/internal/obs"
	"bass/internal/reconcile"
	"bass/internal/scheduler"
)

// DetectionRecord logs one node-down verdict from the controller.
type DetectionRecord struct {
	Node       string
	DetectedAt time.Duration
	// Components is how many placed components were stranded on the node.
	Components int
}

// FailoverEvent records one component successfully re-placed after its host
// was declared down.
type FailoverEvent struct {
	At        time.Duration
	App       string
	Component string
	From, To  string
	// Attempts is how many placement attempts it took (1 = first try).
	Attempts int
	// FromQueue marks components that exhausted their retries and waited in
	// the recovery queue until capacity returned.
	FromQueue bool
}

// RecoveryReport summarises failure handling over a run.
type RecoveryReport struct {
	Detections []DetectionRecord
	Failovers  []FailoverEvent
	// QueuedNow counts components still waiting for capacity at report time.
	QueuedNow int
	// MTTRMean and MTTRMax measure detection→service-restored per failover:
	// the time from the node-down verdict until the component finished
	// restarting on its new host (re-placement plus restart downtime). Time
	// between the actual crash and its detection is not included — the
	// control plane cannot observe it; add the detector's worst case
	// (controller.FailureThreshold × MonitorInterval) for crash-to-recovery
	// bounds.
	MTTRMean time.Duration
	MTTRMax  time.Duration
}

// pendingFailover is one stranded component working through placement
// retries.
type pendingFailover struct {
	app        string
	component  string
	fromNode   string
	detectedAt time.Duration
	attempts   int
	// cause is the span of the evacuate event that stranded the component;
	// every placement attempt, queue entry, and the final failover event
	// chain back through it to the node-down verdict and its probe errors.
	cause uint64
}

// handleNodeDown reacts to a controller node-down verdict: cordon the node so
// nothing new lands there, evacuate every placement it held (across all
// apps, in deterministic order), and start re-placing each component.
// Components that cannot be placed anywhere are queued until capacity
// returns. Untouched components keep serving throughout — only flows that
// crossed the dead node were disturbed, and the network already handled
// those.
func (o *Orchestrator) handleNodeDown(node string, cause uint64) {
	now := o.eng.Now()
	if err := o.clus.Cordon(node); err != nil {
		return // unknown to the cluster: nothing placed there
	}
	o.cycleNodesDirty = true // cordon + evacuations change the node snapshot
	cordonSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventCordon, Node: node,
		Cause: cause, Reason: "node-down verdict"})
	var stranded []pendingFailover
	for _, appName := range o.appOrder {
		for _, comp := range o.clus.ComponentsOn(appName, node) { // sorted
			if err := o.clus.Remove(appName, comp); err != nil {
				continue
			}
			evacSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventEvacuate,
				App: appName, Component: comp, Node: node, Cause: cordonSpan})
			stranded = append(stranded, pendingFailover{
				app:        appName,
				component:  comp,
				fromNode:   node,
				detectedAt: now,
				cause:      evacSpan,
			})
		}
	}
	o.detections = append(o.detections, DetectionRecord{
		Node: node, DetectedAt: now, Components: len(stranded),
	})
	if o.rec != nil {
		// Reconcile mode: the evacuation becomes drift. The reconciler owns
		// re-placement — retry budgets, the degraded-mode ladder, and the
		// convergence bookkeeping — so the one-shot retry path stays idle.
		o.nodeDownSpan[node] = cause
		for i := range stranded {
			p := stranded[i]
			o.rec.NoteDrift(p.app, p.component, reconcile.DriftDeadNode, p.fromNode, p.cause)
		}
		return
	}
	for i := range stranded {
		p := stranded[i]
		o.tryFailover(&p)
	}
}

// handleNodeRecovered reopens a node the controller saw answering probes
// again and immediately retries the recovery queue: the returning capacity is
// exactly what queued components were waiting for.
func (o *Orchestrator) handleNodeRecovered(node string, cause uint64) {
	if err := o.clus.Uncordon(node); err != nil {
		return
	}
	o.cycleNodesDirty = true
	o.plane.Emit(obs.Event{Type: obs.EventUncordon, Node: node,
		Cause: cause, Reason: "node recovered"})
	if o.rec != nil {
		// Returning capacity is what backed-off drift is waiting for: scan
		// now instead of waiting out retry delays or the epoch.
		delete(o.nodeDownSpan, node)
		o.rec.Kick()
		return
	}
	o.drainFailoverQueue()
}

// tryFailover attempts to re-place one stranded component. Placement failures
// retry with exponential backoff (base × 2^attempt, capped, jittered ±frac
// from the engine's seeded RNG so retries de-synchronize without breaking the
// equal-seeds-byte-identical contract) up to failoverMaxRetries attempts,
// then park in the recovery queue.
func (o *Orchestrator) tryFailover(p *pendingFailover) {
	app, ok := o.apps[p.app]
	if !ok {
		return
	}
	p.attempts++
	if o.placeFailover(app, p) {
		return
	}
	if p.attempts >= failoverMaxRetries {
		o.failoverQueue = append(o.failoverQueue, p)
		o.plane.Emit(obs.Event{Type: obs.EventFailoverQueued, App: p.app, Component: p.component,
			From: p.fromNode, Cause: p.cause,
			Reason: "placement retries exhausted; waiting for capacity",
			Value:  float64(p.attempts)})
		return
	}
	delay := reconcile.Backoff(failoverBackoffBase, failoverBackoffMax,
		failoverBackoffJitter, p.attempts, o.eng.Rand())
	o.eng.After(delay, func() { o.tryFailover(p) })
}

// placeFailover re-places one stranded component through replace, reporting
// success, and journals the failover the restart cites.
func (o *Orchestrator) placeFailover(app *deployedApp, p *pendingFailover) bool {
	comp, err := app.graph.Component(p.component)
	if err != nil {
		return true // component no longer in the graph: drop silently
	}
	if o.clus.NodeOf(app.name, p.component) != "" {
		// Already placed by another path — a queue drain racing a backoff
		// retry, or the node recovering mid-evacuation. Treat as resolved:
		// retrying would double-place and leak the pending record.
		return true
	}
	fromQueue := p.attempts > failoverMaxRetries
	target, err := o.replace(app, comp, p.fromNode, false, p.attempts, fromQueue, p.detectedAt, p.cause)
	if err != nil {
		return false
	}
	reason := "re-placed after node failure"
	if fromQueue {
		reason = "re-placed from recovery queue"
	}
	foSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventFailover, App: app.name, Component: p.component,
		From: p.fromNode, To: target, Cause: p.cause, Reason: reason, Value: float64(p.attempts)})
	// The component restarts cold on the new node, paying the restart cost.
	// Flows the workload re-opens cite the failover.
	o.net.SetCause(foSpan)
	app.workload.OnMigration(app.env, p.component, p.fromNode, target, o.cfg.MigrationDowntime)
	o.net.SetCause(0)
	return true
}

// replace is the one re-placement both recovery paths share, the reactive
// failover and the reconciler: choose a failover target for comp (strict
// insists on a bandwidth-feasible one; otherwise the best partially-feasible
// node will do and the data plane re-routes), commit the placement, and
// record the failover with its MTTR, measured from drifted, the time the
// component was found stranded. cause is the span the target choice's
// explanations cite. Each caller journals its own event and restarts the
// workload with its own cause.
func (o *Orchestrator) replace(app *deployedApp, comp *dag.Component, from string, strict bool, attempts int, fromQueue bool, drifted time.Duration, cause uint64) (string, error) {
	assignment := make(scheduler.Assignment)
	for _, c := range app.graph.Components() {
		if node := o.clus.NodeOf(app.name, c); node != "" {
			assignment[c] = node
		}
	}
	target, err := scheduler.ChooseFailoverTarget(
		app.graph, comp.Name, assignment, o.nodeInfos(), o.pathSpareFn,
		o.ctrl.Config().Migration,
		scheduler.TargetOptions{Recorder: o.recorder(app.name, cause), Strict: strict},
	)
	if err != nil {
		return "", err
	}
	if err := o.clus.Place(cluster.Placement{
		App:       app.name,
		Component: comp.Name,
		Node:      target,
		CPU:       comp.CPU,
		MemoryMB:  comp.MemoryMB,
	}); err != nil {
		return "", err
	}
	o.cycleNodesDirty = true
	o.failovers = append(o.failovers, FailoverEvent{
		At:        o.eng.Now(),
		App:       app.name,
		Component: comp.Name,
		From:      from,
		To:        target,
		Attempts:  attempts,
		FromQueue: fromQueue,
	})
	mttr := o.eng.Now() + o.cfg.MigrationDowntime - drifted
	o.mttrs = append(o.mttrs, mttr)
	if o.plane.Enabled() {
		o.plane.Metric(obs.MetricFailoverMTTR, mttr.Seconds(),
			"app", app.name, "component", comp.Name)
	}
	return target, nil
}

// drainFailoverQueue retries every queued component once, keeping those that
// still do not fit. Queue order is arrival order, so draining is
// deterministic.
func (o *Orchestrator) drainFailoverQueue() {
	if len(o.failoverQueue) == 0 {
		return
	}
	queue := o.failoverQueue
	o.failoverQueue = o.failoverQueue[:0]
	for _, p := range queue {
		app, ok := o.apps[p.app]
		if !ok {
			continue
		}
		p.attempts++
		if !o.placeFailover(app, p) {
			o.failoverQueue = append(o.failoverQueue, p)
		}
	}
}

// RecoveryReport summarises detections, failovers, and the current queue.
func (o *Orchestrator) RecoveryReport() RecoveryReport {
	r := RecoveryReport{
		Detections: append([]DetectionRecord(nil), o.detections...),
		Failovers:  append([]FailoverEvent(nil), o.failovers...),
		QueuedNow:  len(o.failoverQueue),
	}
	if len(o.mttrs) > 0 {
		var sum time.Duration
		for _, d := range o.mttrs {
			sum += d
			if d > r.MTTRMax {
				r.MTTRMax = d
			}
		}
		r.MTTRMean = sum / time.Duration(len(o.mttrs))
	}
	return r
}

// Detections returns the node-down detection log.
func (o *Orchestrator) Detections() []DetectionRecord {
	out := make([]DetectionRecord, len(o.detections))
	copy(out, o.detections)
	return out
}

// QueuedFailovers lists components currently waiting for capacity, sorted.
func (o *Orchestrator) QueuedFailovers() []string {
	out := make([]string, 0, len(o.failoverQueue))
	for _, p := range o.failoverQueue {
		out = append(out, p.app+"/"+p.component)
	}
	sort.Strings(out)
	return out
}
