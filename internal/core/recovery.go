package core

import (
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
// was declared down, or after the reconciler found it missing.
type FailoverEvent struct {
	At        time.Duration
	App       string
	Component string
	From, To  string
	// Attempts is how many placement attempts it took (1 = first try).
	Attempts int
	// FromQueue marks components placed from the degraded-mode ladder's shed
	// or park rung: every milder attempt failed, and the component waited for
	// capacity.
	FromQueue bool
}

// RecoveryReport summarises failure handling over a run.
type RecoveryReport struct {
	Detections []DetectionRecord
	Failovers  []FailoverEvent
	// QueuedNow counts components still waiting for placement at report
	// time: the reconciler's open drift records.
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

// handleNodeDown reacts to a controller node-down verdict: cordon the node so
// nothing new lands there, evacuate every placement it held (across all
// apps, in deterministic order), record the detection, and hand each
// stranded component to the reconciler as drift, which owns re-placement:
// retry budgets, the degraded-mode ladder and the convergence bookkeeping.
// Untouched components keep serving throughout — only flows that crossed
// the dead node were disturbed, and the network already handled those.
func (o *Orchestrator) handleNodeDown(node string, cause uint64) {
	if err := o.clus.Cordon(node); err != nil {
		return // unknown to the cluster: nothing placed there
	}
	o.view.built = false // the node set changed
	o.nodeDownSpan[node] = cause
	cordonSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventCordon, Node: node,
		Cause: cause, Reason: "node-down verdict"})
	// Every evacuation is journaled before the first drift it causes.
	type strandedComp struct {
		app, comp string
		evacSpan  uint64
	}
	var stranded []strandedComp
	for _, appName := range o.appOrder {
		for _, comp := range o.clus.ComponentsOn(appName, node) { // sorted
			if err := o.remove(appName, comp); err != nil {
				continue
			}
			evacSpan := o.plane.EmitSpan(obs.Event{Type: obs.EventEvacuate,
				App: appName, Component: comp, Node: node, Cause: cordonSpan})
			stranded = append(stranded, strandedComp{appName, comp, evacSpan})
		}
	}
	o.detections = append(o.detections, DetectionRecord{
		Node: node, DetectedAt: o.eng.Now(), Components: len(stranded),
	})
	for _, sc := range stranded {
		o.rec.NoteDrift(sc.app, sc.comp, reconcile.DriftDeadNode, node, sc.evacSpan)
	}
}

// handleNodeRecovered reopens a node the controller saw answering probes
// again and kicks the reconciler, which scans now rather than at the next
// epoch; a drift that is backing off still waits out its retry delay.
func (o *Orchestrator) handleNodeRecovered(node string, cause uint64) {
	if err := o.clus.Uncordon(node); err != nil {
		return
	}
	o.view.built = false // the node set changed
	delete(o.nodeDownSpan, node)
	o.plane.Emit(obs.Event{Type: obs.EventUncordon, Node: node,
		Cause: cause, Reason: "node recovered"})
	o.rec.Kick()
}

// replace carries out one reconcile action for comp: choose a failover
// target (the ladder's migrate rung insists on a bandwidth-feasible one;
// later rungs take the best partially-feasible node and let the data plane
// re-route), commit the placement, and record the failover with its MTTR,
// measured from the action's DriftedAt, the time the component was found
// stranded. The target choice's scoreboard cites the action's drift span.
func (o *Orchestrator) replace(app *deployedApp, comp *dag.Component, a reconcile.Action) (string, error) {
	assignment := make(scheduler.Assignment)
	for _, c := range app.graph.Components() {
		if node := o.clus.NodeOf(app.name, c); node != "" {
			assignment[c] = node
		}
	}
	target, err := scheduler.ChooseFailoverTarget(
		app.graph, comp.Name, assignment, o.nodeInfos(), o.pathSpareFn,
		o.ctrl.Config().Migration,
		scheduler.TargetOptions{Recorder: o.recorder(app.name, a.Cause), Strict: a.Rung == reconcile.RungMigrate},
	)
	if err != nil {
		return "", err
	}
	if err := o.place(cluster.Placement{
		App:       app.name,
		Component: comp.Name,
		Node:      target,
		CPU:       comp.CPU,
		MemoryMB:  comp.MemoryMB,
	}); err != nil {
		return "", err
	}
	o.failovers = append(o.failovers, FailoverEvent{
		At:        o.eng.Now(),
		App:       app.name,
		Component: comp.Name,
		From:      a.FromNode,
		To:        target,
		Attempts:  a.Attempt,
		FromQueue: a.Rung >= reconcile.RungShed,
	})
	mttr := o.eng.Now() + o.cfg.MigrationDowntime - a.DriftedAt
	o.mttrs = append(o.mttrs, mttr)
	if o.plane.Enabled() {
		o.plane.Metric(obs.MetricFailoverMTTR, mttr.Seconds(),
			"app", app.name, "component", comp.Name)
	}
	return target, nil
}

// RecoveryReport summarises detections, failovers and the open drift.
func (o *Orchestrator) RecoveryReport() RecoveryReport {
	r := RecoveryReport{
		Detections: append([]DetectionRecord(nil), o.detections...),
		Failovers:  append([]FailoverEvent(nil), o.failovers...),
		QueuedNow:  o.rec.OutstandingDrift(),
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
