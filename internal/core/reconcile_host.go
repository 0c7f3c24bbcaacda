package core

import (
	"fmt"
	"math/rand"
	"time"

	"bass/internal/obs"
	"bass/internal/reconcile"
)

// reconcileHost adapts the orchestrator to the reconciler's Host interface:
// the cluster is the observed state, the controller is the health oracle, and
// placements run through Orchestrator.replace.
type reconcileHost struct{ o *Orchestrator }

func (h reconcileHost) Now() time.Duration { return h.o.eng.Now() }

func (h reconcileHost) Rand() *rand.Rand { return h.o.eng.Rand() }

func (h reconcileHost) After(d time.Duration, fn func()) { h.o.eng.After(d, fn) }

func (h reconcileHost) ObservedNode(app, component string) string {
	return h.o.clus.NodeOf(app, component)
}

func (h reconcileHost) ObservedComponents(app string) []string {
	return h.o.clus.AppComponents(app)
}

func (h reconcileHost) NodeHealthy(node string) bool {
	if node == "" {
		return false
	}
	if _, err := h.o.clus.Node(node); err != nil {
		return false
	}
	return !h.o.clus.Cordoned(node) && !h.o.ctrl.NodeDown(node)
}

func (h reconcileHost) NodeDownCause(node string) uint64 {
	return h.o.nodeDownSpan[node]
}

// Place converges one component. Idempotent by construction: a component
// already on a healthy node succeeds without side effects, so double
// placement is structurally impossible whatever path resolved it first. The
// ladder rung picks the scheduler's strictness (see replace).
func (h reconcileHost) Place(a reconcile.Action) (string, error) {
	o := h.o
	app, ok := o.apps[a.App]
	if !ok {
		return "", fmt.Errorf("%w: %q", errUnknownApp, a.App)
	}
	comp, err := app.graph.Component(a.Component)
	if err != nil {
		return "", err
	}
	if node := o.clus.NodeOf(a.App, a.Component); node != "" {
		if h.NodeHealthy(node) {
			return node, nil
		}
		// Still sitting on an unhealthy node: evacuate, then re-place.
		if rerr := o.remove(a.App, a.Component); rerr != nil {
			return "", rerr
		}
	}
	target, err := o.replace(app, comp, a)
	if err != nil {
		return "", err
	}
	// Flows the workload re-opens cite the drift that forced the move.
	o.net.SetCause(a.Cause)
	app.workload.OnMigration(app.env, a.Component, a.FromNode, target, o.cfg.MigrationDowntime)
	o.net.SetCause(0)
	return target, nil
}

func (h reconcileHost) Evict(appName, component string, cause uint64) error {
	if err := h.o.remove(appName, component); err != nil {
		return err
	}
	h.o.plane.Emit(obs.Event{Type: obs.EventEvacuate, App: appName,
		Component: component, Cause: cause, Reason: "undesired placement evicted"})
	return nil
}

// Shed tears an application down: every placement removed, every flow with
// the app's tag prefix dropped from the data plane. The spec stays registered
// so the reconciler can restore the app later; the workload's OnMigration
// callbacks re-create its flows against the restored placement.
func (h reconcileHost) Shed(appName string, cause uint64) {
	o := h.o
	app, ok := o.apps[appName]
	if !ok {
		return
	}
	for _, comp := range app.graph.Components() { // sorted: deterministic
		if o.clus.NodeOf(appName, comp) != "" {
			_ = o.remove(appName, comp)
		}
	}
	o.net.SetCause(cause)
	// Matching is boundary-aware in simnet: the bare app name sheds "app" and
	// "app/..." tags but never a sibling like "app10" — no trailing "/" is
	// needed here to stay collision-safe.
	o.net.ShedFlowsByTagPrefix(appName)
	o.net.SetCause(0)
}

// registerSpec makes a deployed app's DAG its desired state: every
// component placed on a healthy node. The spec shares the app's frozen,
// name-sorted component list (appEvalScratch.comps). Priority defaults to
// deployment order (earlier = higher) unless the workload declares its own.
// Without migration there is no reconciler, and the nil-safe SetSpec drops
// the spec.
func (o *Orchestrator) registerSpec(app *deployedApp) {
	prio := -(len(o.appOrder) - 1)
	if p, ok := app.workload.(prioritized); ok {
		prio = p.Priority()
	}
	o.rec.SetSpec(reconcile.Spec{App: app.name, Priority: prio, Components: app.scratch.comps})
}
