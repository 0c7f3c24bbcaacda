// Package reconcile is the declarative convergence loop: each application
// carries a desired-state Spec (which components must be placed, at what
// priority), a host adapter exposes the observed placement, and a Reconciler
// diffs the two every evaluation epoch, converging through idempotent,
// bounded actions instead of one-shot reactions.
//
// Drift handling climbs a degraded-mode ladder — migrate, re-route, shed the
// lowest-priority app, park — with a per-rung retry budget and seeded
// exponential backoff with jitter, so a fault storm degrades service in
// priority order and never wedges the orchestrator into needing a restart.
//
// Every decision flows through the causal-tracing plane: a drift event cites
// the probe sample or fault injection that explains it, each action cites its
// drift, and the converged event that closes an episode cites the last action
// — an explainable drift → action → converged chain per incident.
package reconcile

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"bass/internal/obs"
)

// Rung indexes the degraded-mode ladder, mildest first.
type Rung int

const (
	// RungMigrate re-places the component on a bandwidth-feasible node.
	RungMigrate Rung = iota
	// rungReroute accepts a bandwidth-infeasible node and lets the data
	// plane re-route (or park) the affected flows.
	rungReroute
	// RungShed removes the lowest-priority application outright to free
	// capacity for the drifted one.
	RungShed
	// RungPark gives up on fast convergence: the component stays pending and
	// is retried at the maximum backoff until capacity returns.
	RungPark
)

func (r Rung) String() string {
	switch r {
	case RungMigrate:
		return "migrate"
	case rungReroute:
		return "reroute"
	case RungShed:
		return "shed"
	default:
		return "park"
	}
}

// DriftKind classifies why observed placement diverged from the spec.
type DriftKind string

const (
	// driftMissing is a spec component with no observed placement.
	driftMissing DriftKind = "missing"
	// DriftDeadNode is a spec component observed on an unhealthy node.
	DriftDeadNode DriftKind = "dead-node"
	// driftUnexpected is an observed component no spec asks for.
	driftUnexpected DriftKind = "unexpected"
)

// Spec is an application's desired state: every named component placed on a
// healthy node. Priority orders shedding — higher values are shed last.
type Spec struct {
	App      string
	Priority int
	// Components names the desired components. SetSpec sorts the slice in
	// place and keeps it, so the caller must not change it afterwards.
	Components []string
}

// Config bounds the loop.
type Config struct {
	// Epoch is the evaluation interval (default 30 s); drift is also
	// re-checked eagerly on topology changes and explicit kicks.
	Epoch time.Duration
}

// The loop's fixed bounds.
const (
	// maxActionsPerEpoch caps convergence work per tick so a storm cannot
	// starve the rest of the control loop (bounded migration thrash).
	maxActionsPerEpoch = 8
	// retryBudget is the per-rung attempt budget before escalating.
	retryBudget = 3
	// backoffBase/backoffMax bound the inter-retry delay.
	backoffBase = 5 * time.Second
	backoffMax  = 2 * time.Minute
	// jitterFrac spreads retries by ±frac around the exponential delay,
	// drawn from the host's seeded RNG.
	jitterFrac = 0.2
	// restoreCooldown is how long a shed app stays out after the mesh
	// re-converges before re-admission is attempted.
	restoreCooldown = time.Minute
)

// Action is one placement request handed to the host.
type Action struct {
	App       string
	Component string
	FromNode  string
	Rung      Rung
	// Attempt is the cumulative attempt count for this drift (1-based).
	Attempt int
	// DriftedAt is when the drift was first observed.
	DriftedAt time.Duration
	// Cause is the drift span to thread through data-plane side effects.
	Cause uint64
}

// Host adapts the orchestrator (or a test fake) to the reconciler. All
// methods are called from the simulation's single event goroutine.
type Host interface {
	Now() time.Duration
	Rand() *rand.Rand
	After(d time.Duration, fn func())
	// ObservedNode reports where a component actually runs ("" if nowhere).
	ObservedNode(app, component string) string
	// ObservedComponents lists an app's placed components, sorted. The list
	// may alias the host's state: it need only stay valid until the next
	// Place, Evict or Shed, and the reconciler never modifies it.
	ObservedComponents(app string) []string
	// NodeHealthy reports whether a node is known, uncordoned, and alive.
	NodeHealthy(node string) bool
	// NodeDownCause returns the span of the verdict that declared the node
	// dead (0 if unknown) so self-detected drift stays explainable.
	NodeDownCause(node string) uint64
	// Place converges one component; it must be idempotent (already placed
	// on a healthy node ⇒ success) and return the chosen node.
	Place(a Action) (string, error)
	// Evict removes an observed placement the specs do not ask for.
	Evict(app, component string, cause uint64) error
	// Shed removes every placement and flow of an application.
	Shed(app string, cause uint64)
}

// ConvergeRecord summarizes one closed drift episode.
type ConvergeRecord struct {
	DriftedAt   time.Duration
	ConvergedAt time.Duration
	Actions     int
}

type pending struct {
	app, component string
	kind           DriftKind
	fromNode       string
	rung           Rung
	shedTried      bool // one victim per drift record, not per retry
	attempts       int  // attempts on the current rung
	total          int  // attempts across all rungs
	firstDriftAt   time.Duration
	nextRetryAt    time.Duration
	driftSpan      uint64
}

type specState struct {
	spec     Spec
	order    int // registration order; later registrations shed first on ties
	shed     bool
	shedAt   time.Duration
	shedSpan uint64
}

// Reconciler runs the loop. It is not safe for concurrent use; drive it from
// the simulation event goroutine only.
type Reconciler struct {
	cfg   Config
	host  Host
	plane *obs.Plane

	specs []*specState // sorted by app: deterministic scan order

	pendings map[string]*pending
	order    []string // sorted pending keys: deterministic action order

	// kickArmed coalesces kicks; kickFn is the one callback every kick
	// arms, built in New so a kick allocates nothing.
	kickArmed bool
	kickFn    func()

	// evict is scan's reused copy of the components it is about to evict:
	// the host's observed list may alias state that eviction changes.
	evict []string

	inEpisode      bool
	episodeStart   time.Duration
	episodeActions int
	lastActionSpan uint64

	actionsTotal int
	driftsSeen   int
	sheds        int
	restores     int
	converges    []ConvergeRecord
}

// New builds a reconciler over host.
func New(cfg Config, host Host) *Reconciler {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 30 * time.Second
	}
	r := &Reconciler{
		cfg:      cfg,
		host:     host,
		pendings: make(map[string]*pending),
	}
	r.kickFn = func() {
		r.kickArmed = false
		r.Tick()
	}
	return r
}

// SetObserver attaches the causal-tracing plane (nil detaches). Nil-safe so
// callers can wire an optional reconciler unconditionally.
func (r *Reconciler) SetObserver(p *obs.Plane) {
	if r == nil {
		return
	}
	r.plane = p
}

// Config reports the effective (defaulted) configuration.
func (r *Reconciler) Config() Config { return r.cfg }

// SetSpec registers or replaces an application's desired state. It sorts
// s.Components by name, in place, so diff order is deterministic, and keeps
// the slice. Nil-safe, like SetObserver.
func (r *Reconciler) SetSpec(s Spec) {
	if r == nil {
		return
	}
	slices.Sort(s.Components)
	i, found := r.specIndex(s.App)
	if found {
		r.specs[i].spec = s
		return
	}
	r.specs = slices.Insert(r.specs, i, &specState{spec: s, order: len(r.specs)})
}

// specIndex is where app's spec is, or would be inserted, in r.specs.
func (r *Reconciler) specIndex(app string) (int, bool) {
	return slices.BinarySearchFunc(r.specs, app, func(st *specState, app string) int {
		return strings.Compare(st.spec.App, app)
	})
}

// spec is app's registered state, or nil.
func (r *Reconciler) spec(app string) *specState {
	if i, found := r.specIndex(app); found {
		return r.specs[i]
	}
	return nil
}

func pendingKey(app, component string) string { return app + "\x00" + component }

// NoteDrift records drift observed outside the scan (a node-down
// evacuation) so the next tick converges it. cause is the span of the
// event that explains the drift. Unknown or shed apps are ignored; duplicate
// notes of the same component are deduplicated.
func (r *Reconciler) NoteDrift(app, component string, kind DriftKind, fromNode string, cause uint64) {
	if st := r.spec(app); st == nil || st.shed {
		return
	}
	if _, dup := r.pendings[pendingKey(app, component)]; dup {
		return
	}
	r.addPending(app, component, kind, fromNode, cause)
	r.Kick()
}

// addPending opens a drift record and emits its journal event.
func (r *Reconciler) addPending(app, component string, kind DriftKind, fromNode string, cause uint64) {
	now := r.host.Now()
	p := &pending{
		app: app, component: component, kind: kind, fromNode: fromNode,
		firstDriftAt: now,
	}
	p.driftSpan = r.plane.EmitSpan(obs.Event{
		Type: obs.EventReconcileDrift, App: app, Component: component,
		Node: fromNode, Reason: string(kind), Cause: cause,
	})
	key := pendingKey(app, component)
	r.pendings[key] = p
	i := sort.SearchStrings(r.order, key)
	r.order = append(r.order, "")
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = key
	r.driftsSeen++
	if !r.inEpisode {
		r.inEpisode = true
		r.episodeStart = now
		r.episodeActions = 0
	}
}

func (r *Reconciler) removePending(key string) {
	if _, ok := r.pendings[key]; !ok {
		return
	}
	delete(r.pendings, key)
	if i := sort.SearchStrings(r.order, key); i < len(r.order) && r.order[i] == key {
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

func (r *Reconciler) dropPendings(app string) {
	for _, key := range append([]string(nil), r.order...) {
		if p := r.pendings[key]; p != nil && p.app == app {
			r.removePending(key)
		}
	}
}

// Kick schedules a tick at the current virtual time (coalescing repeats), so
// topology changes and drift notes converge eagerly instead of waiting out
// the epoch.
func (r *Reconciler) Kick() {
	if r == nil || r.kickArmed {
		return
	}
	r.kickArmed = true
	r.host.After(0, r.kickFn)
}

// Tick runs one reconcile pass: scan for drift, act on it within the epoch's
// action budget, then settle (restore shed apps, close the episode, emit
// gauges). Idempotent: a pass over a converged system changes nothing.
func (r *Reconciler) Tick() {
	if r == nil {
		return
	}
	r.scan()
	r.act()
	r.settle()
}

// scan diffs every active spec against observed placement. Both sides are
// sorted (SetSpec sorts the spec, the host sorts what it observes), so one
// merge walk per app finds missing, dead-node and unexpected components.
// Evictions change the host's observed list, so they walk r.evict, a copy.
func (r *Reconciler) scan() {
	for _, st := range r.specs {
		app := st.spec.App
		observed := r.host.ObservedComponents(app)
		if st.shed {
			// A shed app's desired state is "absent": evict stragglers.
			r.evict = append(r.evict[:0], observed...)
			for _, comp := range r.evict {
				if err := r.host.Evict(app, comp, st.shedSpan); err == nil {
					r.plane.Emit(obs.Event{
						Type: obs.EventReconcileAction, App: app, Component: comp,
						Reason: "evicted: app is shed", Cause: st.shedSpan,
					})
				}
			}
			continue
		}
		r.evict = r.evict[:0]
		j := 0
		for _, comp := range st.spec.Components {
			for j < len(observed) && observed[j] < comp {
				r.evict = append(r.evict, observed[j])
				j++
			}
			if j < len(observed) && observed[j] == comp {
				j++
			}
			node := r.host.ObservedNode(app, comp)
			if node != "" && r.host.NodeHealthy(node) {
				// Converged (possibly by an external path): close the record.
				// With none open, skip building the key: the quiet tick stays
				// allocation-free whatever the name lengths.
				if len(r.pendings) > 0 {
					r.removePending(pendingKey(app, comp))
				}
				continue
			}
			if _, open := r.pendings[pendingKey(app, comp)]; open {
				continue
			}
			if node != "" {
				r.addPending(app, comp, DriftDeadNode, node, r.host.NodeDownCause(node))
			} else {
				r.addPending(app, comp, driftMissing, "", 0)
			}
		}
		r.evict = append(r.evict, observed[j:]...)
		// Observed components the spec does not ask for are drift too; the
		// convergence action is eviction, cited to the drift record.
		for _, comp := range r.evict {
			span := r.plane.EmitSpan(obs.Event{
				Type: obs.EventReconcileDrift, App: app, Component: comp,
				Node: r.host.ObservedNode(app, comp), Reason: string(driftUnexpected),
			})
			r.driftsSeen++
			if err := r.host.Evict(app, comp, span); err == nil {
				r.actionsTotal++
				r.plane.Emit(obs.Event{
					Type: obs.EventReconcileAction, App: app, Component: comp,
					Reason: "evicted: not in spec", Cause: span,
				})
			}
		}
	}
}

// act walks open drift in deterministic key order, attempting at most
// maxActionsPerEpoch placements whose backoff has elapsed.
func (r *Reconciler) act() {
	now := r.host.Now()
	actions := 0
	for _, key := range append([]string(nil), r.order...) {
		if actions >= maxActionsPerEpoch {
			break
		}
		p := r.pendings[key]
		if p == nil || now < p.nextRetryAt {
			continue
		}
		if p.rung == RungShed && !p.shedTried {
			p.shedTried = true
			r.shedOne(p)
		}
		actions++
		r.actionsTotal++
		r.episodeActions++
		p.total++
		toNode, err := r.host.Place(Action{
			App: p.app, Component: p.component, FromNode: p.fromNode,
			Rung: p.rung, Attempt: p.total, DriftedAt: p.firstDriftAt,
			Cause: p.driftSpan,
		})
		if err == nil {
			r.lastActionSpan = r.plane.EmitSpan(obs.Event{
				Type: obs.EventReconcileAction, App: p.app, Component: p.component,
				From: p.fromNode, To: toNode,
				Reason: "placed via " + p.rung.String(),
				Value:  float64(p.total), Cause: p.driftSpan,
			})
			r.removePending(key)
			continue
		}
		r.plane.Emit(obs.Event{
			Type: obs.EventReconcileAction, App: p.app, Component: p.component,
			From: p.fromNode, Reason: fmt.Sprintf("%s failed: %v", p.rung, err),
			Value: float64(p.total), Cause: p.driftSpan,
		})
		p.attempts++
		if p.attempts >= retryBudget && p.rung < RungPark {
			p.rung++
			p.attempts = 0
			r.plane.Emit(obs.Event{
				Type: obs.EventReconcileDegraded, App: p.app, Component: p.component,
				Reason: p.rung.String(), Value: float64(p.rung), Cause: p.driftSpan,
			})
		}
		delay := backoff(backoffBase, backoffMax, jitterFrac, p.attempts+1, r.host.Rand())
		if p.rung == RungPark {
			delay = backoff(backoffMax, backoffMax, jitterFrac, 1, r.host.Rand())
		}
		// settle() arms the wake-up at the earliest nextRetryAt.
		p.nextRetryAt = now + delay
	}
}

// shedOne sheds the best victim for p: the lowest-priority app strictly below
// p's own priority (latest-registered on ties). Strictly lower only — equal
// priorities never shed each other, so no shed cycle can form.
func (r *Reconciler) shedOne(p *pending) {
	reqPrio := r.spec(p.app).spec.Priority
	var victim *specState
	for _, st := range r.specs {
		if st.shed || st.spec.App == p.app || st.spec.Priority >= reqPrio {
			continue
		}
		if victim == nil || st.spec.Priority < victim.spec.Priority ||
			(st.spec.Priority == victim.spec.Priority && st.order > victim.order) {
			victim = st
		}
	}
	if victim == nil {
		return
	}
	victim.shed = true
	victim.shedAt = r.host.Now()
	victim.shedSpan = r.plane.EmitSpan(obs.Event{
		Type: obs.EventReconcileShed, App: victim.spec.App,
		Reason: fmt.Sprintf("freeing capacity for %s/%s", p.app, p.component),
		Value:  float64(victim.spec.Priority), Cause: p.driftSpan,
	})
	r.sheds++
	r.dropPendings(victim.spec.App)
	r.host.Shed(victim.spec.App, victim.shedSpan)
}

// settle restores shed apps once the mesh is quiet, closes converged
// episodes, and emits the loop's gauges.
func (r *Reconciler) settle() {
	now := r.host.Now()
	if len(r.pendings) == 0 {
		// Quiet: re-admit at most one shed app per pass, highest priority
		// first, after its cooldown — restores trickle back instead of
		// re-creating the overload that shed them.
		var cand *specState
		for _, st := range r.specs {
			if !st.shed || now < st.shedAt+restoreCooldown {
				continue
			}
			if cand == nil || st.spec.Priority > cand.spec.Priority ||
				(st.spec.Priority == cand.spec.Priority && st.order < cand.order) {
				cand = st
			}
		}
		if cand != nil {
			cand.shed = false
			r.restores++
			restoreSpan := r.plane.EmitSpan(obs.Event{
				Type: obs.EventReconcileRestore, App: cand.spec.App,
				Cause: cand.shedSpan,
			})
			for _, comp := range cand.spec.Components {
				node := r.host.ObservedNode(cand.spec.App, comp)
				if node == "" || !r.host.NodeHealthy(node) {
					r.addPending(cand.spec.App, comp, driftMissing, "", restoreSpan)
				}
			}
		}
	}
	if r.inEpisode && len(r.pendings) == 0 && !r.anyShed() {
		elapsed := now - r.episodeStart
		r.plane.Emit(obs.Event{
			Type: obs.EventReconcileConverged, Value: elapsed.Seconds(),
			Want: float64(r.episodeActions), Cause: r.lastActionSpan,
		})
		r.plane.Metric(obs.MetricReconcileConverge, elapsed.Seconds())
		r.converges = append(r.converges, ConvergeRecord{
			DriftedAt: r.episodeStart, ConvergedAt: now, Actions: r.episodeActions,
		})
		r.inEpisode = false
		r.episodeActions = 0
		r.lastActionSpan = 0
	}
	r.plane.Metric(obs.MetricReconcileDrift, float64(len(r.pendings)))
	r.plane.Metric(obs.MetricReconcileActions, float64(r.actionsTotal))
	r.plane.Metric(obs.MetricDegradedMode, float64(r.DegradedMode()))
	if len(r.pendings) > 0 {
		// Make sure a future pass exists even if every retry is backing off
		// and the epoch timer is long: wake at the earliest retry. Drift
		// that is already due (budget-capped leftovers, restores) re-kicks
		// immediately; the per-tick action budget still bounds each pass.
		earliest := time.Duration(-1)
		for _, key := range r.order {
			if p := r.pendings[key]; p != nil && (earliest < 0 || p.nextRetryAt < earliest) {
				earliest = p.nextRetryAt
			}
		}
		if earliest > now {
			r.host.After(earliest-now, r.Tick)
		} else {
			r.Kick()
		}
	}
}

func (r *Reconciler) anyShed() bool {
	for _, st := range r.specs {
		if st.shed {
			return true
		}
	}
	return false
}

// Converged reports whether observed placement matches every active spec and
// nothing is shed.
func (r *Reconciler) Converged() bool {
	return r != nil && len(r.pendings) == 0 && !r.anyShed()
}

// OutstandingDrift is the number of open drift records.
func (r *Reconciler) OutstandingDrift() int {
	if r == nil {
		return 0
	}
	return len(r.pendings)
}

// DegradedMode is the worst active ladder rung (RungShed floor while any app
// is shed), 0 when healthy.
func (r *Reconciler) DegradedMode() Rung {
	if r == nil {
		return 0
	}
	worst := Rung(0)
	for _, key := range r.order {
		if p := r.pendings[key]; p != nil && p.rung > worst {
			worst = p.rung
		}
	}
	if worst < RungShed && r.anyShed() {
		worst = RungShed
	}
	return worst
}

// ActionsTotal counts convergence actions attempted since start.
func (r *Reconciler) ActionsTotal() int {
	if r == nil {
		return 0
	}
	return r.actionsTotal
}

// DriftsSeen counts drift records opened since start.
func (r *Reconciler) DriftsSeen() int {
	if r == nil {
		return 0
	}
	return r.driftsSeen
}

// Sheds counts applications shed since start.
func (r *Reconciler) Sheds() int {
	if r == nil {
		return 0
	}
	return r.sheds
}

// Restores counts shed applications re-admitted since start.
func (r *Reconciler) Restores() int {
	if r == nil {
		return 0
	}
	return r.restores
}

// Converges lists the closed drift episodes, oldest first.
func (r *Reconciler) Converges() []ConvergeRecord {
	if r == nil {
		return nil
	}
	return append([]ConvergeRecord(nil), r.converges...)
}
