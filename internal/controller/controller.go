// Package controller implements the BASS bandwidth controller (§4.3): it
// periodically evaluates headroom probes and per-pair goodput, decides when
// link capacity changes warrant a full probe, and — after a cooldown that
// filters transient dips — instructs the scheduler to migrate offending
// components.
package controller

import (
	"errors"
	"time"

	"bass/internal/mesh"
	"bass/internal/netmon"
	"bass/internal/obs"
	"bass/internal/scheduler"
)

// Config tunes the controller.
type Config struct {
	// Migration carries the utilization threshold, goodput floor, and
	// headroom parameters (§6.3.3).
	Migration scheduler.MigrationConfig
	// Cooldown is how long a violation must persist before a migration is
	// triggered, avoiding reactions to transient bandwidth changes (§4.3).
	Cooldown time.Duration
	// ReMigrationInterval is the minimum spacing between migrations of the
	// same component, preventing thrash.
	ReMigrationInterval time.Duration
}

// FailureThreshold is the number of consecutive failed probe sweeps on EVERY
// link of a node before the controller declares it down. Lower detects
// faster; higher tolerates longer probe-loss windows without false positives.
const FailureThreshold = 3

// DefaultConfig returns the paper's defaults: 50% thresholds, one probing
// interval of cooldown, and a 2-minute re-migration guard.
func DefaultConfig() Config {
	return Config{
		Migration:           scheduler.DefaultMigrationConfig(),
		Cooldown:            30 * time.Second,
		ReMigrationInterval: 2 * time.Minute,
	}
}

// Controller tracks violation persistence across evaluation cycles. Drive it
// once per monitoring interval: Observe, then ResolveApp for each
// application's Algorithm 3 report, then FinishCycle. It does not spawn
// goroutines.
type Controller struct {
	cfg     Config
	monitor *netmon.Monitor
	now     func() time.Duration

	// Violation windows and re-migration guards belong to one component of
	// one application: two apps may both name a component "src".
	firstViolation map[compKey]time.Duration
	// firstViolationSpan remembers each candidate's migration_candidate span
	// for as long as its violation window stays open, so a migration approved
	// cycles later still cites the verdict that started its cooldown.
	firstViolationSpan map[compKey]uint64
	lastMigration      map[compKey]time.Duration
	migrations         int

	// deadNodes holds the controller's current node-down verdicts, so
	// observations report transitions rather than repeating standing state.
	deadNodes map[string]bool

	// Per-cycle scratch, reused so a quiet cycle allocates nothing. exclude
	// is the per-app re-migration guard set built once in Observe;
	// cycleCandidates accumulates every candidate seen by ResolveApp this
	// cycle, so FinishCycle can expire the violation clocks that cleared.
	exclude         map[string]map[string]bool
	cycleCandidates map[compKey]bool

	// plane journals verdicts (candidates entering cooldown, node liveness
	// transitions) when observability is attached; nil costs nothing.
	plane *obs.Plane
}

// New builds a controller over the monitor. now supplies (virtual) time.
func New(monitor *netmon.Monitor, cfg Config, now func() time.Duration) *Controller {
	if cfg.Migration.UtilizationThreshold == 0 && cfg.Migration.GoodputFloor == 0 {
		cfg.Migration = scheduler.DefaultMigrationConfig()
	}
	return &Controller{
		cfg:                cfg,
		monitor:            monitor,
		now:                now,
		firstViolation:     make(map[compKey]time.Duration),
		firstViolationSpan: make(map[compKey]uint64),
		lastMigration:      make(map[compKey]time.Duration),
		deadNodes:          make(map[string]bool),
		exclude:            make(map[string]map[string]bool),
		cycleCandidates:    make(map[compKey]bool),
	}
}

// compKey names one component of one deployed application.
type compKey struct{ app, comp string }

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetObserver attaches an observability plane for decision journaling.
func (c *Controller) SetObserver(p *obs.Plane) { c.plane = p }

// Migrations reports the total number of migrations approved so far.
func (c *Controller) Migrations() int { return c.migrations }

// CycleObservation is the application-independent half of one evaluation
// cycle: the probe sweep, its derived liveness transitions, the cycle's
// cause span, and the re-migration exclusion set. One Observe feeds every
// application's ResolveApp that cycle, in deployment order.
type CycleObservation struct {
	// FullProbeLinks are links whose headroom changed enough that the
	// cached capacity was refreshed with a max-capacity probe.
	FullProbeLinks []mesh.LinkID
	// ProbeErrors are the links that could not be probed this cycle.
	ProbeErrors []netmon.ProbeError
	// NodesDown / NodesRecovered list this cycle's liveness transitions,
	// each with the span of its journal verdict.
	NodesDown      []NodeVerdict
	NodesRecovered []NodeVerdict
	// CycleCause is the probe evidence span this cycle's verdicts cite: the
	// first violated headroom event, else the first probe observation.
	CycleCause uint64
	// Exclude maps each application to its components inside their
	// re-migration guard; pass Exclude[app] to
	// scheduler.FindMigrationCandidates. Valid until the next Observe.
	Exclude map[string]map[string]bool

	now time.Duration
}

// NodeVerdict is one liveness transition: the node and the span of the
// node_down or node_recovered event that journaled it (0 without a journal).
type NodeVerdict struct {
	Node string
	Span uint64
}

// Observe runs the shared half of one monitoring cycle: headroom-probe all
// links, refresh capacity estimates of links whose headroom changed, run
// failure detection, and build the exclusion set. fullProbe (optional)
// refreshes one link's cached capacity. All journal emissions happen here,
// serially, in sorted link order.
func (c *Controller) Observe(fullProbe func(mesh.LinkID) error) CycleObservation {
	events, probeErrs := c.monitor.HeadroomProbeAll()
	var probeLinks []mesh.LinkID
	for _, ev := range events {
		if ev.Changed || ev.Violated {
			probeLinks = append(probeLinks, ev.Link)
		}
	}
	if fullProbe != nil {
		for _, link := range probeLinks {
			// A stale capacity estimate would mis-rank migration targets. A
			// failed refresh is not fatal to the cycle — migration decisions
			// proceed on the cached estimate — but it is evidence (the link
			// may have just died), so it joins the decision's probe errors.
			if err := fullProbe(link); err != nil {
				var pe netmon.ProbeError
				if !errors.As(err, &pe) {
					pe = netmon.ProbeError{Link: link, Op: "full", Err: err}
				}
				probeErrs = append(probeErrs, pe)
			}
		}
	}

	// Cause spans for this cycle's verdicts. A violated headroom event is the
	// strongest evidence; any probe observation beats nothing.
	var cycleCause uint64
	for _, ev := range events {
		if ev.Span == 0 {
			continue
		}
		if cycleCause == 0 {
			cycleCause = ev.Span
		}
		if ev.Violated {
			cycleCause = ev.Span
			break
		}
	}
	// nodeEvidence picks the cause of a liveness verdict about node: the
	// latest probe observation (error or sample) on one of its links.
	nodeEvidence := func(node string, wantErrors bool) uint64 {
		var span uint64
		if wantErrors {
			for _, pe := range probeErrs {
				if (pe.Link.A == node || pe.Link.B == node) && pe.Span > span {
					span = pe.Span
				}
			}
		} else {
			for _, ev := range events {
				if (ev.Link.A == node || ev.Link.B == node) && ev.Span > span {
					span = ev.Span
				}
			}
		}
		return span
	}

	// Failure detection: a node whose every link has failed FailureThreshold
	// consecutive sweeps is declared down; one answered probe brings it back.
	// Only transitions are reported.
	var nodesDown, nodesRecovered []NodeVerdict
	for _, node := range c.monitor.Nodes() {
		floor := c.monitor.NodeFailureFloor(node)
		switch {
		case floor >= FailureThreshold && !c.deadNodes[node]:
			c.deadNodes[node] = true
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventNodeDown, Node: node,
				Cause:  nodeEvidence(node, true),
				Reason: "all links failed K consecutive sweeps", Value: float64(floor)})
			nodesDown = append(nodesDown, NodeVerdict{node, span})
		case floor == 0 && c.deadNodes[node]:
			delete(c.deadNodes, node)
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventNodeRecovered, Node: node,
				Cause: nodeEvidence(node, false), Reason: "probe answered"})
			nodesRecovered = append(nodesRecovered, NodeVerdict{node, span})
		}
	}

	// Components inside their re-migration guard cannot be candidates; their
	// violating partners take their place (progressive relocation, Table 1).
	// The per-app sets are cleared, not dropped, so a quiet cycle reuses them.
	now := c.now()
	for _, set := range c.exclude {
		clear(set)
	}
	for k, last := range c.lastMigration {
		if now-last < c.cfg.ReMigrationInterval {
			set := c.exclude[k.app]
			if set == nil {
				set = make(map[string]bool)
				c.exclude[k.app] = set
			}
			set[k.comp] = true
		}
	}

	return CycleObservation{
		FullProbeLinks: probeLinks,
		ProbeErrors:    probeErrs,
		NodesDown:      nodesDown,
		NodesRecovered: nodesRecovered,
		CycleCause:     cycleCause,
		Exclude:        c.exclude,
		now:            now,
	}
}

// AppDecision is one application's share of a cycle's verdict: the
// components whose violations survived the cooldown, and the spans of the
// migration_candidate events that opened their violation windows.
type AppDecision struct {
	Migrate        []string
	CandidateSpans map[string]uint64
}

// ResolveApp folds application app's Algorithm 3 report into the
// controller's cooldown state: new candidates open violation windows (and
// journal migration_candidate verdicts citing the cycle cause), candidates
// past the cooldown are approved. It journals and mutates clocks, so the
// orchestrator calls it app by app in deployment order, once the cycle's
// Algorithm 3 reports are built. Call FinishCycle once all apps of the cycle
// are resolved.
func (c *Controller) ResolveApp(o *CycleObservation, app string, report scheduler.MigrationReport) AppDecision {
	now := o.now
	for _, name := range report.Candidates {
		k := compKey{app, name}
		c.cycleCandidates[k] = true
		if _, ok := c.firstViolation[k]; !ok {
			c.firstViolation[k] = now
			// Journal the moment a component enters the violation window —
			// the cooldown clock that explains a later migration starts here.
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventMigrationCandidate, Component: name,
				Cause: o.CycleCause, Reason: "bandwidth violation observed; cooldown started"})
			if span != 0 {
				c.firstViolationSpan[k] = span
			}
		}
	}

	var dec AppDecision
	for _, name := range report.Candidates {
		k := compKey{app, name}
		if span, ok := c.firstViolationSpan[k]; ok {
			if dec.CandidateSpans == nil {
				dec.CandidateSpans = make(map[string]uint64, len(report.Candidates))
			}
			dec.CandidateSpans[name] = span
		}
		if now-c.firstViolation[k] < c.cfg.Cooldown {
			continue
		}
		dec.Migrate = append(dec.Migrate, name)
	}
	return dec
}

// FinishCycle closes one evaluation cycle: violations that cleared — open
// windows whose components were candidates of no application this cycle —
// reset their cooldown clocks.
func (c *Controller) FinishCycle() {
	for k := range c.firstViolation {
		if !c.cycleCandidates[k] {
			delete(c.firstViolation, k)
			delete(c.firstViolationSpan, k)
		}
	}
	clear(c.cycleCandidates)
}

// NodeDown reports whether the controller currently considers a node dead.
func (c *Controller) NodeDown(node string) bool { return c.deadNodes[node] }

// RecordMigration notes that a component of app was actually migrated,
// starting its re-migration guard and clearing its violation clock.
func (c *Controller) RecordMigration(app, component string) {
	k := compKey{app, component}
	c.lastMigration[k] = c.now()
	delete(c.firstViolation, k)
	delete(c.firstViolationSpan, k)
	c.migrations++
}

// RecordMigrationFailure clears the violation clock without counting a
// migration, so the component is reconsidered after a fresh cooldown rather
// than retried every cycle.
func (c *Controller) RecordMigrationFailure(app, component string) {
	c.firstViolation[compKey{app, component}] = c.now()
}
