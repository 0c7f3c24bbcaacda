// Package controller implements the BASS bandwidth controller (§4.3): it
// periodically evaluates headroom probes and per-pair goodput, decides when
// link capacity changes warrant a full probe, and — after a cooldown that
// filters transient dips — instructs the scheduler to migrate offending
// components.
package controller

import (
	"errors"
	"sort"
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
	// FailureThreshold is the number of consecutive failed probe sweeps on
	// EVERY link of a node before the controller declares it down (default 3).
	// Lower detects faster; higher tolerates longer probe-loss windows
	// without false positives.
	FailureThreshold int
}

// DefaultConfig returns the paper's defaults: 50% thresholds, one probing
// interval of cooldown, and a 2-minute re-migration guard.
func DefaultConfig() Config {
	return Config{
		Migration:           scheduler.DefaultMigrationConfig(),
		Cooldown:            30 * time.Second,
		ReMigrationInterval: 2 * time.Minute,
		FailureThreshold:    3,
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

	firstViolation map[string]time.Duration
	// firstViolationSpan remembers each candidate's migration_candidate span
	// for as long as its violation window stays open, so a migration approved
	// cycles later still cites the verdict that started its cooldown.
	firstViolationSpan map[string]uint64
	lastMigration      map[string]time.Duration
	migrations         int

	// deadNodes holds the controller's current node-down verdicts, so
	// observations report transitions rather than repeating standing state.
	deadNodes map[string]bool

	// Per-cycle scratch, reused so a quiet cycle allocates nothing. exclude
	// is the re-migration guard set built once in Observe; cycleCandidates
	// accumulates every candidate seen by ResolveApp this cycle, so
	// FinishCycle can expire the violation clocks that cleared.
	exclude         map[string]bool
	cycleCandidates map[string]bool

	// plane journals verdicts (candidates entering cooldown, node liveness
	// transitions) when observability is attached; nil costs nothing.
	plane *obs.Plane
}

// New builds a controller over the monitor. now supplies (virtual) time.
func New(monitor *netmon.Monitor, cfg Config, now func() time.Duration) *Controller {
	if cfg.Migration.UtilizationThreshold == 0 && cfg.Migration.GoodputFloor == 0 {
		cfg.Migration = scheduler.DefaultMigrationConfig()
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	return &Controller{
		cfg:                cfg,
		monitor:            monitor,
		now:                now,
		firstViolation:     make(map[string]time.Duration),
		firstViolationSpan: make(map[string]uint64),
		lastMigration:      make(map[string]time.Duration),
		deadNodes:          make(map[string]bool),
		exclude:            make(map[string]bool),
		cycleCandidates:    make(map[string]bool),
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetObserver attaches an observability plane for decision journaling.
func (c *Controller) SetObserver(p *obs.Plane) { c.plane = p }

// Migrations reports the total number of migrations approved so far.
func (c *Controller) Migrations() int { return c.migrations }

// CycleObservation is the application-independent half of one evaluation
// cycle: the probe sweep, its derived liveness transitions, the cycle's
// cause span, and the re-migration exclusion set. One Observe feeds every
// application's ResolveApp that cycle; the orchestrator's parallel
// evaluation phase reads it without synchronisation because Observe — the
// only writer — runs strictly before the fan-out.
type CycleObservation struct {
	// FullProbeLinks are links whose headroom changed enough that the
	// cached capacity was refreshed with a max-capacity probe.
	FullProbeLinks []mesh.LinkID
	// HeadroomEvents are the probe observations that feed this cycle.
	HeadroomEvents []netmon.HeadroomEvent
	// ProbeErrors are the links that could not be probed this cycle.
	ProbeErrors []netmon.ProbeError
	// NodesDown / NodesRecovered list this cycle's liveness transitions,
	// with the spans of their journal verdicts.
	NodesDown          []string
	NodesRecovered     []string
	NodeDownSpans      map[string]uint64
	NodeRecoveredSpans map[string]uint64
	// CycleCause is the probe evidence span this cycle's verdicts cite: the
	// first violated headroom event, else the first probe observation.
	CycleCause uint64
	// Exclude marks components inside their re-migration guard; pass it to
	// scheduler.FindMigrationCandidates. Valid until the next Observe.
	Exclude map[string]bool

	now time.Duration
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
	var nodesDown, nodesRecovered []string
	var nodeDownSpans, nodeRecoveredSpans map[string]uint64
	for _, node := range c.monitor.Nodes() {
		floor := c.monitor.NodeFailureFloor(node)
		switch {
		case floor >= c.cfg.FailureThreshold && !c.deadNodes[node]:
			c.deadNodes[node] = true
			nodesDown = append(nodesDown, node)
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventNodeDown, Node: node,
				Cause:  nodeEvidence(node, true),
				Reason: "all links failed K consecutive sweeps", Value: float64(floor)})
			if span != 0 {
				if nodeDownSpans == nil {
					nodeDownSpans = make(map[string]uint64)
				}
				nodeDownSpans[node] = span
			}
		case floor == 0 && c.deadNodes[node]:
			delete(c.deadNodes, node)
			nodesRecovered = append(nodesRecovered, node)
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventNodeRecovered, Node: node,
				Cause: nodeEvidence(node, false), Reason: "probe answered"})
			if span != 0 {
				if nodeRecoveredSpans == nil {
					nodeRecoveredSpans = make(map[string]uint64)
				}
				nodeRecoveredSpans[node] = span
			}
		}
	}

	// Components inside their re-migration guard cannot be candidates; their
	// violating partners take their place (progressive relocation, Table 1).
	now := c.now()
	clear(c.exclude)
	for name, last := range c.lastMigration {
		if now-last < c.cfg.ReMigrationInterval {
			c.exclude[name] = true
		}
	}

	return CycleObservation{
		FullProbeLinks:     probeLinks,
		HeadroomEvents:     events,
		ProbeErrors:        probeErrs,
		NodesDown:          nodesDown,
		NodesRecovered:     nodesRecovered,
		NodeDownSpans:      nodeDownSpans,
		NodeRecoveredSpans: nodeRecoveredSpans,
		CycleCause:         cycleCause,
		Exclude:            c.exclude,
		now:                now,
	}
}

// AppDecision is one application's share of a cycle's verdict: the
// components whose violations survived the cooldown, and the spans of the
// migration_candidate events that opened their violation windows.
type AppDecision struct {
	Migrate        []string
	CandidateSpans map[string]uint64
}

// ResolveApp folds one application's Algorithm 3 report into the
// controller's cooldown state: new candidates open violation windows (and
// journal migration_candidate verdicts citing the cycle cause), candidates
// past the cooldown are approved. Serial — it journals and mutates clocks;
// the orchestrator calls it app by app in deterministic order during the
// commit phase, after the parallel evaluation produced the reports. Call
// FinishCycle once all apps of the cycle are resolved.
func (c *Controller) ResolveApp(o *CycleObservation, report scheduler.MigrationReport) AppDecision {
	now := o.now
	for _, name := range report.Candidates {
		c.cycleCandidates[name] = true
		if _, ok := c.firstViolation[name]; !ok {
			c.firstViolation[name] = now
			// Journal the moment a component enters the violation window —
			// the cooldown clock that explains a later migration starts here.
			span := c.plane.EmitSpan(obs.Event{Type: obs.EventMigrationCandidate, Component: name,
				Cause: o.CycleCause, Reason: "bandwidth violation observed; cooldown started"})
			if span != 0 {
				c.firstViolationSpan[name] = span
			}
		}
	}

	var dec AppDecision
	for _, name := range report.Candidates {
		if span, ok := c.firstViolationSpan[name]; ok {
			if dec.CandidateSpans == nil {
				dec.CandidateSpans = make(map[string]uint64, len(report.Candidates))
			}
			dec.CandidateSpans[name] = span
		}
		if now-c.firstViolation[name] < c.cfg.Cooldown {
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
	for name := range c.firstViolation {
		if !c.cycleCandidates[name] {
			delete(c.firstViolation, name)
			delete(c.firstViolationSpan, name)
		}
	}
	clear(c.cycleCandidates)
}

// NodeDown reports whether the controller currently considers a node dead.
func (c *Controller) NodeDown(node string) bool { return c.deadNodes[node] }

// DeadNodes lists the nodes currently considered dead, sorted — the health
// snapshot the reconciler and run summaries report against.
func (c *Controller) DeadNodes() []string {
	out := make([]string, 0, len(c.deadNodes))
	for n := range c.deadNodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RecordMigration notes that a component was actually migrated, starting its
// re-migration guard and clearing its violation clock.
func (c *Controller) RecordMigration(component string) {
	c.lastMigration[component] = c.now()
	delete(c.firstViolation, component)
	delete(c.firstViolationSpan, component)
	c.migrations++
}

// RecordMigrationFailure clears the violation clock without counting a
// migration, so the component is reconsidered after a fresh cooldown rather
// than retried every cycle.
func (c *Controller) RecordMigrationFailure(component string) {
	c.firstViolation[component] = c.now()
}
