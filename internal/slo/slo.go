// Package slo is the online health layer over the observability plane:
// declarative service-level objectives evaluated every control epoch against
// the metric store, with Google-SRE-style multi-window multi-burn-rate
// error-budget alerting.
//
// Each Spec names one service-level indicator — an app's dependency goodput,
// a link's (or the whole mesh's) probe headroom, or the control loop's
// epoch-to-epoch latency — a good/bad threshold for it, and a compliance
// target over a budget window. The evaluator reduces the SLI to a boolean
// good/bad verdict per epoch, records it as the slo_good indicator metric,
// and derives burn rates (observed bad fraction over the budget allowance)
// over each alert tier's short and long windows. A tier fires when both
// windows burn past its threshold — the fast-burn "page" tier reacts within
// a couple of epochs of a real degradation, the slow-burn "ticket" tier
// catches budget-eating slow leaks — and resolves when both drop back under.
//
// Alert events carry a cause chain rooted at ground truth: a tap on the
// plane tracks the most recent headroom violation, probe error, or injected
// fault per link (and globally), so every alert_fired explains *which*
// observation breached the budget, in the same causal vocabulary as
// migrations and failovers.
//
// Determinism contract: evaluation runs serially at the end of each control
// epoch, reads only virtual-time-stamped store contents written by serial
// emitters, and allocates span IDs from the plane's deterministic sequence —
// equal seeds yield byte-identical alert journals whatever the net driver or
// worker count. Quiet epochs (no state transitions) append through
// pre-resolved store handles and allocate nothing.
package slo

import (
	"fmt"
	"time"

	"bass/internal/metricstore"
	"bass/internal/obs"
)

// SLIKind selects what a Spec measures.
type SLIKind string

const (
	// DependencyGoodput watches an app's achieved/required bandwidth
	// fraction (metric dependency_goodput_frac, label app). Good when the
	// epoch's mean ≥ GoodThreshold.
	DependencyGoodput SLIKind = "dependency_goodput"
	// LinkHeadroom watches probed spare capacity (metric link_headroom_mbps,
	// label link; empty Link = every link). Good when the epoch's minimum ≥
	// GoodThreshold Mbps.
	LinkHeadroom SLIKind = "link_headroom"
	// ControlLatency watches the control loop's own cadence (metric
	// control_epoch_gap_seconds). Good when the epoch's maximum gap ≤
	// GoodThreshold seconds.
	ControlLatency SLIKind = "control_latency"
)

// Spec declares one SLO.
type Spec struct {
	// Name identifies the SLO in alerts and metrics (label slo). Required,
	// unique per evaluator.
	Name string  `json:"name"`
	Kind SLIKind `json:"kind"`
	// App scopes DependencyGoodput; Link scopes LinkHeadroom (empty = all
	// links).
	App  string `json:"app,omitempty"`
	Link string `json:"link,omitempty"`
	// Target is the compliance target over Window, e.g. 0.99 = at most 1%
	// of epochs bad (default 0.99).
	Target float64 `json:"target"`
	// GoodThreshold is the SLI's good/bad boundary; its meaning and default
	// depend on Kind (goodput fraction 0.9, headroom 1 Mbps, control gap
	// 2×interval seconds).
	GoodThreshold float64 `json:"goodThreshold"`
	// Window is the error-budget compliance window (default 1h).
	Window time.Duration `json:"windowNs"`
}

// Tier is one burn-rate alert tier: fire when the error budget burns faster
// than Burn× the sustainable rate over both the short and the long window.
type Tier struct {
	// Name labels the tier in alert events ("page", "ticket").
	Name string `json:"name"`
	// Short and Long are the two lookback windows; the short one makes the
	// alert resolve quickly once the burn stops, the long one keeps a brief
	// blip from firing it.
	Short time.Duration `json:"shortNs"`
	Long  time.Duration `json:"longNs"`
	// Burn is the threshold burn-rate multiple (1 = budget exactly consumed
	// by Window's end).
	Burn float64 `json:"burn"`
}

// DefaultTiers returns the two-tier page/ticket ladder from the SRE
// workbook, scaled to fit simulation horizons: a fast burn pages within a
// couple of epochs, a slow burn files a ticket.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "page", Short: time.Minute, Long: 5 * time.Minute, Burn: 14.4},
		{Name: "ticket", Short: 5 * time.Minute, Long: 30 * time.Minute, Burn: 6},
	}
}

// Config sizes an evaluator.
type Config struct {
	// Interval is the evaluation epoch — one SLI verdict per spec per
	// interval (default 30s; core wires its MonitorInterval).
	Interval time.Duration
	// Tiers is the burn-rate ladder (default DefaultTiers).
	Tiers []Tier
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if len(c.Tiers) == 0 {
		c.Tiers = DefaultTiers()
	}
	return c
}

// unixEpoch mirrors the plane's projection of virtual time onto store
// timestamps (obs.NewPlane).
var unixEpoch = time.Unix(0, 0).UTC()

// tierState is one spec×tier alert state machine.
type tierState struct {
	tier      Tier
	reason    string // precomputed "page 1m/5m" — no formatting at fire time
	firing    bool
	firedSpan uint64
	burnShort float64
	burnLong  float64
}

// specState is a registered spec plus everything pre-resolved for
// allocation-free per-epoch evaluation: append handles for what the spec
// writes and selections for what it reads, so a tick matches no labels.
type specState struct {
	spec     Spec
	sli      *metricstore.Selection // the SLI source metric's series
	good     *metricstore.Selection // this spec's slo_good, for budget and burn reads
	goodH    metricstore.Handle
	budgetH  metricstore.Handle
	tiers    []tierState
	lastGood bool
	lastVal  float64
	hasData  bool
	budget   float64
}

// Evaluator runs registered specs against the plane's store each epoch and
// drives the alert state machines. Not safe for concurrent Ticks; the
// control plane calls it serially.
type Evaluator struct {
	plane  *obs.Plane
	store  *metricstore.Store
	cfg    Config
	specs  []*specState
	byName map[string]*specState

	firing  int
	firingH metricstore.Handle

	// Ground-truth tracker, fed by the plane tap: the latest explanatory
	// span per link and globally. Alerts root their cause chains here.
	lastByLink map[string]uint64
	lastGround uint64 // newest violation/probe-error/fault span
	lastProbe  uint64 // newest probe sample span (always set after one sweep)
}

// New builds an evaluator over the plane (reading plane.Store(), which may
// be nil — the evaluator is then a no-op) and installs the ground-truth tap.
func New(plane *obs.Plane, cfg Config) *Evaluator {
	e := &Evaluator{
		plane:      plane,
		store:      plane.Store(),
		cfg:        cfg.withDefaults(),
		byName:     make(map[string]*specState),
		lastByLink: make(map[string]uint64),
	}
	if e.store != nil {
		e.firingH = e.store.Handle(obs.MetricAlertsFiring, nil)
	}
	plane.SetTap(e.observe)
	return e
}

// observe is the plane tap: remember the newest ground-truth span so alerts
// can point at the observation that breached the budget. Runs on the
// emitting goroutine; emission is serial by the commit-phase invariant.
func (e *Evaluator) observe(ev obs.Event) {
	switch ev.Type {
	case obs.EventHeadroomViolation, obs.EventProbeError, obs.EventFault:
		e.lastGround = ev.Span
		if ev.Link != "" {
			e.lastByLink[ev.Link] = ev.Span
		}
	case obs.EventProbeFull, obs.EventProbeHeadroom:
		e.lastProbe = ev.Span
		if ev.Link != "" {
			// A probe sample is the fallback ground truth for its link when
			// no violation/fault has been seen there yet.
			if _, seen := e.lastByLink[ev.Link]; !seen {
				e.lastByLink[ev.Link] = ev.Span
			}
		}
	}
}

// Register adds a spec. Returns an error on duplicate or invalid specs.
func (e *Evaluator) Register(spec Spec) error {
	if spec.Name == "" {
		return fmt.Errorf("slo: spec needs a name")
	}
	if _, dup := e.byName[spec.Name]; dup {
		return fmt.Errorf("slo: duplicate spec %q", spec.Name)
	}
	switch spec.Kind {
	case DependencyGoodput:
		if spec.App == "" {
			return fmt.Errorf("slo: spec %q: dependency_goodput needs an app", spec.Name)
		}
	case LinkHeadroom, ControlLatency:
	default:
		return fmt.Errorf("slo: spec %q: unknown kind %q", spec.Name, spec.Kind)
	}
	if spec.Target <= 0 {
		spec.Target = 0.99
	}
	if spec.Target >= 1 {
		return fmt.Errorf("slo: spec %q: target %v must be in (0,1)", spec.Name, spec.Target)
	}
	if spec.Window <= 0 {
		spec.Window = time.Hour
	}
	if spec.GoodThreshold == 0 {
		switch spec.Kind {
		case DependencyGoodput:
			spec.GoodThreshold = 0.9
		case LinkHeadroom:
			spec.GoodThreshold = 1.0
		case ControlLatency:
			spec.GoodThreshold = (2 * e.cfg.Interval).Seconds()
		}
	}

	st := &specState{spec: spec, lastGood: true, budget: 1}
	if e.store != nil {
		switch spec.Kind {
		case DependencyGoodput:
			st.sli = e.store.Select(obs.MetricDepGoodput, map[string]string{"app": spec.App})
		case LinkHeadroom:
			var sel map[string]string // nil = every link
			if spec.Link != "" {
				sel = map[string]string{"link": spec.Link}
			}
			st.sli = e.store.Select(obs.MetricLinkHeadroom, sel)
		case ControlLatency:
			st.sli = e.store.Select(obs.MetricControlEpochGap, nil)
		}
		goodSel := map[string]string{"slo": spec.Name}
		st.goodH = e.store.Handle(obs.MetricSLOGood, goodSel)
		st.budgetH = e.store.Handle(obs.MetricSLOBudget, goodSel)
		st.good = e.store.Select(obs.MetricSLOGood, goodSel)
	}
	st.tiers = make([]tierState, len(e.cfg.Tiers))
	for i, tier := range e.cfg.Tiers {
		st.tiers[i] = tierState{
			tier:   tier,
			reason: fmt.Sprintf("%s %s/%s", tier.Name, tier.Short, tier.Long),
		}
	}
	e.specs = append(e.specs, st)
	e.byName[spec.Name] = st
	return nil
}

// measure reduces one spec's SLI over the just-finished epoch (now-interval,
// now] to a value; ok=false when the source metric has no samples there.
func (e *Evaluator) measure(st *specState, now time.Time) (float64, bool) {
	window := e.cfg.Interval - time.Nanosecond // half-open: exclude the prior epoch's own sample
	switch st.spec.Kind {
	case DependencyGoodput:
		return st.sli.AvgOver(now, window)
	case LinkHeadroom:
		return st.sli.MinOver(now, window)
	default: // ControlLatency
		return st.sli.MaxOver(now, window)
	}
}

func (st *specState) isGood(val float64) bool {
	if st.spec.Kind == ControlLatency {
		return val <= st.spec.GoodThreshold
	}
	return val >= st.spec.GoodThreshold
}

// burn converts the bad fraction of slo_good over the trailing window into a
// burn-rate multiple of the budget's sustainable rate.
func (st *specState) burn(now time.Time, window time.Duration) float64 {
	agg, ok := st.good.AggOver(now, window)
	if !ok {
		return 0
	}
	badFrac := 1 - agg.Avg()
	if badFrac < 0 {
		badFrac = 0
	}
	return badFrac / (1 - st.spec.Target)
}

// cause picks the ground-truth span an alert should chain to: the newest
// violation/fault on the spec's link, else the newest anywhere, else the
// newest probe sample (which always exists once probing has swept).
func (e *Evaluator) cause(st *specState) uint64 {
	if st.spec.Link != "" {
		if span, ok := e.lastByLink[st.spec.Link]; ok {
			return span
		}
	}
	if e.lastGround != 0 {
		return e.lastGround
	}
	return e.lastProbe
}

// Tick evaluates every spec at the plane's current virtual time: one SLI
// verdict, one slo_good sample, refreshed burn rates, and any alert
// transitions. Quiet ticks (no transitions) allocate nothing.
func (e *Evaluator) Tick() {
	if e.store == nil || len(e.specs) == 0 {
		return
	}
	now := unixEpoch.Add(e.plane.Now())
	for _, st := range e.specs {
		val, ok := e.measure(st, now)
		good := !ok || st.isGood(val)
		st.lastVal, st.hasData, st.lastGood = val, ok, good
		indicator := 0.0
		if good {
			indicator = 1
		}
		st.goodH.Append(now, indicator)
		if budget, ok := st.good.BudgetRemaining(now, st.spec.Window, st.spec.Target); ok {
			st.budget = budget
		}
		st.budgetH.Append(now, st.budget)

		for i := range st.tiers {
			ts := &st.tiers[i]
			ts.burnShort = st.burn(now, ts.tier.Short)
			ts.burnLong = st.burn(now, ts.tier.Long)
			over := ts.burnShort >= ts.tier.Burn && ts.burnLong >= ts.tier.Burn
			under := ts.burnShort < ts.tier.Burn && ts.burnLong < ts.tier.Burn
			switch {
			case over && !ts.firing:
				ts.firing = true
				e.firing++
				ts.firedSpan = e.plane.EmitSpan(obs.Event{
					Type:   obs.EventAlertFired,
					SLO:    st.spec.Name,
					App:    st.spec.App,
					Link:   st.spec.Link,
					Reason: ts.reason,
					Value:  ts.burnLong,
					Want:   ts.tier.Burn,
					Budget: st.budget,
					Cause:  e.cause(st),
				})
				e.firingH.Append(now, float64(e.firing))
			case under && ts.firing:
				ts.firing = false
				e.firing--
				e.plane.EmitSpan(obs.Event{
					Type:   obs.EventAlertResolved,
					SLO:    st.spec.Name,
					App:    st.spec.App,
					Link:   st.spec.Link,
					Reason: ts.reason,
					Value:  ts.burnLong,
					Want:   ts.tier.Burn,
					Budget: st.budget,
					Cause:  ts.firedSpan,
				})
				ts.firedSpan = 0
				e.firingH.Append(now, float64(e.firing))
			}
		}
	}
}

// Firing reports the number of currently open alerts across all specs and
// tiers.
func (e *Evaluator) Firing() int {
	if e == nil {
		return 0
	}
	return e.firing
}

// TierStatus is one tier's live state for dashboards.
type TierStatus struct {
	Tier      string  `json:"tier"`
	BurnShort float64 `json:"burnShort"`
	BurnLong  float64 `json:"burnLong"`
	Threshold float64 `json:"threshold"`
	Firing    bool    `json:"firing"`
}

// SpecStatus is one spec's live state for dashboards (/stream, bass-top).
type SpecStatus struct {
	Name    string       `json:"name"`
	Kind    SLIKind      `json:"kind"`
	App     string       `json:"app,omitempty"`
	Link    string       `json:"link,omitempty"`
	Target  float64      `json:"target"`
	Good    bool         `json:"good"`
	HasData bool         `json:"hasData"`
	Value   float64      `json:"value"`
	Budget  float64      `json:"budget"`
	Tiers   []TierStatus `json:"tiers"`
}

// Snapshot reports every spec's state in registration order. It allocates;
// dashboards call it, the control loop does not.
func (e *Evaluator) Snapshot() []SpecStatus {
	if e == nil {
		return nil
	}
	out := make([]SpecStatus, 0, len(e.specs))
	for _, st := range e.specs {
		status := SpecStatus{
			Name:    st.spec.Name,
			Kind:    st.spec.Kind,
			App:     st.spec.App,
			Link:    st.spec.Link,
			Target:  st.spec.Target,
			Good:    st.lastGood,
			HasData: st.hasData,
			Value:   st.lastVal,
			Budget:  st.budget,
			Tiers:   make([]TierStatus, len(st.tiers)),
		}
		for i, ts := range st.tiers {
			status.Tiers[i] = TierStatus{
				Tier:      ts.tier.Name,
				BurnShort: ts.burnShort,
				BurnLong:  ts.burnLong,
				Threshold: ts.tier.Burn,
				Firing:    ts.firing,
			}
		}
		out = append(out, status)
	}
	return out
}
