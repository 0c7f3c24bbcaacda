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
// Burn and budget windows are running counts over the evaluator's own
// verdicts, not reads of slo_good back from the store: one shared clock of
// tick times, one trailing edge per distinct window duration, and per spec a
// bitset of bad verdicts and one bad count per window it uses. A tick costs
// O(specs × windows) however long the windows are. The counts give exactly
// the store's fold of the spec's slo_good samples over the inclusive window
// [now-window, now] with two differences, neither reached by a product path:
// samples appended to slo_good before Register are not counted, and where the
// store's raw ring is shorter than a window (bassd -interval below ~0.36 s
// against the default 10,000-sample ring) the store would answer from rollup
// buckets that over-cover by up to a bucket at each edge, while the counts
// stay exact. Virtual time must not run backwards between ticks.
//
// Determinism contract: evaluation runs serially at the end of each control
// epoch, reads only virtual-time-stamped SLI samples written by serial
// emitters and its own verdicts, and allocates span IDs from the plane's
// deterministic sequence — equal seeds yield byte-identical alert journals
// whatever the net driver or worker count. Quiet epochs (no state
// transitions) append through pre-resolved store handles and allocate
// nothing.
package slo

import (
	"fmt"
	"math/bits"
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
	tier        Tier
	reason      string // precomputed "page 1m/5m" — no formatting at fire time
	short, long int    // the spec's windows (indices into specState.wins)
	firing      bool
	firedSpan   uint64
	burnShort   float64
	burnLong    float64
}

// trail is the trailing edge of one distinct window duration on the
// evaluator's tick clock: tail is the absolute index of the oldest tick
// inside [now-d, now].
type trail struct {
	d    time.Duration
	tail int
}

// window is one spec's running count over one trail: bad verdicts among the
// spec's ticks from..now. from starts at the spec's first tick, so a spec
// registered mid-run counts only its own verdicts, and follows the trail's
// tail from there.
type window struct {
	trail int // index into Evaluator.trails
	from  int // absolute index of the oldest counted tick
	bad   int
}

// specState is a registered spec plus everything pre-resolved for
// allocation-free per-epoch evaluation: append handles for what the spec
// writes, a selection for the SLI it reads, so a tick matches no labels, and
// its verdict history as a bitset over the evaluator's clock with a running
// count per window.
type specState struct {
	spec     Spec
	sli      *metricstore.Selection // the SLI source metric's series
	goodH    metricstore.Handle
	budgetH  metricstore.Handle
	bad      []uint64 // bit i: the verdict of absolute tick Evaluator.base+i was bad
	wins     []window // the budget window first, then each distinct tier window
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

	// The shared tick clock: clock[i] is the UnixNano time of absolute tick
	// base+i. base is a multiple of 64, so every spec's bad bitset stays
	// word-aligned to it; ticks every trail has passed are trimmed a word at
	// a time.
	clock  []int64
	base   int
	trails []trail

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
	}
	st.wins = make([]window, 0, 1+2*len(e.cfg.Tiers))
	st.windowFor(e, spec.Window) // wins[0]
	st.tiers = make([]tierState, len(e.cfg.Tiers))
	for i, tier := range e.cfg.Tiers {
		st.tiers[i] = tierState{
			tier:   tier,
			reason: fmt.Sprintf("%s %s/%s", tier.Name, tier.Short, tier.Long),
			short:  st.windowFor(e, tier.Short),
			long:   st.windowFor(e, tier.Long),
		}
	}
	e.specs = append(e.specs, st)
	e.byName[spec.Name] = st
	return nil
}

// ticks is the number of ticks so far, the absolute index of the next one.
func (e *Evaluator) ticks() int { return e.base + len(e.clock) }

// windowFor returns the index of the spec's window of duration d, adding it
// — and the evaluator's trail for d — on first use. A new window counts from
// the spec's first tick, the next one.
func (st *specState) windowFor(e *Evaluator, d time.Duration) int {
	tr := 0
	for tr < len(e.trails) && e.trails[tr].d != d {
		tr++
	}
	if tr == len(e.trails) {
		e.trails = append(e.trails, trail{d: d, tail: e.ticks()})
	}
	for i, w := range st.wins {
		if w.trail == tr {
			return i
		}
	}
	st.wins = append(st.wins, window{trail: tr, from: e.ticks()})
	return len(st.wins) - 1
}

// advance puts the tick at t on the clock and moves every trail's tail past
// the ticks older than its window, [t-d, t] inclusive as the store reads it.
func (e *Evaluator) advance(t int64) {
	e.clock = append(e.clock, t)
	n := e.ticks()
	for i := range e.trails {
		tr := &e.trails[i]
		from := t - int64(tr.d)
		for tr.tail < n && e.clock[tr.tail-e.base] < from {
			tr.tail++
		}
	}
}

// trim drops the whole words of ticks every trail's tail has passed, from
// the clock and from every spec's bitset. Every spec has ticked, so every
// window's from is at or past its trail's tail.
func (e *Evaluator) trim() {
	oldest := e.ticks()
	for _, tr := range e.trails {
		oldest = min(oldest, tr.tail)
	}
	words := (oldest - e.base) / 64
	if words == 0 {
		return
	}
	e.clock = e.clock[:copy(e.clock, e.clock[64*words:])]
	e.base += 64 * words
	for _, st := range e.specs {
		st.bad = st.bad[:copy(st.bad, st.bad[words:])]
	}
}

// record adds this tick's verdict to the spec's bitset and window counts,
// then retires from each count the ticks its trail's tail has passed.
func (st *specState) record(e *Evaluator, bad bool) {
	i := e.ticks() - 1 - e.base
	for len(st.bad) <= i/64 {
		st.bad = append(st.bad, 0)
	}
	if bad {
		st.bad[i/64] |= 1 << (i % 64)
	}
	for k := range st.wins {
		w := &st.wins[k]
		if bad {
			w.bad++
		}
		if tail := e.trails[w.trail].tail; w.from < tail {
			w.bad -= countBits(st.bad, w.from-e.base, tail-e.base)
			w.from = tail
		}
	}
}

// countBits counts the set bits at indices [lo, hi) of the bitset.
func countBits(set []uint64, lo, hi int) int {
	n := 0
	for lo < hi {
		word, span := set[lo/64]>>(lo%64), 64-lo%64
		if hi-lo < span {
			span = hi - lo
			word &= 1<<span - 1
		}
		n += bits.OnesCount64(word)
		lo += span
	}
	return n
}

// goodFrac is the fraction of good verdicts in the spec's window k; ok=false
// when the window holds none of the spec's ticks. It is bit-equal to the
// store's Agg.Avg over the same 0/1 slo_good samples, whose float64 sum is
// the exact good count.
func (e *Evaluator) goodFrac(st *specState, k int) (float64, bool) {
	w := &st.wins[k]
	total := e.ticks() - w.from
	if total <= 0 {
		return 0, false
	}
	return float64(total-w.bad) / float64(total), true
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

// burn converts the bad fraction of the spec's verdicts over its window k
// into a burn-rate multiple of the budget's sustainable rate.
func (e *Evaluator) burn(st *specState, k int) float64 {
	good, ok := e.goodFrac(st, k)
	if !ok {
		return 0
	}
	badFrac := 1 - good
	if badFrac < 0 {
		badFrac = 0
	}
	return badFrac / (1 - st.spec.Target)
}

// budgetRemaining converts a good fraction over the compliance window into
// the fraction of the error budget left for the spec's target: with target
// 0.99 the budget is 1% bad epochs, so 1 means untouched, 0 exhausted, and
// negative overspent.
func (st *specState) budgetRemaining(good float64) float64 {
	badFrac := 1 - good
	if badFrac < 0 {
		badFrac = 0
	} else if badFrac > 1 {
		badFrac = 1
	}
	return 1 - badFrac/(1-st.spec.Target)
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
	e.advance(now.UnixNano())
	for _, st := range e.specs {
		val, ok := e.measure(st, now)
		good := !ok || st.isGood(val)
		st.lastVal, st.hasData, st.lastGood = val, ok, good
		indicator := 0.0
		if good {
			indicator = 1
		}
		st.goodH.Append(now, indicator)
		// A spec whose slo_good series the store refused reads as having no
		// data: burns 0 and a full budget, which is what counting every one
		// of its verdicts good yields.
		st.record(e, !good && st.goodH != metricstore.Handle{})
		if frac, ok := e.goodFrac(st, 0); ok {
			st.budget = st.budgetRemaining(frac)
		}
		st.budgetH.Append(now, st.budget)

		for i := range st.tiers {
			ts := &st.tiers[i]
			ts.burnShort = e.burn(st, ts.short)
			ts.burnLong = e.burn(st, ts.long)
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
	e.trim()
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
