// Package obs is the unified observability plane: a deterministic,
// virtual-time-stamped decision journal plus labeled metric emission into a
// shared metricstore.Store. The simulation-side monitor, controller, and
// orchestrator record into it the way the paper's monitoring services log
// into Prometheus (§5) — structured Dapper-style events explaining *why* a
// migration or failover fired, and Monarch-style labeled time series the
// controller's decisions can be replayed against.
//
// Determinism contract: events are stamped with virtual time and carry only
// fixed, ordered fields, so the same seed yields a byte-identical JSONL
// journal whatever the wall clock, worker count, or network driver.
//
// Cost contract: an unattached plane is a nil pointer, every method on which
// is a nil-check and return — components instrument unconditionally and pay
// nothing until someone attaches a journal or store.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bass/internal/metricstore"
)

// EventType classifies journal entries.
type EventType string

// Journal event types, in rough pipeline order: probing observations, the
// controller's verdicts, and the orchestrator's actions.
const (
	// EventProbeFull is a successful max-capacity probe (Value = Mbps).
	EventProbeFull EventType = "probe_full"
	// EventProbeHeadroom is a successful headroom probe (Value = spare Mbps,
	// Want = required headroom Mbps).
	EventProbeHeadroom EventType = "probe_headroom"
	// EventProbeError is a failed probe (Reason = error).
	EventProbeError EventType = "probe_error"
	// EventHeadroomViolation is a headroom probe that found less spare
	// capacity than the link must keep (Value = spare, Want = required).
	EventHeadroomViolation EventType = "headroom_violation"
	// EventMigrationCandidate is a component newly entering the controller's
	// violation window (cooldown starts now).
	EventMigrationCandidate EventType = "migration_candidate"
	// EventMigration is a committed migration: chosen target in To, the
	// trigger in Reason.
	EventMigration EventType = "migration"
	// EventMigrationRejected is an approved migration that found no feasible
	// target or failed to commit (Reason = why).
	EventMigrationRejected EventType = "migration_rejected"
	// EventNodeDown is the controller's node-down verdict.
	EventNodeDown EventType = "node_down"
	// EventNodeRecovered is a previously-dead node answering probes again.
	EventNodeRecovered EventType = "node_recovered"
	// EventCordon marks a node closed to placement after a down verdict.
	EventCordon EventType = "cordon"
	// EventUncordon marks a recovered node reopened for placement.
	EventUncordon EventType = "uncordon"
	// EventEvacuate is one component removed from a dead node.
	EventEvacuate EventType = "evacuate"
	// EventFailover is a stranded component re-placed (Value = attempts).
	EventFailover EventType = "failover"
	// EventFailoverQueued is a component that exhausted placement retries and
	// parked in the recovery queue.
	EventFailoverQueued EventType = "failover_queued"
	// EventDeploy is an application entering the scheduler (the root cause of
	// its components' initial placements).
	EventDeploy EventType = "deploy"
	// EventSchedule is one component's committed placement decision (To =
	// chosen node, Reason = why the packer landed there).
	EventSchedule EventType = "schedule"
	// EventSchedCandidate is one node evaluated while choosing a placement,
	// migration, or failover target: Value = total score, Want = co-located
	// dependency count, Local/Remote = the score's bandwidth terms, Reason =
	// the typed rejection (empty for the winner).
	EventSchedCandidate EventType = "sched_candidate"
	// EventFault is an injected fault hitting the data plane (Reason = fault
	// type). It is the root cause of the flow disruptions that follow.
	EventFault EventType = "fault"
	// EventFlowParked is a stream stranded by a fault: it holds no links and
	// carries nothing until a route reappears (Flow = its tag).
	EventFlowParked EventType = "flow_parked"
	// EventFlowResumed is a parked stream finding a route again.
	EventFlowResumed EventType = "flow_resumed"
	// EventTransferFailed is a transfer aborted because a fault left its
	// endpoints unreachable.
	EventTransferFailed EventType = "transfer_failed"
	// EventReconcileDrift is the reconciler observing that a component's
	// placement diverged from its spec (Reason = drift kind; Cause = the
	// probe sample or fault injection that explains it).
	EventReconcileDrift EventType = "reconcile_drift"
	// EventReconcileAction is one bounded convergence action (Reason = the
	// rung it ran on, Value = cumulative attempts for this drift).
	EventReconcileAction EventType = "reconcile_action"
	// EventReconcileDegraded is the reconciler escalating a drift to the next
	// rung of the degraded-mode ladder after its retry budget ran out
	// (Reason = new rung, Value = rung index).
	EventReconcileDegraded EventType = "reconcile_degraded"
	// EventReconcileShed is a whole application shed — its placements removed
	// and its flows dropped — to free capacity for a higher-priority drift.
	EventReconcileShed EventType = "reconcile_shed"
	// EventReconcileRestore is a previously-shed application re-admitted once
	// the mesh re-converged and the restore cooldown passed.
	EventReconcileRestore EventType = "reconcile_restore"
	// EventReconcileConverged closes a drift episode: observed placement
	// equals desired placement again (Value = episode length in seconds).
	EventReconcileConverged EventType = "reconcile_converged"
	// EventAlertFired is the SLO evaluator opening an alert: an error budget
	// is burning past a tier's thresholds in both its windows. SLO = spec
	// name, Reason = tier and windows (e.g. "page 1m/5m"), Value = observed
	// long-window burn rate, Want = the tier's burn threshold, Budget =
	// budget remaining over the compliance window, Cause = the probe sample
	// or injected fault that explains the breach.
	EventAlertFired EventType = "alert_fired"
	// EventAlertResolved closes a previously fired alert once every tier's
	// burn drops back under threshold (Value = final burn rate, Budget =
	// budget remaining at resolve time, Cause = the alert_fired span).
	EventAlertResolved EventType = "alert_resolved"
)

// Metric names shared by the simulated and live paths — one schema, whichever
// substrate feeds the store.
const (
	MetricLinkCapacity = "link_capacity_mbps"
	MetricLinkHeadroom = "link_headroom_mbps"
	MetricDepGoodput   = "dependency_goodput_frac"
	MetricMigrations   = "migrations_total"
	MetricFailoverMTTR = "failover_mttr_seconds"
	// MetricReconcileDrift gauges drift outstanding at the end of each
	// reconcile pass — zero means observed placement matches every spec.
	MetricReconcileDrift = "reconcile_drift_total"
	// MetricReconcileConverge records, per converged episode, the seconds
	// from first drift detection to observed == desired.
	MetricReconcileConverge = "reconcile_converge_seconds"
	// MetricReconcileActions counts convergence actions attempted.
	MetricReconcileActions = "reconcile_actions_total"
	// MetricDegradedMode gauges the worst active ladder rung (0 = migrate …
	// 3 = park); zero with no drift means fully healthy.
	MetricDegradedMode = "degraded_mode"
	// MetricPathQueryErrors counts dependency edges dropped from controller
	// evaluations because the monitor could not answer a path query (cumulative).
	MetricPathQueryErrors = "path_query_errors_total"
	// MetricSLOGood is the per-spec good/bad indicator the SLO evaluator
	// appends each epoch (1 = SLI met its threshold, 0 = missed), labeled
	// slo=<spec name>, for dashboards and the Prometheus dump; the evaluator
	// keeps its own running counts of the verdicts and never reads it back.
	MetricSLOGood = "slo_good"
	// MetricSLOBudget gauges each spec's error-budget fraction remaining
	// over its compliance window (1 = untouched, ≤ 0 = exhausted), emitted
	// only when the value changes so quiet epochs stay allocation-free.
	MetricSLOBudget = "slo_budget_remaining_frac"
	// MetricAlertsFiring gauges the number of currently open alerts.
	MetricAlertsFiring = "slo_alerts_firing"
	// MetricControlEpochGap records the virtual-time gap between control
	// epochs in seconds — the control-loop latency SLI's raw signal.
	MetricControlEpochGap = "control_epoch_gap_seconds"
)

// Event is one journal entry. Fields are fixed and typed (never a map) so
// JSON encoding is deterministic; unused fields are omitted.
type Event struct {
	// At is the virtual timestamp, nanoseconds since simulation start.
	At   time.Duration `json:"atNs"`
	Type EventType     `json:"type"`
	// Span is this event's deterministic trace ID, derived from the run seed
	// and a monotonic sequence (never the wall clock), so equal seeds yield
	// identical IDs. Zero on events recorded without a journal attached.
	Span uint64 `json:"span,omitempty"`
	// Cause is the Span of the event that caused this one — the probe sample
	// behind a violation, the violation behind a candidate, the candidate
	// behind a migration — forming a chain resolvable by CauseChain.
	Cause uint64 `json:"cause,omitempty"`
	App   string `json:"app,omitempty"`
	// Component and Dep name a DAG component (and its dependency partner).
	Component string `json:"component,omitempty"`
	Dep       string `json:"dep,omitempty"`
	Node      string `json:"node,omitempty"`
	Link      string `json:"link,omitempty"`
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	// Flow names a data-plane flow (its accounting tag) for network events.
	Flow string `json:"flow,omitempty"`
	// Reason is the human-readable why: the trigger for a migration, the
	// error behind a probe failure, the typed rejection of a candidate.
	Reason string `json:"reason,omitempty"`
	// Value and Want carry the event's quantities (probed Mbps vs required
	// headroom, candidate score vs dependency count, ...).
	Value float64 `json:"value,omitempty"`
	Want  float64 `json:"want,omitempty"`
	// Local and Remote break a candidate's bandwidth score into the Mbps
	// satisfied by co-located edges and by remote paths, respectively.
	Local  float64 `json:"bwLocalMbps,omitempty"`
	Remote float64 `json:"bwRemoteMbps,omitempty"`
	// SLO names the spec behind an alert event; Budget carries its error
	// budget remaining (fraction of the compliance window's allowance).
	SLO    string  `json:"slo,omitempty"`
	Budget float64 `json:"budget,omitempty"`
}

// Journal is a bounded ring buffer of events. It is safe for concurrent use;
// a nil *Journal discards appends for free.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in buf
	dropped uint64
}

// DefaultJournalCapacity bounds journal memory when no capacity is given.
const DefaultJournalCapacity = 1 << 14

// NewJournal returns a journal retaining the last capacity events
// (DefaultJournalCapacity when capacity ≤ 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Append records an event, evicting the oldest when full. Nil-safe.
func (j *Journal) Append(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n < len(j.buf) {
		j.buf[(j.start+j.n)%len(j.buf)] = ev
		j.n++
		return
	}
	j.buf[j.start] = ev
	j.start = (j.start + 1) % len(j.buf)
	j.dropped++
}

// Len reports the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Dropped reports how many events the ring evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line, oldest
// first. Same events ⇒ same bytes: encoding uses only the fixed Event fields.
func (j *Journal) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, j.Events())
}

// WriteJSONL encodes events as JSONL.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Summarize renders "type:count" pairs sorted by type — the compact journal
// annotation experiment tables print.
func Summarize(events []Event) string {
	counts := make(map[EventType]int)
	for _, ev := range events {
		counts[ev.Type]++
	}
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, string(t))
	}
	sort.Strings(types)
	var b strings.Builder
	for i, t := range types {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%d", t, counts[EventType(t)])
	}
	return b.String()
}

// Plane bundles a journal and a metric store behind one virtual clock.
// Either half may be nil; a nil *Plane as a whole is the unattached fast
// path.
type Plane struct {
	journal *Journal
	store   *metricstore.Store
	now     func() time.Duration
	epoch   time.Time

	// spanBase namespaces span IDs by run seed (see SetTraceSeed); spanSeq is
	// the monotonic allocation counter. Together they make span IDs a pure
	// function of (seed, emission order): no wall clock, no randomness, so the
	// byte-identical-at-equal-seeds journal guarantee extends to spans.
	spanBase uint64
	spanSeq  uint64 // accessed atomically

	// tap, when set, sees every journaled event after it is stamped — the SLO
	// evaluator's ground-truth tracker hangs here. Emission is serial by the
	// control plane's commit-phase invariant, so the tap needs no locking of
	// its own.
	tap func(Event)
}

// SetTap registers a function observing every journaled event (nil clears
// it). The tap runs inside EmitSpan on the emitting goroutine; keep it cheap
// and allocation-free.
func (p *Plane) SetTap(tap func(Event)) {
	if p == nil {
		return
	}
	p.tap = tap
}

// SetTraceSeed namespaces the plane's span IDs by the run seed: span =
// base(seed) | sequence, where base occupies the high bits. IDs stay below
// 2^52 so they survive JSON number round-trips. Call before emitting.
func (p *Plane) SetTraceSeed(seed int64) {
	if p == nil {
		return
	}
	p.spanBase = (uint64(seed) & 0x7FF) << 40
}

// nextSpan allocates the next deterministic span ID.
func (p *Plane) nextSpan() uint64 {
	return p.spanBase | atomic.AddUint64(&p.spanSeq, 1)
}

// NewPlane wires a plane. now supplies virtual time; journal and store may
// each be nil to record only the other half.
func NewPlane(journal *Journal, store *metricstore.Store, now func() time.Duration) *Plane {
	return &Plane{
		journal: journal,
		store:   store,
		now:     now,
		// Metric timestamps are the virtual clock projected onto the Unix
		// epoch, so store contents are as reproducible as the journal.
		epoch: time.Unix(0, 0).UTC(),
	}
}

// Enabled reports whether emitting can have any effect. Call sites that must
// format strings or build label maps should gate on it.
func (p *Plane) Enabled() bool {
	return p != nil && (p.journal != nil || p.store != nil)
}

// Now reports the plane's virtual time (zero on a nil plane).
func (p *Plane) Now() time.Duration {
	if p == nil {
		return 0
	}
	return p.now()
}

// Emit stamps the event with virtual time and a span ID and journals it.
// Nil-safe.
func (p *Plane) Emit(ev Event) {
	_ = p.EmitSpan(ev)
}

// EmitSpan is Emit returning the event's allocated span ID, for callers that
// thread it as the Cause of later events. A nil or journal-less plane records
// nothing and returns 0 without allocating.
func (p *Plane) EmitSpan(ev Event) uint64 {
	if p == nil || p.journal == nil {
		return 0
	}
	ev.At = p.now()
	if ev.Span == 0 {
		ev.Span = p.nextSpan()
	}
	p.journal.Append(ev)
	if p.tap != nil {
		p.tap(ev)
	}
	return ev.Span
}

// Metric appends a labeled sample at the current virtual time. Labels are
// alternating key/value pairs (a trailing unpaired key is ignored). Nil-safe.
func (p *Plane) Metric(name string, value float64, kv ...string) {
	if p == nil || p.store == nil {
		return
	}
	var labels map[string]string
	if len(kv) >= 2 {
		labels = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			labels[kv[i]] = kv[i+1]
		}
	}
	p.store.Append(name, labels, p.epoch.Add(p.now()), value)
}

// MetricHandle is a pre-resolved metric series bound to the plane's virtual
// clock: the allocation-free form of Metric for per-epoch hot paths. The
// series key is computed once, at resolve time; emitting through the handle
// costs a lock and a ring write. The zero handle — and any handle resolved
// from a plane without a store — discards emissions.
type MetricHandle struct {
	plane *Plane
	h     metricstore.Handle
}

// MetricHandle resolves a handle for the labeled series. Nil-safe: a nil or
// store-less plane yields a discarding handle.
func (p *Plane) MetricHandle(name string, labels map[string]string) MetricHandle {
	if p == nil || p.store == nil {
		return MetricHandle{}
	}
	return MetricHandle{plane: p, h: p.store.Handle(name, labels)}
}

// Emit appends a sample at the plane's current virtual time.
func (h MetricHandle) Emit(value float64) {
	if h.plane == nil {
		return
	}
	h.h.Append(h.plane.epoch.Add(h.plane.now()), value)
}

// Journal exposes the plane's journal (nil when unattached).
func (p *Plane) Journal() *Journal {
	if p == nil {
		return nil
	}
	return p.journal
}

// Store exposes the plane's metric store (nil when unattached).
func (p *Plane) Store() *metricstore.Store {
	if p == nil {
		return nil
	}
	return p.store
}
