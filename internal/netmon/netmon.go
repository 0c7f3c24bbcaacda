// Package netmon implements the BASS network monitor (§4.2): it maintains
// cached link capacities via max-capacity probing, checks spare capacity via
// lightweight headroom probing, estimates node-pair bandwidth as the
// bottleneck of the routed path, and accounts the probing overhead the paper
// reports (~0.3% of link traffic).
//
// The monitor is substrate-agnostic: it probes through the Prober interface,
// implemented by the simulated network (simnet) and, over real sockets, by
// the live daemon (bassd), which probes its peers through netem. Both run
// this package's verdicts, failure streaks and journal schema.
package netmon

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bass/internal/mesh"
	"bass/internal/obs"
)

// errUnknownLink is returned for probes of links not in the topology.
var errUnknownLink = errors.New("netmon: unknown link")

// ProbeError reports one link's probe failure during a sweep. It wraps the
// prober's underlying error, so errors.Is sees through it (e.g. to
// simnet.ErrLinkUnreachable).
type ProbeError struct {
	Link mesh.LinkID
	// Op is "full" or "headroom".
	Op  string
	Err error
	// Span is the trace ID of the probe_error journal event (zero when no
	// observability is attached) — the root cause downstream node-down
	// verdicts link back to.
	Span uint64
}

func (e ProbeError) Error() string {
	return fmt.Sprintf("netmon: %s probe %s: %v", e.Op, e.Link, e.Err)
}

// Unwrap exposes the prober's error.
func (e ProbeError) Unwrap() error { return e.Err }

// Prober is the measurable network underneath the monitor.
type Prober interface {
	// ProbeCapacity floods the link to measure its full capacity in Mbps
	// (max-capacity probing). It is expensive: it saturates the link for
	// about a second.
	ProbeCapacity(id mesh.LinkID) (float64, error)
	// ProbeSpareAll measures every link's currently unused capacity in Mbps
	// in one sweep (headroom probing) and calls visit once for each link it
	// probes, with the link's spare or the error that kept it from being
	// measured. A link it does not probe this sweep goes unvisited, and its
	// view is left as it was. Implementations MUST visit links in the topology's
	// sorted link order: the monitor's probe bookkeeping and journal
	// emissions happen inside visit, and their order is part of the
	// byte-identical output contract.
	ProbeSpareAll(visit func(id mesh.LinkID, spareMbps float64, err error))
}

// The monitor's parameters are the paper's settings (§4.2).
const (
	// headroomFrac is the spare capacity to maintain on every link, as a
	// fraction of its cached capacity (paper: 0.2).
	headroomFrac = 0.2
	// probeDuration is how long each probe lasts (paper: 1 s).
	probeDuration = time.Second
	// probeRateFrac is the probing rate as a fraction of link capacity
	// (paper: 0.1).
	probeRateFrac = 0.1
	// changeTolerance is the relative spare-capacity change that counts as
	// "headroom changed" and triggers a full probe.
	changeTolerance = 0.25
)

// LinkView is the monitor's cached knowledge of one link.
type LinkView struct {
	ID mesh.LinkID
	// CapacityMbps is the capacity measured by the last full probe.
	CapacityMbps float64
	// SpareMbps is the spare capacity from the last headroom probe.
	SpareMbps float64
	// HeadroomMbps is the spare capacity the system wants on this link
	// (headroomFrac × capacity).
	HeadroomMbps float64
	// HeadroomOK reports whether the last probe found at least the wanted
	// headroom.
	HeadroomOK bool
	// LastFullProbe and LastHeadroomProbe are virtual-time stamps.
	LastFullProbe     time.Duration
	LastHeadroomProbe time.Duration
	// ConsecutiveFailures counts back-to-back failed probes of this link; any
	// successful probe resets it. The failure detector reads it through
	// NodeFailureFloor: one lost probe is noise, K in a row on every link of a
	// node is a crash.
	ConsecutiveFailures int

	// linkStr caches ID.String() and headroomH the link's pre-resolved
	// headroom series, so the per-sweep probe path neither formats strings
	// nor rebuilds store keys — part of the quiet-epoch zero-allocation
	// contract once an observer is attached.
	linkStr   string
	headroomH obs.MetricHandle
}

// HeadroomEvent reports a headroom probe whose result changed materially
// since the previous probe, or violated the headroom requirement.
type HeadroomEvent struct {
	Link      mesh.LinkID
	SpareMbps float64
	WantMbps  float64
	// Violated is true when spare < want.
	Violated bool
	// Changed is true when spare moved more than changeTolerance relative to
	// the previous observation.
	Changed bool
	// Span is the trace ID downstream verdicts cite as their cause: the
	// headroom_violation event when Violated, else the probe_headroom sample
	// itself. Zero when no observability is attached.
	Span uint64
}

// ProbeStats accounts monitoring overhead.
type ProbeStats struct {
	FullProbes     int
	HeadroomProbes int
	// OverheadMbits is the traffic injected by probes.
	OverheadMbits float64
}

// OverheadFrac estimates probing overhead as a fraction of total capacity ×
// elapsed time over the given horizon and mean capacity.
func (s ProbeStats) OverheadFrac(horizon time.Duration, meanCapacityMbps float64, links int) float64 {
	total := meanCapacityMbps * horizon.Seconds() * float64(links)
	if total <= 0 {
		return 0
	}
	return s.OverheadMbits / total
}

// Monitor caches link state. It is driven by its owner (the orchestrator
// schedules FullProbeAll at startup and HeadroomProbeAll every monitoring
// interval); it does not spawn goroutines.
type Monitor struct {
	topo   *mesh.Topology
	prober Prober
	now    func() time.Duration

	views map[mesh.LinkID]*LinkView
	stats ProbeStats

	// linkOrder is the probe-sweep iteration order (sorted link IDs), and
	// nodeOrder/nodeLinks the per-node views, all frozen at construction so
	// the per-cycle sweeps allocate nothing. The topology's shape is fixed
	// after setup — only availability and capacities change — which is the
	// same assumption views itself already makes.
	linkOrder []*LinkView
	nodeOrder []string
	nodeLinks map[string][]*LinkView

	// oracle memoises routed path metrics.
	oracle *pathOracle

	// sweepEvents/sweepFails are HeadroomProbeAll's reused result buffers and
	// sweepVisit its visitor, built once in New — per-sweep closures and
	// result slices would otherwise be the only allocations of a quiet epoch.
	// The returned slices are valid until the next sweep.
	sweepEvents []HeadroomEvent
	sweepFails  []ProbeError
	sweepVisit  func(id mesh.LinkID, spareMbps float64, err error)

	// plane records probe observations when observability is attached; the
	// nil default costs nothing (see package obs).
	plane *obs.Plane
}

// New builds a monitor over the topology. now supplies virtual (or real)
// time for staleness bookkeeping.
func New(topo *mesh.Topology, prober Prober, now func() time.Duration) *Monitor {
	m := &Monitor{
		topo:   topo,
		prober: prober,
		now:    now,
		views:  make(map[mesh.LinkID]*LinkView),
	}
	for _, l := range topo.Links() {
		v := &LinkView{ID: l.ID, HeadroomOK: true, linkStr: l.ID.String()}
		m.views[l.ID] = v
		m.linkOrder = append(m.linkOrder, v)
	}
	m.nodeOrder = topo.Nodes()
	m.nodeLinks = make(map[string][]*LinkView, len(m.nodeOrder))
	for _, node := range m.nodeOrder {
		for _, nb := range topo.Neighbors(node) {
			if v, ok := m.views[mesh.MakeLinkID(node, nb)]; ok {
				m.nodeLinks[node] = append(m.nodeLinks[node], v)
			}
		}
	}
	m.oracle = newPathOracle(m.nodeOrder)
	m.sweepVisit = func(id mesh.LinkID, spare float64, perr error) {
		v, ok := m.views[id]
		if !ok {
			return // link added behind the monitor's back: not tracked
		}
		m.collectSweep(m.applySpare(v, spare, perr))
	}
	// Both invalidation sources the cache honours beyond probe refreshes:
	// capacity-trace swaps (the view may be refreshed by the very next probe)
	// and availability flips are folded in lazily through syncEpoch; the
	// listener catches swaps that do not move the epoch.
	topo.OnCapacityChange(func(mesh.LinkID) { m.oracle.bump() })
	return m
}

// SetObserver attaches an observability plane. Probe results, probe errors,
// and headroom violations are journaled; measured capacities and spares feed
// the link_capacity_mbps / link_headroom_mbps series. Per-link headroom
// handles are resolved here so the sweep itself never builds series keys.
func (m *Monitor) SetObserver(p *obs.Plane) {
	m.plane = p
	for _, v := range m.linkOrder {
		v.headroomH = p.MetricHandle(obs.MetricLinkHeadroom, map[string]string{"link": v.linkStr})
	}
}

// FullProbeAll measures every link's capacity (system startup, §4.2).
func (m *Monitor) FullProbeAll() error {
	for _, l := range m.topo.Links() {
		if err := m.FullProbe(l.ID); err != nil {
			return err
		}
	}
	return nil
}

// FullProbe floods one link to refresh its cached capacity.
func (m *Monitor) FullProbe(id mesh.LinkID) error {
	v, ok := m.views[id]
	if !ok {
		return fmt.Errorf("%w: %s", errUnknownLink, id)
	}
	cap, err := m.prober.ProbeCapacity(id)
	if err != nil {
		v.ConsecutiveFailures++
		var span uint64
		if m.plane.Enabled() {
			span = m.plane.EmitSpan(obs.Event{Type: obs.EventProbeError, Link: id.String(), Reason: "full: " + err.Error()})
		}
		return ProbeError{Link: id, Op: "full", Err: err, Span: span}
	}
	v.ConsecutiveFailures = 0
	v.CapacityMbps = cap
	v.HeadroomMbps = headroomFrac * cap
	v.LastFullProbe = m.now()
	m.oracle.bump() // cached bottlenecks may include this link
	m.stats.FullProbes++
	// A full probe floods the link for probeDuration.
	m.stats.OverheadMbits += cap * probeDuration.Seconds()
	if m.plane.Enabled() {
		link := id.String()
		m.plane.Emit(obs.Event{Type: obs.EventProbeFull, Link: link, Value: cap})
		m.plane.Metric(obs.MetricLinkCapacity, cap, "link", link)
	}
	return nil
}

// HeadroomProbeAll probes every link's spare capacity in one prober sweep. It
// returns events for links whose headroom is violated or materially changed,
// plus a probe error per link that could not be measured this sweep. A failed
// probe does not abort the sweep — in a mesh where links flap, stopping at the
// first dead link would blind the monitor to every link after it. A quiet
// sweep (no changes, no failures) allocates nothing: results land in reused
// monitor buffers, so the returned slices are only valid until the next sweep.
func (m *Monitor) HeadroomProbeAll() ([]HeadroomEvent, []ProbeError) {
	m.sweepEvents = m.sweepEvents[:0]
	m.sweepFails = m.sweepFails[:0]
	m.prober.ProbeSpareAll(m.sweepVisit)
	return m.sweepEvents, m.sweepFails
}

// collectSweep folds one probed link into the sweep's result buffers.
func (m *Monitor) collectSweep(ev HeadroomEvent, err error) {
	if err != nil {
		var pe ProbeError
		if !errors.As(err, &pe) {
			pe = ProbeError{Op: "headroom", Err: err}
		}
		m.sweepFails = append(m.sweepFails, pe)
		return
	}
	if ev.Violated || ev.Changed {
		m.sweepEvents = append(m.sweepEvents, ev)
	}
}

// applySpare folds one spare measurement (or its failure) into the link view:
// failure streaks, staleness stamps, overhead accounting, change/violation
// detection, and the probe's journal events.
func (m *Monitor) applySpare(v *LinkView, spare float64, err error) (HeadroomEvent, error) {
	if err != nil {
		v.ConsecutiveFailures++
		var span uint64
		if m.plane.Enabled() {
			span = m.plane.EmitSpan(obs.Event{Type: obs.EventProbeError, Link: v.ID.String(), Reason: "headroom: " + err.Error()})
		}
		return HeadroomEvent{}, ProbeError{Link: v.ID, Op: "headroom", Err: err, Span: span}
	}
	id := v.ID
	v.ConsecutiveFailures = 0
	prev := v.SpareMbps
	v.SpareMbps = spare
	v.LastHeadroomProbe = m.now()
	m.oracle.bump() // cached spare bottlenecks may include this link
	m.stats.HeadroomProbes++
	m.stats.OverheadMbits += v.CapacityMbps * probeRateFrac * probeDuration.Seconds()

	want := v.HeadroomMbps
	ev := HeadroomEvent{
		Link:      id,
		SpareMbps: spare,
		WantMbps:  want,
		Violated:  spare < want,
	}
	if prev > 0 {
		rel := (spare - prev) / prev
		if rel < 0 {
			rel = -rel
		}
		ev.Changed = rel > changeTolerance
	} else if spare > 0 {
		ev.Changed = true
	}
	v.HeadroomOK = !ev.Violated
	if m.plane.Enabled() {
		probeSpan := m.plane.EmitSpan(obs.Event{Type: obs.EventProbeHeadroom, Link: v.linkStr, Value: spare, Want: want})
		v.headroomH.Emit(spare)
		ev.Span = probeSpan
		if ev.Violated {
			// The violation verdict cites the probe sample as its cause;
			// downstream migration candidates cite the violation.
			ev.Span = m.plane.EmitSpan(obs.Event{
				Type: obs.EventHeadroomViolation, Cause: probeSpan,
				Link: v.linkStr, Value: spare, Want: want,
			})
		}
	}
	return ev, nil
}

// View returns the cached view of a link.
func (m *Monitor) View(id mesh.LinkID) (LinkView, error) {
	v, ok := m.views[id]
	if !ok {
		return LinkView{}, fmt.Errorf("%w: %s", errUnknownLink, id)
	}
	return *v, nil
}

// Views returns all cached link views sorted by link ID.
func (m *Monitor) Views() []LinkView {
	out := make([]LinkView, 0, len(m.views))
	for _, v := range m.views {
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.A != out[j].ID.A {
			return out[i].ID.A < out[j].ID.A
		}
		return out[i].ID.B < out[j].ID.B
	})
	return out
}

// Stats returns probe overhead accounting.
func (m *Monitor) Stats() ProbeStats { return m.stats }

// NodeFailureFloor is the minimum failed-probe streak across a node's links.
// A positive floor means no probe involving the node has succeeded for that
// many sweeps — the node-down signal. The minimum (not maximum) makes single
// link outages and lossy probe windows insufficient evidence: one healthy
// link clears the node. Nodes with no links report zero (never declarable
// down by probing).
func (m *Monitor) NodeFailureFloor(node string) int {
	floor := -1
	for _, v := range m.nodeLinks[node] {
		if floor < 0 || v.ConsecutiveFailures < floor {
			floor = v.ConsecutiveFailures
		}
	}
	if floor < 0 {
		return 0
	}
	return floor
}

// Nodes lists the monitored topology's nodes, for failure-detection sweeps.
// The returned slice is the monitor's own frozen order — callers must treat
// it as read-only (the controller walks it every cycle; copying it per sweep
// was a measurable share of a quiet epoch's allocations).
func (m *Monitor) Nodes() []string { return m.nodeOrder }

// PathSpareMbps estimates spare node-pair capacity as the bottleneck cached
// spare capacity along the routed path (the paper's traceroute + per-link
// bandwidth method). Co-located pairs report networked=false (no network
// involved). Served from the path oracle.
func (m *Monitor) PathSpareMbps(src, dst string) (mbps float64, networked bool, err error) {
	pm, err := m.PathMetrics(src, dst)
	return pm.SpareMbps, pm.Networked, err
}

// NodeLinkCapacityMbps sums the cached capacities of a node's links — the
// bandwidth term of the scheduler's node ranking.
func (m *Monitor) NodeLinkCapacityMbps(node string) float64 {
	var total float64
	for _, v := range m.nodeLinks[node] {
		total += v.CapacityMbps
	}
	return total
}
