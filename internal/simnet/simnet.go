// Package simnet is a flow-level network simulator over a mesh topology.
// Persistent streams (video feeds, RPC traffic aggregates) and bounded
// transfers (frames, probes) share links under max-min fairness with demand
// caps. Flow arrivals, completions and trace-driven link-capacity changes
// only mark the allocation pending; one deferred pass recomputes it at the
// next observation point — any read of network state, or the engine's next
// dispatch boundary (sim.Engine.BeforeDispatch), which falls at the same
// virtual time as the mutations it covers. Any number of mutations between
// two observation points cost one pass, and every read sees state bit-equal
// to a pass per mutation. Per-link fluid backlogs capture queueing
// delay when offered load exceeds capacity — the mechanism behind the
// order-of-magnitude latency inflation the BASS paper shows in Fig 5.
//
// Capacity scheduling is event-driven: each trace carries a change-point
// index, and the network computes the exact next 1-second sampling tick at
// which any link's observed capacity will move, then sleeps until it. Between
// capacity events nothing is polled; flow progress and link backlogs are
// anchored at the last settle point and integrated in closed form on demand
// (read views) or at the next mutation (settles). SetPolling(true) restores
// the legacy once-per-second polling driver; both drivers visit the same
// 1-second sampling grid, settle state at the same virtual times with the
// same arithmetic, and therefore produce bit-identical experiment output for
// a given (topology, workload, seed) triple — the equivalence the package's
// differential tests assert.
//
// Allocation is incremental: every link carries a dirty flag and the set of
// links that acted as water-filling bottlenecks in the last full pass is
// cached, so a deferred pass on an epoch where no flow changed and no
// binding capacity moved is absorbed without re-running the full pass (see
// AllocStats). All rate computations iterate flows and links in a fixed
// order, so a given (topology, workload, seed) triple yields bit-identical
// allocations run after run — the property the parallel experiment harness
// relies on.
//
// This plays the role CloudLab VMs + tc traffic shaping play in the paper's
// evaluation: a controlled substrate that replays CityLab traces underneath
// unmodified orchestration logic.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"bass/internal/mesh"
	"bass/internal/obs"
	"bass/internal/sim"
)

// Sentinel errors.
var (
	ErrUnknownFlow = errors.New("simnet: unknown flow")
)

// LocalMbps is the effective bandwidth between co-located components. The
// paper treats co-location as "avoiding the network altogether"; we model the
// node-local bus as a fixed, very fast link.
const LocalMbps = 10_000

// unboundedBps is the demand assigned to transfers without a rate cap.
const unboundedBps = 1e15

// DefaultMaxQueueSeconds bounds each link's fluid backlog to this many
// seconds of drain time at current capacity, modelling finite router buffers
// plus application-level timeouts: sustained overload parks latency at the
// cap instead of growing without bound.
const DefaultMaxQueueSeconds = 30

// gridStep is the capacity sampling period: trace values are observed at
// whole multiples of it past the Start time, in both drivers. It matches the
// paper's once-per-second bandwidth sampling.
const gridStep = time.Second

// changeScanLimit bounds the per-link walk over trace change-points when
// predicting the next capacity event. Traces that oscillate below the
// sampling grid can have many change-points per observed change; when the
// walk exhausts the limit the network schedules a conservative wake at the
// last examined tick (a no-op observation) and resumes the scan from there.
const changeScanLimit = 64

// compactDeadFlows is the minimum number of removed-but-retained flow slots
// before removeFlow compacts the iteration order in one pass.
const compactDeadFlows = 32

// FlowID identifies a stream or transfer.
type FlowID uint64

// Kind distinguishes flow types.
type Kind int

// Flow kinds.
const (
	KindStream Kind = iota + 1
	KindTransfer
)

// dhop is one directed link traversal.
type dhop struct {
	from, to string
}

type flow struct {
	id   FlowID
	kind Kind
	tag  string
	ts   *tagState // the tag's entry in Network.tags
	src  string
	dst  string
	// linkPath holds the link states along the routed path src→dst, in hop
	// order (empty when co-located or parked), so the allocation hot loops
	// never touch the link map.
	linkPath []*linkState

	demandBps float64 // rate cap; streams: offered rate, transfers: cap or unbounded
	rateBps   float64 // current max-min allocation

	remainingBits float64 // transfers only; settled as of Network.lastAdvance
	totalBits     float64
	started       time.Duration
	onComplete    func(TransferResult)
	// fire is the transfer's completion-event callback, built once at
	// AddTransfer so that rescheduling it in every full pass allocates nothing.
	fire         func()
	completionEv sim.EventID

	// cause is the journal span under which the flow was created (the deploy,
	// migration, or failover that started it); network lifecycle events fall
	// back to it when no fault is being applied.
	cause uint64

	hasEvent bool
	// parked marks a flow whose endpoints are currently unreachable (node
	// crash or partition): it holds no links, carries nothing, and resumes
	// when a route reappears.
	parked bool
	// gone marks a removed flow still occupying a flowOrder slot; every
	// iteration skips it and removeFlow compacts the slice once tombstones
	// dominate, replacing the old O(n) splice per removal.
	gone bool
	// frozen is water-filling scratch, valid during and after a full pass.
	frozen bool
	// inOrder marks a flow held in Network.byDemand at its current demand;
	// SetStreamDemand clears it, and so does the pass that drops the flow.
	inOrder bool
}

// tagState is one accounting tag's entry in Network.tags.
type tagState struct {
	bits float64 // cumulative bits carried, settled
	// seen marks a tag that has been credited at a settle (even with zero
	// bits, when a transfer's last step was clipped to nothing): BytesByTag
	// reports exactly the seen tags plus those of live flows.
	seen  bool
	flows []*flow // live flows with the tag, ascending FlowID
}

// tagSlabSize is how many tagStates one allocation provides. A slab per tag
// would cost an allocation per tag; one growing slice would copy itself (and
// hold the old copies) as a city-scale install mints 100k tags.
const tagSlabSize = 256

// TransferResult reports a finished transfer to its completion callback.
type TransferResult struct {
	ID       FlowID
	Tag      string
	Bits     float64
	Started  time.Duration
	Finished time.Duration
	// Failed is true when the transfer was aborted because a fault left its
	// endpoints unreachable; Bits is then the transfer's total size, not the
	// amount delivered. Callbacks should treat failed transfers as lost
	// requests, not completions.
	Failed bool
}

// Duration reports the transfer's total time.
func (r TransferResult) Duration() time.Duration { return r.Finished - r.Started }

type linkState struct {
	hop  dhop
	lid  mesh.LinkID
	link *mesh.Link
	fwd  bool // hop follows the link's A→B direction

	capacityBps float64
	avail       bool // cached topo.LinkAvailable, refreshed on epoch change

	// backlogBits is the fluid backlog as of backlogSince. Between settles
	// the offered demand and capacity are constant, so the true backlog at
	// any later time is the closed-form clamp backlogAt computes; settles
	// re-anchor before anything the integral depends on changes.
	backlogBits  float64
	backlogSince time.Duration

	carriedBits float64 // cumulative, settled as of Network.lastAdvance
	demandBps   float64 // stream demand routed over the direction (last full pass)
	// allocBps is the sum of rateBps over flows, in its ascending-FlowID
	// order. Rates only change in a full pass, which recomputes it; a flow
	// leaving the direction between passes marks it stale (see syncCrossings).
	allocBps float64

	// Incremental-allocation bookkeeping.
	flowCount  int  // routed flows currently crossing this direction
	bottleneck bool // was an arg-min link in any iteration of the last full pass
	dirty      bool // capacity changed since the last full pass
	shrunk     bool // capacity decreased since the last full pass

	// Water-filling scratch state, valid only inside a full pass.
	residual  float64
	iterCount int
	// flows lists the live flows crossing this direction, ascending FlowID:
	// the pass's active flows (built alongside iterCount), kept current
	// between passes by syncCrossings. A bottleneck round freezes from this
	// list directly instead of rescanning every active flow — at city scale
	// (100k flows, thousands of rounds) the rescan was the dominant cost —
	// and link reads sum allocations and in-flight bits over it.
	flows []*flow
}

// AllocStats counts allocation work since the network was built. Mutations
// only request a reallocation; requests made between two observation points
// (a read, or the engine's next dispatch) coalesce into one deferred pass,
// so both counters count deferred passes, not mutations. The invariant
// behind SkippedPasses: a pass is only absorbed when no flow was added,
// removed, or re-demanded and every capacity change since the last full pass
// either touched a link no flow crosses or increased the capacity of a
// non-bottleneck link — cases where the full water-filling pass would
// provably reproduce the cached rates bit-for-bit.
type AllocStats struct {
	// FullPasses counts complete water-filling recomputations.
	FullPasses uint64
	// SkippedPasses counts deferred passes absorbed by the incremental path
	// without recomputing any rate. The polling driver requests a pass every
	// second, so quiet seconds show up here; the event-driven driver only
	// requests one at capacity events, so the counter stays near zero on
	// quiet traces.
	SkippedPasses uint64
}

// Network is the flow-level simulator. All methods must be called from the
// simulation goroutine (inside event callbacks or before Run). Distinct
// Networks (each with its own Engine) are fully independent and may run on
// concurrent goroutines.
type Network struct {
	eng  *sim.Engine
	topo *mesh.Topology

	nextID    FlowID
	flows     map[FlowID]*flow
	flowOrder []*flow // ascending FlowID; the deterministic iteration order
	deadFlows int     // tombstoned entries in flowOrder
	// tags is the accounting-tag table. Each entry keeps the tag's settled
	// carried bits and its live flows (ascending FlowID like flowOrder), so
	// per-tag rate queries — the control plane issues one per deployed edge
	// per cycle — cost O(flows-with-tag), and a settle credits a flow's tag
	// through f.ts without hashing the tag. Entries outlive their flows: the
	// carried bits stay reportable. tagSlab is the current slab new entries
	// are carved from.
	tags        map[string]*tagState
	tagSlab     []tagState
	links       map[dhop]*linkState
	linkOrder   []*linkState // sorted by (from, to); deterministic iteration order
	lastAdvance time.Duration
	maxQueueSec float64

	// Driver state. The sampling grid is anchored at the Start time; both
	// drivers observe capacities only at gridAnchor + k·gridStep.
	polling        bool
	started        bool
	chainStopped   bool
	gridAnchor     time.Duration
	tickStop       func()
	hasArmed       bool
	armedAt        time.Duration
	armedID        sim.EventID
	lastAvailEpoch uint64

	// Fault state.
	probeLoss       map[mesh.LinkID]bool // links whose probes fail (control plane only)
	failedTransfers int                  // transfers aborted by faults
	parkedResumes   int                  // parked streams that found a route again

	// Observability. plane journals flow lifecycle events (parked, resumed,
	// failed transfers); nil costs nothing. causeSpan is the ambient cause the
	// orchestrator sets around fault application and workload starts, stamped
	// onto flows created and events emitted while it is in force.
	plane     *obs.Plane
	causeSpan uint64
	// topoHook, when set, runs after every ApplyTopologyState — the
	// reconciler's eager drift-scan trigger. Off the quiet path: it only
	// fires on fault-driven availability changes.
	topoHook func()

	// Incremental-allocation state.
	flowsDirty bool // flow set or a demand changed since the last full pass
	dirtyCount int  // links with dirty capacity since the last full pass
	fullOnly   bool // disable incremental absorption (always run the full pass)
	alloc      AllocStats

	// Sharded-execution state (see shard.go); nil when single-shard.
	sh *sharding

	// pending marks a reallocation requested since the last flush; the pass
	// runs at the next read or dispatch boundary (see flush).
	pending bool
	// crossingsStale marks a flow that left (or moved between) directions
	// since the last pass without one being requested — a transfer finished
	// or failed inside a pass or a reroute, or a flow parked — so the
	// per-direction flows and allocBps no longer describe the live flows
	// until flush calls syncCrossings.
	crossingsStale bool

	// byDemand is the last pass's active set sorted by ascending demand. It
	// persists between passes, so a pass only sorts the flows that joined or
	// changed demand since (see orderByDemand).
	byDemand []*flow

	// Scratch buffers reused across full passes.
	activeScratch   []*flow
	transferScratch []*flow
	batchScratch    []*flow // per-round demand-limited freeze batch
	routeScratch    []*linkState
}

// New builds a network over the topology. Call Start to begin trace-driven
// capacity updates.
func New(eng *sim.Engine, topo *mesh.Topology) *Network {
	n := &Network{
		eng:            eng,
		topo:           topo,
		flows:          make(map[FlowID]*flow),
		tags:           make(map[string]*tagState),
		links:          make(map[dhop]*linkState),
		probeLoss:      make(map[mesh.LinkID]bool),
		maxQueueSec:    DefaultMaxQueueSeconds,
		lastAvailEpoch: topo.AvailabilityEpoch(),
	}
	for _, l := range topo.Links() {
		avail := topo.LinkAvailable(l.ID)
		for _, fwd := range []bool{true, false} {
			h := dhop{from: l.ID.A, to: l.ID.B}
			if !fwd {
				h = dhop{from: l.ID.B, to: l.ID.A}
			}
			ls := &linkState{
				hop:         h,
				lid:         l.ID,
				link:        l,
				fwd:         fwd,
				capacityBps: l.CapacityDir(fwd).AtBps(0),
				avail:       avail,
			}
			n.links[h] = ls
			n.linkOrder = append(n.linkOrder, ls)
		}
	}
	slices.SortFunc(n.linkOrder, func(a, b *linkState) int {
		if c := strings.Compare(a.hop.from, b.hop.from); c != 0 {
			return c
		}
		return strings.Compare(a.hop.to, b.hop.to)
	})
	eng.BeforeDispatch(n.flush)
	topo.OnCapacityChange(func(mesh.LinkID) {
		// A trace swapped mid-run may introduce an earlier capacity event
		// than the one armed; re-aim the chain (no-op for the polling
		// driver, which samples every second anyway).
		if n.started && !n.polling && !n.chainStopped {
			n.armChain()
		}
	})
	return n
}

// SetPolling switches the network to the legacy once-per-second polling
// driver instead of event-driven capacity scheduling. Must be called before
// Start. Both drivers produce bit-identical experiment output; polling
// exists as an escape hatch and as the reference the differential tests
// compare against.
func (n *Network) SetPolling(v bool) {
	if n.started {
		panic("simnet: SetPolling after Start")
	}
	n.polling = v
}

// Start begins trace-driven capacity updates and returns a stop function. In
// the default event-driven mode it builds each trace's change-point index and
// arms a wake-up at the next 1-second tick where any link's observed capacity
// will move; in polling mode it samples every link once per second.
func (n *Network) Start() (stop func()) {
	n.started = true
	n.gridAnchor = n.eng.Now()
	poolStop := n.startPool()
	if n.polling {
		n.tickStop = n.eng.Every(gridStep, n.pollTick)
		return func() {
			poolStop()
			if n.tickStop != nil {
				n.tickStop()
				n.tickStop = nil
			}
		}
	}
	for _, ls := range n.linkOrder {
		ls.link.CapacityDir(ls.fwd).BuildChangeIndex()
	}
	n.armChain()
	return func() {
		poolStop()
		n.chainStopped = true
		if n.hasArmed {
			n.eng.Cancel(n.armedID)
			n.hasArmed = false
		}
	}
}

// SetObserver attaches an observability plane. The network journals flow
// lifecycle transitions (parked, resumed, failed transfers) caused by faults;
// a nil plane (the default) keeps every path allocation-free.
func (n *Network) SetObserver(p *obs.Plane) { n.plane = p }

// SetCause sets the ambient cause span stamped onto flows created and
// lifecycle events emitted until the next SetCause. The orchestrator brackets
// fault application and workload starts with it so network-level effects cite
// the decision or fault that produced them. SetCause(0) clears it.
func (n *Network) SetCause(span uint64) { n.causeSpan = span }

// eventCause resolves the cause for a lifecycle event about f: the ambient
// cause (the fault being applied) when set, else the span that created the
// flow.
func (n *Network) eventCause(f *flow) uint64 {
	if n.causeSpan != 0 {
		return n.causeSpan
	}
	return f.cause
}

// SetMaxQueueSeconds overrides the per-link buffer budget.
func (n *Network) SetMaxQueueSeconds(sec float64) {
	if sec > 0 {
		n.maxQueueSec = sec
	}
}

// SetFullRecompute forces every deferred pass through the full
// water-filling pass (the pre-incremental behaviour). Benchmarks use it to
// compare the two paths; production code should leave it off.
func (n *Network) SetFullRecompute(v bool) { n.fullOnly = v }

// AllocStats reports how many deferred reallocations ran the full
// water-filling pass versus how many the incremental path absorbed. A pending
// reallocation is flushed first, so the counts cover every mutation so far.
func (n *Network) AllocStats() AllocStats {
	n.flush()
	return n.alloc
}

// pollTick is the legacy driver: observe every link, then request a
// reallocation (usually absorbed on quiet seconds).
func (n *Network) pollTick() {
	n.observeCapacities(n.eng.Now())
	n.reallocate()
}

// chainEvent is one step of the event-driven driver. Every step lands on a
// grid tick: either the predicted capacity event, or the tick immediately
// before it (the "hop" that exists so the wake-up's queue position matches
// where the polling tick would sit — polling schedules tick T at T−1s, and
// same-time events run in schedule order).
func (n *Network) chainEvent() {
	n.hasArmed = false
	now := n.eng.Now()
	n.observeCapacities(now)
	n.reallocate()
	n.armChain()
}

// armChain aims the event-driven driver at the next capacity event. If the
// event is more than one grid step away it schedules the hop tick before it;
// re-arming with an event already armed keeps whichever fires first.
func (n *Network) armChain() {
	if n.polling || n.chainStopped {
		return
	}
	now := n.eng.Now()
	next, ok := n.nextCapacityEventAfter(now)
	if !ok {
		return // fully quiet: re-armed on trace swap or ApplyTopologyState
	}
	at := next
	if next > now+gridStep {
		at = next - gridStep
	}
	if n.hasArmed {
		if n.armedAt <= at {
			return // the armed step fires first and will re-aim
		}
		n.eng.Cancel(n.armedID)
	}
	n.armedID = n.eng.At(at, n.chainEvent)
	n.armedAt = at
	n.hasArmed = true
}

// gridAfter returns the first sampling tick strictly after t.
func (n *Network) gridAfter(t time.Duration) time.Duration {
	if t < n.gridAnchor {
		return n.gridAnchor + gridStep
	}
	k := (t - n.gridAnchor) / gridStep
	return n.gridAnchor + (k+1)*gridStep
}

// gridAtOrAfter returns the first sampling tick at or after t.
func (n *Network) gridAtOrAfter(t time.Duration) time.Duration {
	if t <= n.gridAnchor {
		return n.gridAnchor
	}
	k := (t - n.gridAnchor) / gridStep
	g := n.gridAnchor + k*gridStep
	if g < t {
		g += gridStep
	}
	return g
}

// nextCapacityEventAfter returns the earliest grid tick strictly after now
// at which any available link's sampled capacity differs from its current
// value — the only future instant at which the polling driver would observe
// a change.
func (n *Network) nextCapacityEventAfter(now time.Duration) (time.Duration, bool) {
	if n.sh != nil {
		return n.nextCapacityEventSharded(now)
	}
	var best time.Duration
	found := false
	for _, ls := range n.linkOrder {
		if !ls.avail {
			continue // pinned at zero until ApplyTopologyState revives it
		}
		t, ok := n.linkNextEvent(ls, now)
		if ok && (!found || t < best) {
			best = t
			found = true
		}
	}
	return best, found
}

// linkNextEvent walks one direction's trace change-points to the first grid
// tick after now where the sampled value departs from the current capacity.
func (n *Network) linkNextEvent(ls *linkState, now time.Duration) (time.Duration, bool) {
	tr := ls.link.CapacityDir(ls.fwd)
	cur := ls.capacityBps
	g := n.gridAfter(now)
	// The current capacity may have been sampled off-grid (ApplyTopologyState
	// reconciles at fault time), so check the very next tick explicitly
	// before trusting the change-point walk.
	if tr.AtBps(g) != cur {
		return g, true
	}
	t := g
	for i := 0; i < changeScanLimit; i++ {
		c, ok := tr.NextChangeAfter(t)
		if !ok {
			return 0, false
		}
		g = n.gridAtOrAfter(c)
		if tr.AtBps(g) != cur {
			return g, true
		}
		t = g // sub-grid wiggle cancelled out by the sampling; keep walking
	}
	// Scan budget exhausted (pathological sub-second oscillation): wake
	// conservatively at the last examined tick and resume the scan there.
	// The wake observes no change and costs no float work.
	return t, true
}

// observeCapacities samples every link's trace at a grid tick, settling the
// backlog of each link whose observed capacity moves before overwriting it,
// and marks moved links dirty for the allocator. Both drivers call it with
// identical timing for changed links, which keeps the settle arithmetic —
// and therefore all downstream float state — bit-identical across modes.
func (n *Network) observeCapacities(now time.Duration) {
	if n.sh != nil {
		n.observeCapacitiesSharded(now)
		return
	}
	if ep := n.topo.AvailabilityEpoch(); ep != n.lastAvailEpoch {
		n.lastAvailEpoch = ep
		for _, ls := range n.linkOrder {
			ls.avail = n.topo.LinkAvailable(ls.lid)
		}
	}
	for _, ls := range n.linkOrder {
		newCap := 0.0
		if ls.avail {
			newCap = ls.link.CapacityDir(ls.fwd).AtBps(now)
		}
		if newCap == ls.capacityBps {
			continue
		}
		n.settleBacklog(ls, now)
		if !ls.dirty {
			ls.dirty = true
			n.dirtyCount++
		}
		if newCap < ls.capacityBps {
			ls.shrunk = true
		}
		ls.capacityBps = newCap
	}
}

// settleBacklog integrates a link's fluid backlog from its anchor to now and
// re-anchors it. Demand and capacity are constant between settles, so the
// excess has constant sign and the clamped closed form equals step-wise
// integration.
func (n *Network) settleBacklog(ls *linkState, now time.Duration) {
	dt := (now - ls.backlogSince).Seconds()
	ls.backlogSince = now
	if dt <= 0 {
		return
	}
	excess := ls.demandBps - ls.capacityBps
	if excess > 0 {
		ls.backlogBits += excess * dt
		if maxBits := ls.capacityBps * n.maxQueueSec; ls.backlogBits > maxBits {
			ls.backlogBits = maxBits
		}
	} else if ls.backlogBits > 0 {
		ls.backlogBits += excess * dt // excess < 0: drain
		if ls.backlogBits < 0 {
			ls.backlogBits = 0
		}
	}
}

// backlogAt reads a link's fluid backlog at now without re-anchoring — the
// pure view stats use between settles.
func (n *Network) backlogAt(ls *linkState, now time.Duration) float64 {
	b := ls.backlogBits
	dt := (now - ls.backlogSince).Seconds()
	if dt <= 0 {
		return b
	}
	excess := ls.demandBps - ls.capacityBps
	if excess > 0 {
		b += excess * dt
		if maxBits := ls.capacityBps * n.maxQueueSec; b > maxBits {
			b = maxBits
		}
	} else if b > 0 {
		b += excess * dt
		if b < 0 {
			b = 0
		}
	}
	return b
}

// route resolves the link states along the mesh's routed path between two
// nodes (empty for co-location) into a scratch buffer that the next call
// overwrites: flows copy it, queries just iterate it.
func (n *Network) route(src, dst string) ([]*linkState, error) {
	hops := n.routeScratch[:0]
	if src == dst {
		return hops, nil
	}
	err := n.topo.WalkRoute(src, dst, func(from, to string, _ *mesh.Link) {
		if ls, ok := n.links[dhop{from: from, to: to}]; ok {
			hops = append(hops, ls)
		}
	})
	n.routeScratch = hops
	return hops, err
}

// addFlow registers a fully-built flow: id ordering, link crossing counts,
// and the dirty flag that forces the next allocation through the full pass.
func (n *Network) addFlow(f *flow) {
	n.flows[f.id] = f
	n.flowOrder = append(n.flowOrder, f) // ids are assigned in increasing order
	f.ts = n.tags[f.tag]
	if f.ts == nil {
		if len(n.tagSlab) == cap(n.tagSlab) {
			n.tagSlab = make([]tagState, 0, tagSlabSize)
		}
		n.tagSlab = n.tagSlab[:len(n.tagSlab)+1]
		f.ts = &n.tagSlab[len(n.tagSlab)-1]
		n.tags[f.tag] = f.ts
	}
	f.ts.flows = append(f.ts.flows, f)
	for _, ls := range f.linkPath {
		ls.flowCount++
	}
	n.flowsDirty = true
}

// removeFlow is addFlow's inverse. The flowOrder slot is tombstoned rather
// than spliced; once tombstones dominate, one compaction pass reclaims them,
// making removal amortised O(1) instead of O(flows).
func (n *Network) removeFlow(f *flow) {
	delete(n.flows, f.id)
	f.gone = true
	n.deadFlows++
	// Splice the flow out of its tag list, preserving ascending-ID order so
	// per-tag float summation keeps the exact order of a flowOrder scan. Tag
	// lists are per application edge — a handful of flows — so the copy is
	// cheap.
	if i := slices.Index(f.ts.flows, f); i >= 0 {
		f.ts.flows = slices.Delete(f.ts.flows, i, i+1)
	}
	for _, ls := range f.linkPath {
		ls.flowCount--
	}
	n.crossingsStale = n.crossingsStale || len(f.linkPath) > 0
	n.flowsDirty = true
	if n.deadFlows >= compactDeadFlows && n.deadFlows*2 > len(n.flowOrder) {
		live := n.flowOrder[:0]
		for _, g := range n.flowOrder {
			if !g.gone {
				live = append(live, g)
			}
		}
		for i := len(live); i < len(n.flowOrder); i++ {
			n.flowOrder[i] = nil
		}
		n.flowOrder = live
		n.deadFlows = 0
	}
}

// ApplyTopologyState reconciles the network with the topology's current
// availability state after a fault event: unavailable links drop to zero
// capacity (their backlog is lost with the router), available ones resume
// their trace-driven capacity, every flow is re-routed as the mesh routing
// protocol would after reconvergence, and rates are recomputed from scratch.
// Streams with no remaining route are parked at zero rate until connectivity
// returns; transfers with no route fail immediately (their callbacks see
// TransferResult.Failed), modelling the connection errors an application
// observes through a partition.
func (n *Network) ApplyTopologyState() {
	n.flush() // a pending pass may finish transfers that would otherwise fail
	n.advanceProgress()
	now := n.eng.Now()
	if ep := n.topo.AvailabilityEpoch(); ep != n.lastAvailEpoch {
		n.lastAvailEpoch = ep
		for _, ls := range n.linkOrder {
			ls.avail = n.topo.LinkAvailable(ls.lid)
		}
	}
	for _, ls := range n.linkOrder {
		n.settleBacklog(ls, now)
		if ls.avail {
			ls.capacityBps = ls.link.CapacityDir(ls.fwd).AtBps(now)
		} else {
			ls.backlogBits = 0
			ls.capacityBps = 0
		}
	}
	n.rerouteFlows()
	n.flowsDirty = true // routes and capacities moved: force the full pass
	n.reallocate()
	if n.started {
		n.armChain() // availability flips change which links can fire next
	}
	if n.topoHook != nil {
		n.topoHook()
	}
}

// OnTopologyApplied registers fn to run after every ApplyTopologyState (nil
// clears it). The orchestrator's reconciler hooks here so injected faults
// trigger an eager drift scan instead of waiting out the epoch.
func (n *Network) OnTopologyApplied(fn func()) { n.topoHook = fn }

// ShedFlowsByTagPrefix removes every live flow whose tag matches prefix at a
// "/" boundary — the data-plane half of shedding an application. A flow
// matches when its tag equals prefix exactly or continues past it with the
// "/" tag separator (a trailing "/" in prefix counts as that separator), so
// shedding "app1" touches "app1" and "app1/..." but never "app10/..." or
// "app1x/..." — raw HasPrefix matching shed those sibling applications too.
// Streams are journaled as parked-by-shedding then removed outright (the
// workload re-creates them on restore, against whatever placement then
// holds); transfers fail through their callbacks like any fault-severed
// transfer. Returns the number of flows shed. The ambient cause span
// (SetCause) threads the shed decision into each flow's disruption event.
func (n *Network) ShedFlowsByTagPrefix(prefix string) int {
	n.flush() // a pending pass may finish transfers that would otherwise fail
	n.advanceProgress()
	snapshot := make([]*flow, len(n.flowOrder))
	copy(snapshot, n.flowOrder)
	shed := 0
	for _, f := range snapshot {
		if f.gone || n.flows[f.id] != f || !tagMatchesPrefix(f.tag, prefix) {
			continue
		}
		shed++
		if f.kind == KindTransfer {
			n.failTransfer(f)
			continue
		}
		n.plane.EmitSpan(obs.Event{Type: obs.EventFlowParked, Flow: f.tag,
			Cause: n.eventCause(f), Reason: "application shed"})
		if f.hasEvent {
			n.eng.Cancel(f.completionEv)
			f.hasEvent = false
		}
		n.removeFlow(f)
	}
	if shed > 0 {
		n.reallocate()
	}
	return shed
}

// tagMatchesPrefix reports whether tag belongs to the application named by
// prefix: equal outright, or prefix followed by the "/" separator flow tags
// use between the application name and the edge description. A prefix that
// already ends in "/" needs no further separator.
func tagMatchesPrefix(tag, prefix string) bool {
	if !strings.HasPrefix(tag, prefix) {
		return false
	}
	if len(tag) == len(prefix) || strings.HasSuffix(prefix, "/") {
		return true
	}
	return tag[len(prefix)] == '/'
}

// rerouteFlows recomputes every networked flow's route against the current
// topology, in deterministic FlowID order. Failure callbacks may mutate the
// flow set, so iteration walks a snapshot.
func (n *Network) rerouteFlows() {
	snapshot := make([]*flow, len(n.flowOrder))
	copy(snapshot, n.flowOrder)
	for _, f := range snapshot {
		if f.gone || n.flows[f.id] != f {
			continue // removed by an earlier failure callback
		}
		if f.src == f.dst {
			continue // co-located: no network involved
		}
		hops, err := n.route(f.src, f.dst)
		if err != nil {
			if f.kind == KindTransfer {
				n.failTransfer(f)
			} else {
				n.parkFlow(f)
			}
			continue
		}
		if f.parked {
			n.parkedResumes++
			n.plane.EmitSpan(obs.Event{Type: obs.EventFlowResumed, Flow: f.tag,
				Cause: n.eventCause(f), Reason: "route restored"})
		}
		n.setFlowPath(f, hops)
	}
}

// parkFlow strands a flow whose endpoints are unreachable: it releases its
// links and carries nothing until rerouteFlows finds it a path again.
func (n *Network) parkFlow(f *flow) {
	if !f.parked {
		n.plane.EmitSpan(obs.Event{Type: obs.EventFlowParked, Flow: f.tag,
			Cause: n.eventCause(f), Reason: "no route between endpoints"})
	}
	for _, ls := range f.linkPath {
		ls.flowCount--
	}
	n.crossingsStale = n.crossingsStale || len(f.linkPath) > 0
	f.linkPath = f.linkPath[:0]
	f.rateBps = 0
	f.parked = true
	if f.kind == KindTransfer && f.hasEvent {
		n.eng.Cancel(f.completionEv)
		f.hasEvent = false
	}
}

// setFlowPath rebinds a flow (possibly parked) onto a new hop path, copying
// hops into the flow's own storage.
func (n *Network) setFlowPath(f *flow, hops []*linkState) {
	for _, ls := range f.linkPath {
		ls.flowCount--
	}
	f.linkPath = append(f.linkPath[:0], hops...)
	for _, ls := range f.linkPath {
		ls.flowCount++
	}
	f.parked = false
	n.crossingsStale = true
}

// failTransfer aborts a transfer whose endpoints became unreachable and
// reports the loss to its callback.
func (n *Network) failTransfer(f *flow) {
	if f.hasEvent {
		n.eng.Cancel(f.completionEv)
		f.hasEvent = false
	}
	n.removeFlow(f)
	n.failedTransfers++
	n.plane.EmitSpan(obs.Event{Type: obs.EventTransferFailed, Flow: f.tag,
		Cause: n.eventCause(f), Reason: "endpoints unreachable"})
	if f.onComplete != nil {
		f.onComplete(TransferResult{
			ID:       f.id,
			Tag:      f.tag,
			Bits:     f.totalBits,
			Started:  f.started,
			Finished: n.eng.Now(),
			Failed:   true,
		})
	}
}

// SetProbeLoss makes probes of the link fail (lossy) or succeed again. Probe
// loss is control-plane only: data flows are unaffected, so a failure
// detector that reacts to a single lost probe is reacting to noise.
func (n *Network) SetProbeLoss(id mesh.LinkID, lossy bool) {
	if lossy {
		n.probeLoss[id] = true
	} else {
		delete(n.probeLoss, id)
	}
}

// FailedTransfers reports the number of transfers aborted by faults so far.
func (n *Network) FailedTransfers() int {
	n.flush()
	return n.failedTransfers
}

// ParkedFlows reports the number of currently parked (stranded) flows.
func (n *Network) ParkedFlows() int {
	n.flush()
	var c int
	for _, f := range n.flowOrder {
		if !f.gone && f.parked {
			c++
		}
	}
	return c
}

// AddStream registers a persistent flow offering demandMbps from src to dst.
// The tag groups accounting (convention: "app/from->to").
func (n *Network) AddStream(tag, src, dst string, demandMbps float64) (FlowID, error) {
	path, err := n.route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("simnet: stream %s: %w", tag, err)
	}
	n.nextID++
	f := &flow{
		id:        n.nextID,
		kind:      KindStream,
		tag:       tag,
		src:       src,
		dst:       dst,
		linkPath:  slices.Clone(path),
		demandBps: demandMbps * 1e6,
		started:   n.eng.Now(),
		cause:     n.causeSpan,
	}
	n.addFlow(f)
	n.reallocate()
	return f.id, nil
}

// SetStreamDemand updates a stream's offered rate. Setting the demand a
// stream already offers is a no-op (no reallocation).
func (n *Network) SetStreamDemand(id FlowID, demandMbps float64) error {
	f, ok := n.flows[id]
	if !ok || f.kind != KindStream {
		return fmt.Errorf("%w: stream %d", ErrUnknownFlow, id)
	}
	if f.demandBps == demandMbps*1e6 {
		return nil
	}
	f.demandBps = demandMbps * 1e6
	f.inOrder = false // the next pass re-sorts it into byDemand
	n.flowsDirty = true
	n.reallocate()
	return nil
}

// RemoveStream deregisters a stream. Removing an unknown stream is an error.
func (n *Network) RemoveStream(id FlowID) error {
	f, ok := n.flows[id]
	if !ok || f.kind != KindStream {
		return fmt.Errorf("%w: stream %d", ErrUnknownFlow, id)
	}
	n.advanceProgress()
	n.removeFlow(f)
	n.reallocate()
	return nil
}

// StreamRate reports a stream's current allocation in Mbps.
func (n *Network) StreamRate(id FlowID) (float64, error) {
	n.flush()
	f, ok := n.flows[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	return f.rateBps / 1e6, nil
}

// StreamLoss reports the fraction of a stream's offered rate that the
// network cannot carry: max(0, 1-alloc/demand).
func (n *Network) StreamLoss(id FlowID) (float64, error) {
	n.flush()
	f, ok := n.flows[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownFlow, id)
	}
	if f.demandBps <= 0 {
		return 0, nil
	}
	loss := 1 - f.rateBps/f.demandBps
	if loss < 0 {
		loss = 0
	}
	return loss, nil
}

// AddTransfer starts a bounded transfer of the given size. capMbps limits the
// transfer's rate (0 means unbounded). onComplete runs when the last bit is
// delivered; it may start new flows. It never runs inside AddTransfer: a
// transfer with nothing to send completes when the deferred pass runs, at
// the same virtual time.
func (n *Network) AddTransfer(tag, src, dst string, bytes float64, capMbps float64, onComplete func(TransferResult)) (FlowID, error) {
	path, err := n.route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("simnet: transfer %s: %w", tag, err)
	}
	demand := unboundedBps
	if capMbps > 0 {
		demand = capMbps * 1e6
	}
	n.nextID++
	f := &flow{
		id:            n.nextID,
		kind:          KindTransfer,
		tag:           tag,
		src:           src,
		dst:           dst,
		linkPath:      slices.Clone(path),
		demandBps:     demand,
		remainingBits: bytes * 8,
		totalBits:     bytes * 8,
		started:       n.eng.Now(),
		onComplete:    onComplete,
		cause:         n.causeSpan,
	}
	id := f.id
	f.fire = func() { n.completeTransfer(id) }
	n.addFlow(f)
	n.reallocate()
	return f.id, nil
}

// CancelTransfer aborts an in-flight transfer without invoking its callback.
func (n *Network) CancelTransfer(id FlowID) error {
	n.flush() // a pending pass may finish the transfer before it is cancelled
	f, ok := n.flows[id]
	if !ok || f.kind != KindTransfer {
		return fmt.Errorf("%w: transfer %d", ErrUnknownFlow, id)
	}
	n.advanceProgress()
	if f.hasEvent {
		n.eng.Cancel(f.completionEv)
	}
	n.removeFlow(f)
	n.reallocate()
	return nil
}

// advanceProgress credits every flow with the bits carried since the last
// call, at the rates set by the previous allocation. Rates only change at
// full passes and every full pass settles first, so deferring settles to
// mutation points loses nothing; reads between settles go through the pure
// views in stats.go.
func (n *Network) advanceProgress() {
	now := n.eng.Now()
	dt := (now - n.lastAdvance).Seconds()
	n.lastAdvance = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flowOrder {
		if f.gone {
			continue
		}
		carried := f.rateBps * dt
		if carried == 0 {
			// Adding zero changes no value; skipping it keeps a tag unseen
			// until it carries something, so whether a deferred pass settled
			// a not-yet-allocated flow leaves no trace.
			continue
		}
		if f.kind == KindTransfer {
			if carried > f.remainingBits {
				carried = f.remainingBits
			}
			f.remainingBits -= carried
		}
		f.ts.bits += carried
		f.ts.seen = true
		for _, ls := range f.linkPath {
			ls.carriedBits += carried
		}
	}
}

// reallocate requests a reallocation after a mutation. It only marks the
// network pending: the pass itself runs once, at the next observation point —
// any read of network state, or the engine's next dispatch boundary — so a
// handler that opens 2,800 streams pays for one pass, not 2,800.
//
// No virtual time passes between a mutation and the observation point that
// flushes it, so the pass settles progress and backlogs over the same
// intervals at the same rates as a pass per mutation would, and a full pass
// is a pure function of the flow set and capacities. At every read and every
// dispatch boundary the state is therefore bit-equal to running a pass per
// mutation (TestDeferredPassMatchesEagerReads pins this). The one visible
// difference is where, within the instant, a transfer that the pass itself
// finishes (nothing left to send) reports completion: when the pass runs,
// not inside the mutating call. Mutations whose outcome depends on which
// transfers are still live (CancelTransfer, ShedFlowsByTagPrefix,
// ApplyTopologyState) flush first, so they see what a pass per mutation
// would have left.
func (n *Network) reallocate() { n.pending = true }

// flush runs the pending reallocation, if any: it recomputes max-min fair
// rates and reschedules transfer completion events — unless the incremental
// path can prove the cached allocation is still exact and absorb the pass
// outright. The absorb path touches no float state at all (only dirty flags
// and the counter), so drivers that request different numbers of passes —
// polling asks every second, event-driven only at capacity events — still
// evolve bit-identical simulation state. A pass may finish transfers whose
// callbacks mutate the network again, so flush loops until nothing is
// pending.
//
// The absorption rule: with an unchanged flow set and demands, a capacity
// change cannot move any rate when the link either carries no flows, or its
// capacity only grew and it was never an arg-min ("bottleneck") link in the
// last full pass. In the latter case the link's fair share only increases,
// so every iteration of a hypothetical re-run would select the same
// bottlenecks, freeze the same flows at the same values, and terminate with
// bit-identical rates.
//
// After the passes, every direction's flows and allocBps describe the live
// flows (syncCrossings), so link reads never rescan the flow set.
func (n *Network) flush() {
	for n.pending {
		n.pending = false
		if !n.fullOnly && !n.flowsDirty && n.canAbsorbCapacityChanges() {
			n.alloc.SkippedPasses++
			continue
		}
		n.fullReallocate()
	}
	if n.crossingsStale {
		n.syncCrossings()
	}
}

// syncCrossings rebuilds every direction's crossing list from the live flows
// after some left or moved between passes, and re-sums allocBps. Rates have
// not changed since the last pass, so this reproduces exactly the sums a
// scan of flowOrder would add up: the same flows, in ascending FlowID order.
func (n *Network) syncCrossings() {
	n.crossingsStale = false
	for _, ls := range n.linkOrder {
		ls.flows = ls.flows[:0]
	}
	for _, f := range n.flowOrder {
		if f.gone {
			continue
		}
		for _, ls := range f.linkPath {
			ls.flows = append(ls.flows, f)
		}
	}
	n.sumAllocations()
}

// sumAllocations sets each direction's allocBps from its crossing list.
func (n *Network) sumAllocations() {
	for _, ls := range n.linkOrder {
		var bps float64
		for _, f := range ls.flows {
			bps += f.rateBps
		}
		ls.allocBps = bps
	}
}

// canAbsorbCapacityChanges reports whether every dirty link's change is
// provably rate-preserving, clearing the dirty flags when so.
func (n *Network) canAbsorbCapacityChanges() bool {
	if n.dirtyCount == 0 {
		return true
	}
	for _, ls := range n.linkOrder {
		if !ls.dirty {
			continue
		}
		if ls.flowCount == 0 {
			continue // unused link: any change is invisible
		}
		if ls.shrunk || ls.bottleneck {
			return false // may bind (or bound) some flow: full pass required
		}
	}
	for _, ls := range n.linkOrder {
		ls.dirty = false
		ls.shrunk = false
	}
	n.dirtyCount = 0
	return true
}

// fullReallocate settles all anchored state, runs progressive water-filling
// with demand caps over every flow, records the bottleneck set for the
// incremental path, and reschedules transfer completion events at the new
// rates.
func (n *Network) fullReallocate() {
	n.advanceProgress()
	now := n.eng.Now()
	n.alloc.FullPasses++
	n.flowsDirty = false
	n.dirtyCount = 0

	// Settle backlogs before the demands their integrals depend on change,
	// then reset per-link accounting and scratch state. Shard-parallel when
	// sharded: the settle integral and resets are link-local.
	if n.sh != nil {
		n.sh.now = now
		n.sh.pool.Run(n.sh.resetFns)
	} else {
		for _, ls := range n.linkOrder {
			n.settleBacklog(ls, now)
			ls.residual = ls.capacityBps
			ls.iterCount = 0
			ls.demandBps = 0
			ls.bottleneck = false
			ls.dirty = false
			ls.shrunk = false
			ls.flows = ls.flows[:0]
		}
	}

	// Build the active set. Demand accumulation writes links across shard
	// boundaries, so this prelude stays sequential in both modes (and
	// therefore identical).
	active := n.activeScratch[:0]
	remaining := 0
	for _, f := range n.flowOrder {
		if f.gone {
			continue
		}
		if f.parked {
			// Stranded by a fault: holds no links (linkPath is empty, which
			// would otherwise read as co-location) and carries nothing.
			f.rateBps = 0
			continue
		}
		if f.kind == KindStream {
			for _, ls := range f.linkPath {
				ls.demandBps += f.demandBps
			}
		}
		if len(f.linkPath) == 0 {
			// Co-located: node-local bus. Streams stay capped at their
			// offered rate; transfers deliver at bus speed (rate caps model
			// network pacing, which does not apply in-process).
			if f.kind == KindTransfer {
				f.rateBps = LocalMbps * 1e6
			} else {
				f.rateBps = math.Min(f.demandBps, LocalMbps*1e6)
			}
			continue
		}
		f.frozen = false
		active = append(active, f)
		remaining++
		for _, ls := range f.linkPath {
			ls.iterCount++
			ls.flows = append(ls.flows, f)
		}
	}
	n.activeScratch = active

	if n.sh != nil {
		n.waterFill(active, remaining, n.sh.argMin)
	} else {
		n.waterFill(active, remaining, n.serialArgMin)
	}
	// Every live flow crossing a direction is active (parked and co-located
	// flows have empty paths), so the crossing lists are complete: sum them
	// once here, and every link read until the next pass is O(1).
	n.sumAllocations()
	n.crossingsStale = false

	// Reschedule transfer completions at the new rates. Completion callbacks
	// may add or remove flows (requesting another pass, which flush runs next,
	// or runs at once if the callback reads), so iterate a snapshot and skip
	// flows that vanished underneath us.
	transfers := n.transferScratch[:0]
	for _, f := range n.flowOrder {
		if !f.gone && f.kind == KindTransfer {
			transfers = append(transfers, f)
		}
	}
	n.transferScratch = transfers
	for _, f := range transfers {
		if n.flows[f.id] != f {
			continue // removed by a reentrant completion callback
		}
		if f.hasEvent {
			n.eng.Cancel(f.completionEv)
			f.hasEvent = false
		}
		if f.remainingBits <= 1e-9 {
			n.finishTransfer(f)
			continue
		}
		if f.rateBps <= 0 {
			continue // stalled until conditions change
		}
		eta := time.Duration(f.remainingBits / f.rateBps * float64(time.Second))
		if eta < time.Nanosecond {
			eta = time.Nanosecond
		}
		f.completionEv = n.eng.At(now+eta, f.fire)
		f.hasEvent = true
	}
}

// freezeFlow pins a flow's rate for the rest of the pass and withdraws it
// from every link it crosses. Both water-fill drivers share it, so a freeze
// performs the identical float operations regardless of how the flow was
// selected.
func (n *Network) freezeFlow(f *flow, rate float64) {
	if rate < 0 {
		rate = 0
	}
	f.rateBps = rate
	f.frozen = true
	for _, ls := range f.linkPath {
		ls.residual -= rate
		if ls.residual < 0 {
			ls.residual = 0
		}
		ls.iterCount--
	}
}

// serialArgMin scans every constrained link for the minimum fair share, with
// a first-in-linkOrder strict-< tie-break. The sharded driver replaces this
// with per-shard scans and a lexicographic reduce that picks the same winner;
// everything else in the round loop is shared code.
func (n *Network) serialArgMin() (float64, *linkState) {
	minShare := math.Inf(1)
	var bottleneck *linkState
	for _, ls := range n.linkOrder {
		if ls.iterCount <= 0 {
			continue
		}
		if share := ls.residual / float64(ls.iterCount); share < minShare {
			minShare = share
			bottleneck = ls
		}
	}
	return minShare, bottleneck
}

// waterFill is the progressive-filling round loop with demand caps, shared by
// the single-shard and sharded drivers — only the arg-min scan differs.
//
// Two indices keep the loop near-linear in the flow count where a naive
// rescan-every-round formulation is quadratic (the difference between minutes
// and seconds per pass at city scale), without changing a single freeze:
//
//   - a demand-sorted view of the active set with a monotone cursor. A flow
//     freezes demand-limited in the first round whose min share reaches its
//     demand, so every flow past the cursor has demand above every share seen
//     so far and flows behind it are already frozen — each round's batch is
//     exactly the flows the full rescan would have caught, collected in
//     amortized O(1). Batches are re-sorted by FlowID before freezing, which
//     is the active-list order the rescan froze in. The view is kept across
//     passes (orderByDemand), so a pass sorts only the flows that joined or
//     changed demand since the last one. Tie order among equal demands never
//     matters: the cursor always takes a whole equal-demand run or none of
//     it, and every batch is re-sorted by FlowID.
//   - per-link crossing lists (linkState.flows, FlowID-ascending by
//     construction). A bottleneck round freezes straight off the bottleneck's
//     own list — the same flows, in the same order, the full path-membership
//     scan selected.
func (n *Network) waterFill(active []*flow, remaining int, argMin func() (float64, *linkState)) {
	byDemand := n.orderByDemand(active)
	cursor := 0
	batch := n.batchScratch[:0]
	for remaining > 0 {
		minShare, bottleneck := argMin()
		// Record every arg-min link, applied or not: its share bounded this
		// iteration's demand comparisons, so the incremental path must treat
		// it as binding.
		if bottleneck != nil {
			bottleneck.bottleneck = true
		}
		// Freeze demand-limited flows first, in FlowID order.
		batch = batch[:0]
		for cursor < len(byDemand) && byDemand[cursor].demandBps <= minShare {
			if f := byDemand[cursor]; !f.frozen {
				batch = append(batch, f)
			}
			cursor++
		}
		if len(batch) > 0 {
			if len(batch) > 1 {
				slices.SortFunc(batch, func(a, b *flow) int { return cmp.Compare(a.id, b.id) })
			}
			for _, f := range batch {
				n.freezeFlow(f, f.demandBps)
			}
			remaining -= len(batch)
			continue
		}
		if bottleneck == nil {
			// No constrained links remain; all remaining flows get demand.
			for _, f := range active {
				if !f.frozen {
					n.freezeFlow(f, f.demandBps)
					remaining--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			n.freezeFlow(f, minShare)
			remaining--
		}
	}
	n.batchScratch = batch
}

// byDemandAsc orders flows by ascending demand, then FlowID. The tie-break
// changes no freeze (see waterFill); it makes the kept order a function of
// the active set alone, and a batch that spans few distinct demands comes
// out in FlowID runs, which its re-sort gets through fastest.
func byDemandAsc(a, b *flow) int {
	switch {
	case a.demandBps < b.demandBps:
		return -1
	case a.demandBps > b.demandBps:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// orderByDemand brings n.byDemand up to date with this pass's active set,
// sorted by byDemandAsc, and returns it. The kept order is compacted in
// place, dropping flows that left
// the active set or changed demand; the active flows not in it are sorted on
// their own and merged in from the back. When they outnumber the kept ones
// (a bulk install), one sort of the whole active set is cheaper.
func (n *Network) orderByDemand(active []*flow) []*flow {
	kept := n.byDemand[:0]
	for _, f := range n.byDemand {
		// Gone, parked and re-demanded flows drop out; parked flows have an
		// empty path, and no co-located flow was ever in the order.
		if f.inOrder && !f.gone && len(f.linkPath) > 0 {
			kept = append(kept, f)
		} else {
			f.inOrder = false
		}
	}
	clear(n.byDemand[len(kept):])
	fresh := n.batchScratch[:0] // free until the round loop starts
	for _, f := range active {
		if !f.inOrder {
			f.inOrder = true
			fresh = append(fresh, f)
		}
	}
	n.batchScratch = fresh
	if len(fresh) > len(kept) {
		n.byDemand = append(kept[:0], active...)
		slices.SortFunc(n.byDemand, byDemandAsc)
		return n.byDemand
	}
	slices.SortFunc(fresh, byDemandAsc)
	i, j := len(kept)-1, len(fresh)-1
	merged := slices.Grow(kept, len(fresh))[:len(kept)+len(fresh)]
	for w := len(merged) - 1; j >= 0; w-- {
		if i >= 0 && byDemandAsc(kept[i], fresh[j]) > 0 {
			merged[w] = kept[i]
			i--
		} else {
			merged[w] = fresh[j]
			j--
		}
	}
	n.byDemand = merged
	return merged
}

func (n *Network) completeTransfer(id FlowID) {
	f, ok := n.flows[id]
	if !ok {
		return
	}
	n.advanceProgress()
	f.hasEvent = false
	if f.remainingBits > 1e-9 {
		// Conditions changed since the event was scheduled (or the event
		// fired a nanosecond early from ETA truncation). The flow's
		// completion event is gone, so force a full pass to reschedule it —
		// the incremental path would otherwise absorb the request and stall
		// the transfer.
		n.flowsDirty = true
		n.reallocate()
		return
	}
	n.finishTransfer(f)
	n.reallocate()
}

func (n *Network) finishTransfer(f *flow) {
	n.removeFlow(f)
	if f.onComplete != nil {
		f.onComplete(TransferResult{
			ID:       f.id,
			Tag:      f.tag,
			Bits:     f.totalBits,
			Started:  f.started,
			Finished: n.eng.Now(),
		})
	}
}
