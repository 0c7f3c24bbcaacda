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
// capacity events nothing is polled; progress and link backlogs are anchored
// at the last settle point and integrated in closed form on demand (read
// views) or at the next mutation (settles). A settle costs what moved, not
// the flow set: it advances the live transfers, whose progress sets their
// completion times, and each direction's carried bits by allocBps × dt,
// while a stream folds its carried bits only when its rate changes.
// SetPolling(true) restores the legacy once-per-second polling driver; both
// drivers visit the same 1-second sampling grid, settle state at the same
// virtual times with the same arithmetic, and therefore produce bit-identical
// experiment output for a given (topology, workload, seed) triple — the
// equivalence the package's differential tests assert.
//
// Allocation is incremental: every link carries a dirty flag and the set of
// links that acted as water-filling bottlenecks in the last full pass is
// cached, so a deferred pass on an epoch where no routed flow changed and no
// binding capacity moved never re-runs water-filling. With nothing changed it
// is absorbed outright; when only co-located or parked flows came, went or
// changed demand, a local pass settles state and rates the co-located flows
// on the node-local bus, as the full pass would (see AllocStats). A full
// pass water-fills over dense arrays — flows and links numbered, paths and
// per-link crossing lists as int32 positions — and when only capacities
// moved since the last one, it reuses that flow side and pays for the
// water-filling alone. All rate computations iterate flows and links in a
// fixed order, so a given (topology, workload, seed) triple yields
// bit-identical allocations run after run — the property the parallel
// experiment harness relies on.
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
	errUnknownFlow = errors.New("simnet: unknown flow")
)

// LocalMbps is the effective bandwidth between co-located components. The
// paper treats co-location as "avoiding the network altogether"; we model the
// node-local bus as a fixed, very fast link.
const LocalMbps = 10_000

// unboundedBps is the demand assigned to transfers without a rate cap.
const unboundedBps = 1e15

// defaultMaxQueueSeconds bounds each link's fluid backlog to this many
// seconds of drain time at current capacity, modelling finite router buffers
// plus application-level timeouts: sustained overload parks latency at the
// cap instead of growing without bound.
const defaultMaxQueueSeconds = 30

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

// argBlockLinks is the size of the water-filling arg-min's blocks: linkOrder
// is cut into runs of this many directed links, each caching its minimum
// share, so a round rescans only the runs its freezes touched. At 64 the
// city-flows grid visited 24 % more links than at 32.
const argBlockLinks = 32

// compactDeadFlows is the minimum number of removed-but-retained flow slots
// before removeFlow compacts the iteration order in one pass.
const compactDeadFlows = 32

// FlowID identifies a stream or transfer.
type FlowID uint64

// kind distinguishes flow types.
type kind uint8

// Flow kinds.
const (
	kindStream kind = iota + 1
	kindTransfer
)

// dhop is one directed link traversal.
type dhop struct {
	from, to string
}

type flow struct {
	id  FlowID
	tag string
	ts  *tagState // the tag's entry in Network.tags
	src string
	dst string
	// linkPath holds the link states along the routed path src→dst, in hop
	// order (empty when co-located or parked), so the allocation hot loops
	// never touch the link map.
	linkPath []*linkState

	demandBps float64 // rate cap; streams: offered rate, transfers: cap or unbounded
	rateBps   float64 // current max-min allocation; set through setRate

	// A stream's carried bits, folded one constant-rate interval at a time
	// (see setRate and streamBits): carriedBits up to since, sinceRate from
	// since to changedAt, and rateBps from changedAt on. A rate that moves
	// and moves back within one instant, or is rewritten unchanged, folds
	// nothing, so no schedule of passes leaves a trace in the sum.
	carriedBits float64
	sinceRate   float64
	since       time.Duration
	changedAt   time.Duration

	xfer *transfer // transfers only: progress and completion

	// cause is the journal span under which the flow was created (the deploy,
	// migration, or failover that started it); network lifecycle events fall
	// back to it when no fault is being applied.
	cause uint64

	kind kind // beside the flags, so the record packs into 160 bytes
	// parked marks a flow whose endpoints are currently unreachable (node
	// crash or partition): it holds no links, carries nothing, and resumes
	// when a route reappears.
	parked bool
	// gone marks a removed flow still occupying a flowOrder slot; every
	// iteration skips it, and the next flow-side build or a compaction in
	// removeFlow drops it, replacing the old O(n) splice per removal.
	gone bool
	// inOrder marks a flow held in the fill's demand order at its current
	// demand, at position pos of the last flow-side build. SetStreamDemand
	// and parkFlow clear it; a flow that is gone is never read again.
	inOrder bool
	pos     int32
}

// transfer is a transfer's side of its flow record, allocated with it:
// fields streams never use stay out of the flow, which every pass walks.
type transfer struct {
	remainingBits float64 // settled as of Network.lastAdvance
	totalBits     float64
	started       time.Duration
	onComplete    func(TransferResult)
	// fire is the transfer's completion-event callback, built once at
	// AddTransfer so that rescheduling it in every full pass allocates nothing.
	fire func()
	// completionEv is the scheduled completion event, 0 when none is: an
	// engine id is never 0, and every cancel or firing zeroes it. A pass that
	// keeps the event moves it with Reschedule.
	completionEv sim.EventID
}

// transferRecord is the one allocation AddTransfer makes for a transfer: the
// flow and its transfer side together, 208 bytes, Go's 208-byte size class.
type transferRecord struct {
	f flow
	x transfer
}

// tagState is one accounting tag's entry in Network.tags.
type tagState struct {
	// bits is the cumulative bits carried, settled: transfers credit it as
	// they progress, streams when they leave.
	bits float64
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
	fwd  bool  // hop follows the link's A→B direction
	idx  int32 // position in Network.linkOrder, the link's index in the fill

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
	// allocBps is the sum of the rates on the direction's crossing list
	// (fillState.crossing), in its ascending-FlowID order. Rates only change
	// in a full pass, which recomputes it; a flow leaving the direction
	// between passes marks it stale (see syncCrossings).
	allocBps float64

	// Incremental-allocation bookkeeping.
	flowCount  int  // routed flows currently crossing this direction
	bottleneck bool // was an arg-min link in any iteration of the last full pass
	dirty      bool // capacity changed since the last full pass
	shrunk     bool // capacity decreased since the last full pass
}

// AllocStats counts allocation work since the network was built. Mutations
// only request a reallocation; requests made between two observation points
// (a read, or the engine's next dispatch) coalesce into one deferred pass,
// so the counters count deferred passes, not mutations. Each deferred pass is
// one of three kinds. The invariant behind the two cheap ones: no routed flow
// was added, removed, or re-demanded and every capacity change since the
// last full pass either touched a link no flow crosses or increased the
// capacity of a non-bottleneck link — cases where the full water-filling
// pass would provably reproduce the cached routed rates bit-for-bit.
type AllocStats struct {
	// FullPasses counts complete water-filling recomputations. One with no
	// routed flow added, removed, re-demanded, parked or rerouted since the
	// last (a capacity-only pass) reuses that pass's flow side — the active
	// list, paths, crossing lists, stream-demand sums and demand order —
	// and recomputes every rate from it, bit-equal to a rebuild.
	FullPasses uint64
	// SkippedPasses counts deferred passes absorbed by the incremental path
	// without recomputing any rate. The polling driver requests a pass every
	// second, so quiet seconds show up here; the event-driven driver only
	// requests one at capacity events, so the counter stays near zero on
	// quiet traces.
	SkippedPasses uint64
	// LocalPasses counts deferred passes that only co-located or parked flows,
	// or completion events that fired before the last bit, asked for: they
	// settle progress and backlogs, rate the co-located flows that joined or
	// changed demand on the node-local bus and reschedule transfer
	// completions, exactly as a full pass would, without water-filling.
	LocalPasses uint64
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
	transfers []*flow // live transfers, ascending FlowID
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

	// Incremental-allocation state. Flow changes are marked through
	// flowChanged, never by setting the flags directly.
	flowsDirty bool // routed churn or a reroute since the last full pass: the fill's flow side is stale
	localDirty bool // a co-located or parked flow changed, or a completion fired early, since the last pass
	// busFlows are the co-located flows added or re-demanded since the last
	// pass: the only rates a local pass sets.
	busFlows   []*flow
	dirtyCount int  // links with dirty capacity since the last full pass
	fullOnly   bool // no reuse, no absorption: every pass is a full pass from scratch
	alloc      AllocStats

	// pending marks a reallocation requested since the last flush; the pass
	// runs at the next read or dispatch boundary (see flush).
	pending bool
	// crossingsStale marks a flow that left (or moved between) directions
	// since the last pass — a transfer finished, failed or was shed, or a
	// flow parked or rerouted — so the crossing lists and allocBps no longer
	// describe the live flows until a full pass rebuilds them or, when a read
	// comes first with no pass pending (a failure callback inside a reroute
	// or a shed), flush calls syncCrossings.
	crossingsStale bool

	// fill is the full pass's dense state (see fill.go).
	fill fillState

	// argMinRounds counts blockedArgMin's calls and argMinVisits the links
	// and block minima they read: the work blocking saves. flowBuilds counts
	// buildFlowSide's calls: the passes and resyncs that rebuilt the flow
	// side instead of reusing it. sweptFlows counts the flows
	// advanceProgress visited: the live transfers, never the streams.
	argMinRounds, argMinVisits, flowBuilds, sweptFlows uint64

	// reschedules counts rescheduleTransfers calls, so one can tell that a
	// completion callback ran a nested pass; rearms counts the completion
	// events those calls scheduled or moved, so one can tell that no pass
	// touched the schedule after it (Reschedule keeps an event's id).
	reschedules, rearms uint64

	// Scratch buffers reused across passes.
	transferScratch []*flow
	routeScratch    []*linkState

	// The path reads' memo (see path): rows by source mesh id, entries by
	// destination id, valid for availability epoch pathsEpoch.
	paths      [][]pathEntry
	pathsEpoch uint64

	// rateEpoch advances whenever a routed rate, a direction's allocBps or
	// capacity, or a route may have moved (see RateEpoch); rateAvailEpoch is
	// the topology availability epoch it last folded in.
	rateEpoch, rateAvailEpoch uint64
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
		lastAvailEpoch: topo.AvailabilityEpoch(),
		rateAvailEpoch: topo.AvailabilityEpoch(),
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
	for i, ls := range n.linkOrder {
		ls.idx = int32(i)
	}
	n.fill = newFillState(len(n.linkOrder))
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

// SetShards does nothing and returns nil: the network runs its per-link
// phases serially.
//
// Deprecated: kept only for callers that still set a shard count; it will
// be removed.
func (n *Network) SetShards(int) error { return nil }

// Start begins trace-driven capacity updates and returns a stop function. In
// the default event-driven mode it arms a wake-up at the next 1-second tick
// where any link's observed capacity will move; in polling mode it samples
// every link once per second.
func (n *Network) Start() (stop func()) {
	n.started = true
	n.gridAnchor = n.eng.Now()
	if n.polling {
		n.tickStop = n.eng.Every(gridStep, n.pollTick)
		return func() {
			if n.tickStop != nil {
				n.tickStop()
				n.tickStop = nil
			}
		}
	}
	n.armChain()
	return func() {
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

// SetFullRecompute forces every deferred pass through the full
// water-filling pass, rebuilding the flow side each time (the
// pre-incremental behaviour): the from-scratch oracle the incremental
// paths are tested against. Benchmarks use it to compare the two paths;
// production code should leave it off.
func (n *Network) SetFullRecompute(v bool) { n.fullOnly = v }

// RateEpoch reports a counter that advances whenever a routed read can
// change value between two calls: a full pass (routed rates), a crossing
// resync (a direction's allocBps), any observed capacity change, absorbed or
// not (spare capacity is capacity minus allocation), and any topology
// availability change (routes, and so path latency). What it does not cover
// moves with time alone — backlogs and queue delays, carried bits — or is
// set by a local pass, which rates only co-located flows on the bus. So a
// path read of capacity, allocation or latency, or a routed stream's rate,
// taken at one RateEpoch value may be reused while it holds. Like every
// read it flushes a pending pass first.
func (n *Network) RateEpoch() uint64 {
	n.flush()
	if ep := n.topo.AvailabilityEpoch(); ep != n.rateAvailEpoch {
		n.rateAvailEpoch = ep
		n.rateEpoch++
	}
	return n.rateEpoch
}

// AllocStats reports how many deferred reallocations ran the full
// water-filling pass, how many ran the local pass and how many the
// incremental path absorbed. A pending reallocation is flushed first, so the
// counts cover every mutation so far.
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
	if n.hasArmed && n.armedAt <= at {
		return // the armed step fires first and will re-aim
	}
	if !n.hasArmed || !n.eng.Reschedule(n.armedID, at) {
		n.armedID = n.eng.At(at, n.chainEvent)
	}
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
// a change. Links that are down stay pinned at zero until
// ApplyTopologyState revives them.
func (n *Network) nextCapacityEventAfter(now time.Duration) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, ls := range n.linkOrder {
		if !ls.avail {
			continue
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
	// The availability epoch moved: re-read every link's avail.
	refresh := false
	if ep := n.topo.AvailabilityEpoch(); ep != n.lastAvailEpoch {
		n.lastAvailEpoch = ep
		refresh = true
	}
	moved := false
	for _, ls := range n.linkOrder {
		if refresh {
			ls.avail = n.topo.LinkAvailable(ls.lid)
		}
		newCap := 0.0
		if ls.avail {
			newCap = ls.link.CapacityDir(ls.fwd).AtBps(now)
		}
		if newCap == ls.capacityBps {
			continue
		}
		n.settleBacklog(ls, now)
		moved = true
		if !ls.dirty {
			ls.dirty = true
			n.dirtyCount++
		}
		if newCap < ls.capacityBps {
			ls.shrunk = true
		}
		ls.capacityBps = newCap
	}
	if moved {
		n.rateEpoch++ // spare capacity moves even when the pass is absorbed
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
		if maxBits := ls.capacityBps * defaultMaxQueueSeconds; ls.backlogBits > maxBits {
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
		if maxBits := ls.capacityBps * defaultMaxQueueSeconds; b > maxBits {
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
// overwrites: flows and the path memo copy it. A routed hop with no link
// state — a link added to the topology after New — is an error, never a
// silently shorter path.
func (n *Network) route(src, dst string) ([]*linkState, error) {
	hops := n.routeScratch[:0]
	if src == dst {
		return hops, nil
	}
	var missing error
	err := n.topo.WalkRoute(src, dst, func(from, to string, _ *mesh.Link) {
		if ls, ok := n.links[dhop{from: from, to: to}]; ok {
			hops = append(hops, ls)
		} else if missing == nil {
			missing = fmt.Errorf("simnet: no link state for %s->%s (link added after the network was built)", from, to)
		}
	})
	n.routeScratch = hops
	if err == nil {
		err = missing
	}
	return hops, err
}

// pathEntry is one memoized routed path: its link directions and its summed
// one-way propagation latency.
type pathEntry struct {
	ok      bool
	hops    []*linkState
	latency time.Duration
}

// path serves the path reads: it resolves the names to mesh ids (failing
// exactly as the mesh's Route does) and returns the pair's memoized path.
// The memo is stamped with the topology's availability epoch and cleared in
// place when the epoch moves, so routes and their link states are resolved
// once per pair and epoch. A row of entries is allocated per source on its
// first read and grown to the highest destination id read, so memory follows
// the pairs actually read. Errors — unknown or down names, no route, a
// missing link state — are returned, never memoized.
func (n *Network) path(src, dst string) (*pathEntry, error) {
	s, d, err := n.topo.Endpoints(src, dst)
	if err != nil {
		return nil, err
	}
	if ep := n.topo.AvailabilityEpoch(); ep != n.pathsEpoch {
		n.pathsEpoch = ep
		for _, row := range n.paths {
			for i := range row {
				row[i].ok = false
			}
		}
	}
	if int(s) >= len(n.paths) {
		n.paths = slices.Grow(n.paths, int(s)+1-len(n.paths))[:s+1]
	}
	row := n.paths[s]
	if int(d) >= len(row) {
		row = slices.Grow(row, int(d)+1-len(row))[:d+1]
		n.paths[s] = row
	}
	e := &row[d]
	if !e.ok {
		hops, err := n.route(src, dst)
		if err != nil {
			return nil, err
		}
		e.hops = append(e.hops[:0], hops...)
		e.latency = 0
		for _, ls := range hops {
			e.latency += ls.link.LatencyOneWay
		}
		e.ok = true
	}
	return e, nil
}

// addFlow registers a fully-built flow: id ordering, link crossing counts,
// and the mark that decides the next pass's kind.
func (n *Network) addFlow(f *flow) {
	n.flows[f.id] = f
	n.flowOrder = append(n.flowOrder, f) // ids are assigned in increasing order
	if f.kind == kindTransfer {
		n.transfers = append(n.transfers, f)
	}
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
	n.flowChanged(f)
}

// flowChanged marks the pending pass for a flow that joined, left or changed
// demand. A routed flow can move every rate, so it forces the full pass. A
// co-located or parked one crosses no link, so no routed rate, link demand or
// bottleneck can move: the local pass suffices, and it must rate a live
// co-located flow on the bus.
func (n *Network) flowChanged(f *flow) {
	if len(f.linkPath) > 0 {
		n.flowsDirty = true
		return
	}
	n.localDirty = true
	if !f.gone && !f.parked {
		n.busFlows = append(n.busFlows, f)
	}
}

// removeFlow is addFlow's inverse; a stream hands its carried bits to its
// tag. The flowOrder slot is tombstoned rather than spliced; the next
// flow-side build drops it, and once tombstones dominate before one, a
// compaction pass reclaims them, making removal amortised O(1) instead of
// O(flows).
func (n *Network) removeFlow(f *flow) {
	delete(n.flows, f.id)
	f.gone = true
	n.deadFlows++
	if f.kind == kindStream {
		if bits := streamBits(f, n.eng.Now()); bits != 0 {
			f.ts.bits += bits
			f.ts.seen = true
		}
	}
	// Splice the flow out of its tag list, preserving ascending-ID order so
	// per-tag float summation keeps the exact order of a flowOrder scan. Tag
	// lists are per application edge — a handful of flows — so the copy is
	// cheap.
	if i := slices.Index(f.ts.flows, f); i >= 0 {
		f.ts.flows = slices.Delete(f.ts.flows, i, i+1)
	}
	if f.kind == kindTransfer {
		if i, ok := slices.BinarySearchFunc(n.transfers, f.id, func(g *flow, id FlowID) int { return cmp.Compare(g.id, id) }); ok {
			n.transfers = slices.Delete(n.transfers, i, i+1)
		}
	}
	for _, ls := range f.linkPath {
		ls.flowCount--
	}
	n.crossingsStale = n.crossingsStale || len(f.linkPath) > 0
	n.flowChanged(f)
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
	n.rateEpoch++ // capacities resampled; reroute callbacks may read before the pass
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
		if f.kind == kindTransfer {
			n.failTransfer(f)
			continue
		}
		n.plane.EmitSpan(obs.Event{Type: obs.EventFlowParked, Flow: f.tag,
			Cause: n.eventCause(f), Reason: "application shed"})
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
			if f.kind == kindTransfer {
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
	n.setRate(f, 0)
	f.parked = true
	f.inOrder = false // leaves the active set; rejoins the demand order on resume
	if x := f.xfer; x != nil && x.completionEv != 0 {
		n.eng.Cancel(x.completionEv)
		x.completionEv = 0
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
	x := f.xfer
	if x.completionEv != 0 {
		n.eng.Cancel(x.completionEv)
		x.completionEv = 0
	}
	n.removeFlow(f)
	n.failedTransfers++
	n.plane.EmitSpan(obs.Event{Type: obs.EventTransferFailed, Flow: f.tag,
		Cause: n.eventCause(f), Reason: "endpoints unreachable"})
	if x.onComplete != nil {
		x.onComplete(TransferResult{
			ID:       f.id,
			Tag:      f.tag,
			Bits:     x.totalBits,
			Started:  x.started,
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

// validAmount reports whether v is a finite, non-negative demand or size.
// Water-filling compares demands against fair shares and sorts by them, so
// one NaN or negative demand would skew every flow sharing a link with it.
func validAmount(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// AddStream registers a persistent flow offering demandMbps from src to dst.
// The tag groups accounting (convention: "app/from->to"). The demand must be
// finite and non-negative.
func (n *Network) AddStream(tag, src, dst string, demandMbps float64) (FlowID, error) {
	if !validAmount(demandMbps * 1e6) {
		return 0, fmt.Errorf("simnet: stream %s: demand %v Mbps is not a finite non-negative rate", tag, demandMbps)
	}
	path, err := n.route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("simnet: stream %s: %w", tag, err)
	}
	n.nextID++
	now := n.eng.Now()
	f := &flow{
		id:        n.nextID,
		kind:      kindStream,
		tag:       tag,
		src:       src,
		dst:       dst,
		linkPath:  slices.Clone(path),
		demandBps: demandMbps * 1e6,
		since:     now,
		changedAt: now,
		cause:     n.causeSpan,
	}
	n.addFlow(f)
	n.reallocate()
	return f.id, nil
}

// SetStreamDemand updates a stream's offered rate, which must be finite and
// non-negative. Setting the demand a stream already offers is a no-op (no
// reallocation).
func (n *Network) SetStreamDemand(id FlowID, demandMbps float64) error {
	f, ok := n.flows[id]
	if !ok || f.kind != kindStream {
		return fmt.Errorf("%w: stream %d", errUnknownFlow, id)
	}
	if !validAmount(demandMbps * 1e6) {
		return fmt.Errorf("simnet: stream %d: demand %v Mbps is not a finite non-negative rate", id, demandMbps)
	}
	if f.demandBps == demandMbps*1e6 {
		return nil
	}
	f.demandBps = demandMbps * 1e6
	f.inOrder = false // the next build re-sorts it into the demand order
	n.flowChanged(f)
	n.reallocate()
	return nil
}

// RemoveStream deregisters a stream. Removing an unknown stream is an error.
func (n *Network) RemoveStream(id FlowID) error {
	f, ok := n.flows[id]
	if !ok || f.kind != kindStream {
		return fmt.Errorf("%w: stream %d", errUnknownFlow, id)
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
		return 0, fmt.Errorf("%w: %d", errUnknownFlow, id)
	}
	return f.rateBps / 1e6, nil
}

// StreamLoss reports the fraction of a stream's offered rate that the
// network cannot carry: max(0, 1-alloc/demand).
func (n *Network) StreamLoss(id FlowID) (float64, error) {
	n.flush()
	f, ok := n.flows[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", errUnknownFlow, id)
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

// AddTransfer starts a bounded transfer of the given size, which must be
// finite and non-negative. capMbps limits the transfer's rate (0 or +Inf
// means unbounded; NaN and negative caps are errors). onComplete runs when
// the last bit is delivered; it may start new flows. It never runs inside
// AddTransfer: a transfer with nothing to send completes when the deferred
// pass runs, at the same virtual time.
func (n *Network) AddTransfer(tag, src, dst string, bytes float64, capMbps float64, onComplete func(TransferResult)) (FlowID, error) {
	if !validAmount(bytes * 8) {
		return 0, fmt.Errorf("simnet: transfer %s: size %v bytes is not finite and non-negative", tag, bytes)
	}
	if !(capMbps >= 0) {
		return 0, fmt.Errorf("simnet: transfer %s: rate cap %v Mbps is negative or NaN", tag, capMbps)
	}
	path, err := n.route(src, dst)
	if err != nil {
		return 0, fmt.Errorf("simnet: transfer %s: %w", tag, err)
	}
	demand := unboundedBps
	if capMbps > 0 && validAmount(capMbps*1e6) {
		demand = capMbps * 1e6
	}
	n.nextID++
	rec := &transferRecord{
		f: flow{
			id:        n.nextID,
			kind:      kindTransfer,
			tag:       tag,
			src:       src,
			dst:       dst,
			linkPath:  slices.Clone(path),
			demandBps: demand,
			cause:     n.causeSpan,
		},
		x: transfer{
			remainingBits: bytes * 8,
			totalBits:     bytes * 8,
			started:       n.eng.Now(),
			onComplete:    onComplete,
		},
	}
	f := &rec.f
	f.xfer = &rec.x
	id := f.id
	rec.x.fire = func() { n.completeTransfer(id) }
	n.addFlow(f)
	n.reallocate()
	return f.id, nil
}

// CancelTransfer aborts an in-flight transfer without invoking its callback.
func (n *Network) CancelTransfer(id FlowID) error {
	n.flush() // a pending pass may finish the transfer before it is cancelled
	f, ok := n.flows[id]
	if !ok || f.kind != kindTransfer {
		return fmt.Errorf("%w: transfer %d", errUnknownFlow, id)
	}
	n.advanceProgress()
	if f.xfer.completionEv != 0 {
		n.eng.Cancel(f.xfer.completionEv)
		f.xfer.completionEv = 0
	}
	n.removeFlow(f)
	n.reallocate()
	return nil
}

// advanceProgress settles progress since the last call at the rates set by
// the previous allocation, touching only what the simulation reads back:
// each live transfer's remainingBits (which its ETA comes from) and its
// tag's bits, in FlowID order, and each direction's carried bits, which grow
// by allocBps × dt — the sum of the rates crossing it, so a link costs O(1)
// whatever crosses it. A stream's bits are not swept: it folds them when its
// rate changes (setRate) and its tag collects them when it leaves
// (removeFlow). Rates only change at passes and every pass settles first, so
// deferring settles to mutation points loses nothing; reads between settles
// go through the pure views in stats.go.
func (n *Network) advanceProgress() {
	now := n.eng.Now()
	dt := (now - n.lastAdvance).Seconds()
	n.lastAdvance = now
	if dt <= 0 {
		return
	}
	for _, ls := range n.linkOrder {
		ls.carriedBits += ls.allocBps * dt
	}
	n.sweptFlows += uint64(len(n.transfers))
	for _, f := range n.transfers {
		carried := f.rateBps * dt
		if carried == 0 {
			// Adding zero changes no value; skipping it keeps a tag unseen
			// until it carries something, so whether a deferred pass settled
			// a not-yet-allocated flow leaves no trace.
			continue
		}
		x := f.xfer
		if carried > x.remainingBits {
			carried = x.remainingBits
		}
		x.remainingBits -= carried
		f.ts.bits += carried
		f.ts.seen = true
	}
}

// setRate sets a flow's allocation. A stream whose rate moves at an instant
// later than its last change first folds that change's interval, sinceRate
// from since to changedAt, into its carried bits. So an interval closes only
// after the instant its rate last changed: a rate moved and moved back
// within one instant, or rewritten unchanged by a full pass, folds nothing.
func (n *Network) setRate(f *flow, r float64) {
	if r == f.rateBps {
		return
	}
	if now := n.eng.Now(); f.kind == kindStream && now != f.changedAt {
		if f.rateBps != f.sinceRate {
			f.carriedBits += f.sinceRate * (f.changedAt - f.since).Seconds()
			f.since, f.sinceRate = f.changedAt, f.rateBps
		}
		f.changedAt = now
	}
	f.rateBps = r
}

// streamBits reports the bits a stream has carried up to now: what setRate
// folded, plus its last change's interval, plus the rate in force since.
func streamBits(f *flow, now time.Duration) float64 {
	bits, since, rate := f.carriedBits, f.since, f.sinceRate
	if f.rateBps != rate {
		bits += rate * (f.changedAt - since).Seconds()
		since, rate = f.changedAt, f.rateBps
	}
	return bits + rate*(now-since).Seconds()
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
// not inside the mutating call. A routed transfer finished that way frees
// its share, so it requests another pass at the same instant, which runs
// before any read sees the rates (see rescheduleTransfers). Mutations whose
// outcome depends on which transfers are still live (CancelTransfer,
// ShedFlowsByTagPrefix, ApplyTopologyState) flush first, so they see what a
// pass per mutation would have left.
func (n *Network) reallocate() { n.pending = true }

// flush runs the pending reallocation, if any, as one of three kinds of
// pass. The full pass recomputes max-min fair rates and reschedules transfer
// completion events. When the incremental path can prove the cached routed
// allocation is still exact, it runs no water-filling: with only co-located
// or parked flows changed it runs the local pass (localReallocate), and
// otherwise it absorbs the pass outright. The absorb path touches no float
// state at all (only dirty flags and the counter), so drivers that request
// different numbers of passes — polling asks every second, event-driven only
// at capacity events — still evolve bit-identical simulation state. A pass
// may finish transfers whose callbacks mutate the network again, so flush
// loops until nothing is pending.
//
// The absorption rule: with an unchanged routed flow set and demands, a
// capacity change cannot move any rate when the link either carries no
// flows, or its capacity only grew and it was never an arg-min
// ("bottleneck") link in the last full pass. In the latter case the link's
// fair share only increases, so every iteration of a hypothetical re-run
// would select the same bottlenecks, freeze the same flows at the same
// values, and terminate with bit-identical rates. Co-located and parked flows
// cross no link, so their churn leaves that argument intact; it only changes
// what the local pass does besides.
//
// After the passes, every direction's flows and allocBps describe the live
// flows (syncCrossings), so link reads never rescan the flow set.
func (n *Network) flush() {
	for n.pending {
		n.pending = false
		if !n.fullOnly && !n.flowsDirty && n.canAbsorbCapacityChanges() {
			if n.localDirty {
				n.localReallocate()
			} else {
				n.alloc.SkippedPasses++
			}
			continue
		}
		n.fullReallocate()
	}
	if n.crossingsStale {
		n.syncCrossings()
	}
}

// Batch runs fn, then flushes the pending reallocation. Every mutation
// already defers its pass to the next read or dispatch boundary, so Batch
// adds nothing but the flush; it remains for callers that install a
// workload outside any event and want the rates settled on return.
func (n *Network) Batch(fn func()) {
	fn()
	n.flush()
}

// syncCrossings rebuilds the flow side from the live flows after some left
// or moved between passes, and re-sums allocBps. Rates have not changed
// since the last pass, so this reproduces exactly the sums a scan of
// flowOrder would add up: the same flows, in ascending FlowID order. Only a
// full pass copies the rebuilt stream-demand sums onto the directions, and
// the change that staled the lists also set flowsDirty, so the next full
// pass rebuilds again rather than reuse this build.
func (n *Network) syncCrossings() {
	n.crossingsStale = false
	n.rateEpoch++
	n.buildFlowSide()
	n.sumAllocations()
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
// with demand caps over every routed flow, records the bottleneck set for
// the incremental path, and reschedules transfer completion events at the
// new rates.
//
// A full pass is a pure function of the flow set and the capacities. When
// no routed flow joined, left, changed demand, parked or rerouted since the
// last build (flowsDirty is false: a capacity-only pass), the fill's flow
// side still describes the flow set, so the pass reuses it and only rates
// the co-located flows that joined or changed demand on the bus; otherwise
// buildFlowSide rebuilds it in FlowID order. SetFullRecompute rebuilds on
// every pass.
func (n *Network) fullReallocate() {
	n.advanceProgress()
	now := n.eng.Now()
	n.alloc.FullPasses++
	n.rateEpoch++
	if n.flowsDirty || n.fullOnly {
		n.buildFlowSide()
	} else {
		for _, f := range n.busFlows {
			n.setRate(f, busRate(f))
		}
	}
	n.flowsDirty = false
	n.localDirty = false
	clear(n.busFlows)
	n.busFlows = n.busFlows[:0]
	n.dirtyCount = 0

	// Settle backlogs before the demands their integrals depend on change,
	// then load each direction's stream demand from the fill's flow side and
	// its residual and count for the round loop.
	d := &n.fill
	for _, ls := range n.linkOrder {
		n.settleBacklog(ls, now)
		l := ls.idx
		ls.demandBps = d.demandSum[l]
		ls.bottleneck = false
		ls.dirty = false
		ls.shrunk = false
		k := &d.links[l]
		k.residual = ls.capacityBps
		k.count = d.links[l+1].cross - k.cross
	}

	n.waterFill()
	// Every live flow crossing a direction is active (parked and co-located
	// flows have empty paths), so the crossing lists are complete: sum them
	// once here, and every link read until the next pass is O(1).
	n.sumAllocations()
	n.crossingsStale = false
	n.rescheduleTransfers(now)
}

// busRate is a co-located flow's rate on the node-local bus. Streams stay
// capped at their offered rate; transfers deliver at bus speed (rate caps
// model network pacing, which does not apply in-process).
func busRate(f *flow) float64 {
	if f.kind == kindTransfer {
		return LocalMbps * 1e6
	}
	return math.Min(f.demandBps, LocalMbps*1e6)
}

// localReallocate is the pass for churn no routed flow sees: only co-located
// or parked flows joined, left or changed demand, or a completion fired
// early and needs rescheduling, and every capacity change is absorbable. A
// full pass would then recompute the same routed rates, bottleneck flags,
// link demands, allocBps and crossing lists (the absorb argument, see
// flush), so this pass does only what it would change: settle progress and
// every direction's backlog at now, set the bus rate of each co-located flow
// that joined or changed demand, and reschedule every live transfer in
// FlowID order.
func (n *Network) localReallocate() {
	n.advanceProgress()
	now := n.eng.Now()
	n.alloc.LocalPasses++
	n.localDirty = false
	for _, ls := range n.linkOrder {
		n.settleBacklog(ls, now)
	}
	for _, f := range n.busFlows {
		n.setRate(f, busRate(f))
	}
	clear(n.busFlows)
	n.busFlows = n.busFlows[:0]
	n.rescheduleTransfers(now)
}

// rescheduleTransfers reschedules every live transfer's completion at its
// current rate, finishing those with nothing left to send. A routed transfer
// that finishes frees its share, so it requests another pass, which flush
// runs next at the same instant. Completion callbacks may add or remove flows
// too, so iterate a snapshot and skip flows that vanished underneath us. A
// callback that reads runs that pass at once, nested in this one: it
// reschedules every live transfer itself and refills the snapshot's scratch,
// so this loop stops there.
func (n *Network) rescheduleTransfers(now time.Duration) {
	n.reschedules++
	pass := n.reschedules
	transfers := append(n.transferScratch[:0], n.transfers...)
	n.transferScratch = transfers
	for _, f := range transfers {
		if f.gone {
			continue // removed by a reentrant completion callback
		}
		x := f.xfer
		if x.remainingBits > 1e-9 && f.rateBps > 0 {
			eta := time.Duration(x.remainingBits / f.rateBps * float64(time.Second))
			if eta < time.Nanosecond {
				eta = time.Nanosecond
			}
			// Reschedule gives the kept event a fresh seq, so it lands
			// exactly where a cancel and a new At would; an id that no
			// longer names a queued event falls back to At.
			if x.completionEv == 0 || !n.eng.Reschedule(x.completionEv, now+eta) {
				x.completionEv = n.eng.At(now+eta, x.fire)
			}
			n.rearms++
			continue
		}
		if x.completionEv != 0 {
			n.eng.Cancel(x.completionEv)
			x.completionEv = 0
		}
		if x.remainingBits > 1e-9 {
			continue // stalled until conditions change
		}
		if len(f.linkPath) > 0 {
			n.reallocate()
		}
		n.finishTransfer(f)
		if n.reschedules != pass {
			return
		}
	}
}

func (n *Network) completeTransfer(id FlowID) {
	f, ok := n.flows[id]
	if !ok {
		return
	}
	n.advanceProgress()
	f.xfer.completionEv = 0
	if f.xfer.remainingBits > 1e-9 {
		// The event fired before the last bit: its ETA was truncated to the
		// nanosecond. No rate moved since it was scheduled — every pass that
		// moves a rate reschedules every transfer, and an absorbed pass moves
		// none — so the local pass, which reschedules every live transfer at
		// its current rate, does what a full pass would, bit for bit. The
		// flow's event is gone, so the pass must not be absorbed: mark it
		// local. A pending capacity change that cannot be absorbed still
		// runs the full pass (see flush).
		n.localDirty = true
		n.reallocate()
		return
	}
	// Request the pass first, so a completion callback that reads sees the
	// finished transfer's share already returned to its links.
	n.reallocate()
	n.finishTransfer(f)
}

func (n *Network) finishTransfer(f *flow) {
	n.removeFlow(f)
	if x := f.xfer; x.onComplete != nil {
		x.onComplete(TransferResult{
			ID:       f.id,
			Tag:      f.tag,
			Bits:     x.totalBits,
			Started:  x.started,
			Finished: n.eng.Now(),
		})
	}
}
