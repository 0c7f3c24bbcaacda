// Package mesh models the wireless mesh substrate: an undirected topology of
// nodes joined by links whose capacity varies over time (driven by package
// trace), plus the decentralised routing view BASS assumes — the orchestrator
// cannot control routing, it can only discover paths (traceroute) and treat
// the path capacity as the bottleneck link along it (§4.2).
package mesh

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bass/internal/trace"
)

// Sentinel errors.
var (
	ErrUnknownNode   = errors.New("mesh: unknown node")
	ErrDuplicateLink = errors.New("mesh: duplicate link")
	ErrNoPath        = errors.New("mesh: no path")
	ErrSelfLink      = errors.New("mesh: self link")
	ErrNodeDown      = errors.New("mesh: node down")
	ErrUnknownLink   = errors.New("mesh: unknown link")
)

// LinkID identifies an undirected link by its two endpoints in lexicographic
// order.
type LinkID struct {
	A, B string
}

// MakeLinkID normalises the endpoint order.
func MakeLinkID(a, b string) LinkID {
	if a > b {
		a, b = b, a
	}
	return LinkID{A: a, B: b}
}

// String renders the link as "a-b".
func (l LinkID) String() string { return l.A + "-" + l.B }

// Link is one wireless link with time-varying, per-direction capacity.
// Wireless links are roughly symmetric (the paper reports "similar bandwidth
// in both directions"), so links are constructed with one trace for both
// directions; tc-style directional shaping (throttling a node's outgoing
// interface, as the paper's experiments do) is applied with
// SetCapacityToward.
type Link struct {
	ID LinkID
	// capFwd is the A→B capacity; capRev is B→A.
	capFwd *trace.Trace
	capRev *trace.Trace
	// LatencyOneWay is the propagation + MAC latency per traversal.
	LatencyOneWay time.Duration
	// a and b are the dense node ids of ID.A and ID.B.
	a, b int32
	// down is the link's own administrative state (Topology.SetLinkUp); an up
	// link can still be unusable because an endpoint node is down.
	down bool
}

// CapacityToward returns the capacity trace for the from→to direction.
func (l *Link) CapacityToward(from, to string) (*trace.Trace, error) {
	switch {
	case from == l.ID.A && to == l.ID.B:
		return l.capFwd, nil
	case from == l.ID.B && to == l.ID.A:
		return l.capRev, nil
	default:
		return nil, fmt.Errorf("mesh: %s-%s is not a direction of link %s", from, to, l.ID)
	}
}

// SetCapacityToward replaces the capacity trace of one direction.
func (l *Link) SetCapacityToward(from, to string, capacity *trace.Trace) error {
	switch {
	case from == l.ID.A && to == l.ID.B:
		l.capFwd = capacity
	case from == l.ID.B && to == l.ID.A:
		l.capRev = capacity
	default:
		return fmt.Errorf("mesh: %s-%s is not a direction of link %s", from, to, l.ID)
	}
	return nil
}

// MinCapacityAt reports the lower of the two directions' capacities at
// offset at — what a direction-agnostic probe of the link observes.
func (l *Link) MinCapacityAt(at time.Duration) float64 {
	fwd := l.capFwd.At(at)
	if rev := l.capRev.At(at); rev < fwd {
		return rev
	}
	return fwd
}

// CapacityFwd returns the A→B trace (for characterisation and tests; both
// directions are identical until SetCapacityToward splits them).
func (l *Link) CapacityFwd() *trace.Trace { return l.capFwd }

// CapacityDir returns the capacity trace of the forward (A→B) or reverse
// (B→A) direction. Reading through the link (rather than caching the trace
// pointer) keeps hot-path consumers current across mid-run trace swaps.
func (l *Link) CapacityDir(fwd bool) *trace.Trace {
	if fwd {
		return l.capFwd
	}
	return l.capRev
}

// Topology is the mesh graph. Construct once, then query from any number of
// goroutines; mutation after construction is not synchronised. Fault
// injection flips node/link availability at run time (single-goroutine, like
// all mutation): a down node or link stays in the graph but is invisible to
// routing, modelling a crashed router or a radio outage.
type Topology struct {
	nodeID    map[string]int32 // name → dense id, assigned at AddNode
	nodeOrder []string         // id → name, insertion order
	nodeDown  []bool           // by id
	links     map[LinkID]*Link
	adj       map[string][]string

	// The routing plane's compiled graph. Every link contributes two directed
	// edges; out[u] lists the edges leaving node u in the order of
	// adj[name(u)] (sorted by neighbour name), which is what makes the BFS
	// tie-break lexicographic.
	edges []dirEdge
	out   [][]outEdge

	// availEpoch counts graph-shape changes: availability flips and link
	// additions. Routes computed under one epoch stay valid for its duration,
	// which is what makes the route trees and the route cache sound.
	availEpoch uint64

	// capListeners are invoked when a link's capacity trace is swapped via
	// SetCapacity/SetDirectedCapacity (which ThrottleEgress routes through).
	// Registration and invocation are mutation, i.e. single-goroutine.
	capListeners []func(LinkID)

	// mu guards the route trees, the route cache and the BFS queue. Queries
	// are documented as safe from any number of goroutines, and with lazily
	// built trees a query is not read-only under the hood.
	mu          sync.Mutex
	trees       []routeTree // by source id
	routeCache  map[routeKey][]string
	bfsQueue    []int32
	sortedLinks []*Link
}

// dirEdge is one direction of a link, between dense node ids.
type dirEdge struct {
	from, to int32
	link     *Link
}

// outEdge is an adjacency entry: edge id plus its head, so the BFS inner loop
// reads the neighbour without touching the edge table.
type outEdge struct {
	to, edge int32
}

// routeTree is the min-hop shortest-path tree of one source: via[v] is the
// directed edge that first reached v in the BFS from the source (unreached
// for nodes with no route, treeRoot for the source itself). The tree answers
// every destination by a walk up the via edges. A tree is current while
// epoch matches the topology's and via still covers every node; a stale tree
// is rebuilt in place, so storage is allocated once per source.
type routeTree struct {
	epoch uint64
	via   []int32
}

// Sentinel via values.
const (
	unreached int32 = -1
	treeRoot  int32 = -2
)

type routeKey struct{ src, dst int32 }

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		nodeID:     make(map[string]int32),
		links:      make(map[LinkID]*Link),
		adj:        make(map[string][]string),
		routeCache: make(map[routeKey][]string),
	}
}

// AddNode registers a node; adding an existing node is a no-op.
func (t *Topology) AddNode(name string) {
	if _, ok := t.nodeID[name]; ok {
		return
	}
	t.nodeID[name] = int32(len(t.nodeOrder))
	t.nodeOrder = append(t.nodeOrder, name)
	t.nodeDown = append(t.nodeDown, false)
	t.out = append(t.out, nil)
	t.trees = append(t.trees, routeTree{})
}

// HasNode reports whether the node exists.
func (t *Topology) HasNode(name string) bool {
	_, ok := t.nodeID[name]
	return ok
}

// Nodes returns node names in insertion order.
func (t *Topology) Nodes() []string {
	out := make([]string, len(t.nodeOrder))
	copy(out, t.nodeOrder)
	return out
}

// AddLink joins two existing nodes with a capacity trace.
func (t *Topology) AddLink(a, b string, capacity *trace.Trace, latency time.Duration) error {
	if a == b {
		return fmt.Errorf("%w: %q", ErrSelfLink, a)
	}
	ia, ok := t.nodeID[a]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, a)
	}
	ib, ok := t.nodeID[b]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, b)
	}
	id := MakeLinkID(a, b)
	if _, ok := t.links[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateLink, id)
	}
	l := &Link{ID: id, capFwd: capacity, capRev: capacity, LatencyOneWay: latency,
		a: t.nodeID[id.A], b: t.nodeID[id.B]}
	t.links[id] = l
	e := int32(len(t.edges))
	t.edges = append(t.edges, dirEdge{from: ia, to: ib, link: l}, dirEdge{from: ib, to: ia, link: l})
	t.addNeighbor(a, ia, b, outEdge{to: ib, edge: e})
	t.addNeighbor(b, ib, a, outEdge{to: ia, edge: e + 1})
	t.bumpEpoch()
	t.mu.Lock()
	t.sortedLinks = nil
	t.mu.Unlock()
	return nil
}

// addNeighbor records edge (leaving node, towards nb) at nb's sorted position
// in both of node's adjacency views.
func (t *Topology) addNeighbor(node string, id int32, nb string, edge outEdge) {
	i := sort.SearchStrings(t.adj[node], nb)
	t.adj[node] = slices.Insert(t.adj[node], i, nb)
	t.out[id] = slices.Insert(t.out[id], i, edge)
}

// bumpEpoch advances the availability epoch, which makes every route tree
// stale, and drops every cached route.
func (t *Topology) bumpEpoch() {
	t.availEpoch++
	t.mu.Lock()
	clear(t.routeCache)
	t.mu.Unlock()
}

// AvailabilityEpoch reports the current epoch: it advances whenever the
// routable graph changes (node/link availability flips, link additions), so
// consumers can cache route-derived state and invalidate it cheaply.
func (t *Topology) AvailabilityEpoch() uint64 { return t.availEpoch }

// OnCapacityChange registers a callback invoked whenever a link's capacity
// trace is replaced mid-run (SetCapacity, SetDirectedCapacity, and
// ThrottleEgress). The network simulator uses it to reschedule trace-driven
// capacity events. Like all mutation, registration is single-goroutine.
func (t *Topology) OnCapacityChange(fn func(LinkID)) {
	t.capListeners = append(t.capListeners, fn)
}

func (t *Topology) notifyCapacityChange(id LinkID) {
	for _, fn := range t.capListeners {
		fn(id)
	}
}

// MustAddLink is AddLink for statically known topologies; it panics on error.
func (t *Topology) MustAddLink(a, b string, capacity *trace.Trace, latency time.Duration) {
	if err := t.AddLink(a, b, capacity, latency); err != nil {
		panic(err)
	}
}

// SetCapacity replaces the capacity trace on both directions of an existing
// link, used by experiments that throttle a link mid-run.
func (t *Topology) SetCapacity(a, b string, capacity *trace.Trace) error {
	l, ok := t.links[MakeLinkID(a, b)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPath, MakeLinkID(a, b))
	}
	l.capFwd = capacity
	l.capRev = capacity
	t.notifyCapacityChange(l.ID)
	return nil
}

// SetDirectedCapacity replaces the capacity trace of the from→to direction
// only — the equivalent of tc-shaping one interface's egress, as the paper's
// experiments do to nodes 2 and 3 (§6.2.3).
func (t *Topology) SetDirectedCapacity(from, to string, capacity *trace.Trace) error {
	l, ok := t.links[MakeLinkID(from, to)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPath, MakeLinkID(from, to))
	}
	if err := l.SetCapacityToward(from, to, capacity); err != nil {
		return err
	}
	t.notifyCapacityChange(l.ID)
	return nil
}

// ThrottleEgress applies the capacity trace to the outgoing direction of
// every link of the node, modelling tc on the node's interface.
func (t *Topology) ThrottleEgress(node string, capacity *trace.Trace) error {
	if !t.HasNode(node) {
		return fmt.Errorf("%w: %q", ErrUnknownNode, node)
	}
	for _, nb := range t.adj[node] {
		if err := t.SetDirectedCapacity(node, nb, capacity); err != nil {
			return err
		}
	}
	return nil
}

// SetNodeUp marks a node as up (true) or crashed (false). A down node keeps
// its links and placements in the data structures, but routing treats it —
// and every link incident to it — as absent.
func (t *Topology) SetNodeUp(name string, up bool) error {
	id, ok := t.nodeID[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if up == !t.nodeDown[id] {
		return nil // no transition: routes stay valid
	}
	t.nodeDown[id] = !up
	t.bumpEpoch()
	return nil
}

// NodeUp reports whether a node is currently up (unknown nodes are down).
func (t *Topology) NodeUp(name string) bool {
	id, ok := t.nodeID[name]
	return ok && !t.nodeDown[id]
}

// SetLinkUp marks a link as up (true) or down (false). A down link stays in
// the topology but routing skips it and its effective capacity is zero.
func (t *Topology) SetLinkUp(a, b string, up bool) error {
	id := MakeLinkID(a, b)
	l, ok := t.links[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLink, id)
	}
	if up == !l.down {
		return nil // no transition
	}
	l.down = !up
	t.bumpEpoch()
	return nil
}

// LinkUp reports whether the link itself is administratively up (it may still
// be unusable because an endpoint node is down; see LinkAvailable).
func (t *Topology) LinkUp(a, b string) bool {
	l, ok := t.links[MakeLinkID(a, b)]
	return ok && !l.down
}

// LinkAvailable reports whether traffic can cross the link right now: the
// link is up and both endpoint nodes are up.
func (t *Topology) LinkAvailable(id LinkID) bool {
	l, ok := t.links[id]
	return ok && !l.down && !t.nodeDown[l.a] && !t.nodeDown[l.b]
}

// DownNodes returns the currently-down node names, sorted.
func (t *Topology) DownNodes() []string {
	out := []string{}
	for id, down := range t.nodeDown {
		if down {
			out = append(out, t.nodeOrder[id])
		}
	}
	sort.Strings(out)
	return out
}

// Link returns the link between two nodes, if present.
func (t *Topology) Link(a, b string) (*Link, bool) {
	l, ok := t.links[MakeLinkID(a, b)]
	return l, ok
}

// Links returns all links sorted by ID. The slice is cached and shared
// between calls (invalidated by AddLink): callers must treat it as
// read-only.
func (t *Topology) Links() []*Link {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sortedLinks != nil {
		return t.sortedLinks
	}
	out := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.A != out[j].ID.A {
			return out[i].ID.A < out[j].ID.A
		}
		return out[i].ID.B < out[j].ID.B
	})
	t.sortedLinks = out
	return out
}

// Neighbors returns the 1-hop neighbors of a node, sorted.
func (t *Topology) Neighbors(name string) []string {
	out := make([]string, len(t.adj[name]))
	copy(out, t.adj[name])
	return out
}

// CapacityAt returns the capacity of the a→b direction in Mbps at offset at.
// An unavailable link (down, or with a down endpoint) has zero capacity.
func (t *Topology) CapacityAt(a, b string, at time.Duration) (float64, error) {
	l, ok := t.links[MakeLinkID(a, b)]
	if !ok {
		return 0, fmt.Errorf("mesh: no link %s", MakeLinkID(a, b))
	}
	if !t.LinkAvailable(l.ID) {
		return 0, nil
	}
	tr, err := l.CapacityToward(a, b)
	if err != nil {
		return 0, err
	}
	return tr.At(at), nil
}
