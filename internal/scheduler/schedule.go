package scheduler

import (
	"errors"
	"fmt"
	"strings"

	"bass/internal/dag"
	"bass/internal/obs"
)

// errInfeasible is returned when no node can host a component.
var errInfeasible = errors.New("scheduler: no feasible placement")

// NodeInfo is the scheduler's view of one node.
type NodeInfo struct {
	Name string
	// FreeCPU and FreeMemoryMB are the schedulable remainders.
	FreeCPU      float64
	FreeMemoryMB float64
	// TotalCPU and TotalMemoryMB are node capacities (used by the k3s-like
	// baseline's least-allocated scoring).
	TotalCPU      float64
	TotalMemoryMB float64
	// LinkCapacityMbps is the combined capacity across all the node's links —
	// the bandwidth component of BASS's node ranking (§3.2.1).
	LinkCapacityMbps float64
}

// Assignment maps component name → node name.
type Assignment map[string]string

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// nodeRank is one node's ranking breakdown: the three normalised score terms
// and their sum, in scoreNodes order.
type nodeRank struct {
	Node NodeInfo
	// CPU, Mem, and Link are the node's free CPU, free memory, and combined
	// link capacity, each normalised by the maximum across nodes.
	CPU, Mem, Link float64
	Score          float64
}

// scoreNodes computes each node's ranking terms — free CPU, free memory, and
// combined link capacity, each normalised by the maximum across nodes and
// summed — and returns them in packing order: higher scores first, ties by
// name for determinism. The result is a fresh slice the caller owns.
func scoreNodes(nodes []NodeInfo) []nodeRank {
	s := choicePool.Get().(*choiceScratch)
	defer choicePool.Put(s)
	out := make([]nodeRank, 0, len(nodes))
	for _, i := range s.rankNodes(nodes) {
		out = append(out, s.ranks[i])
	}
	return out
}

// rankNodes scores nodes into s.ranks, in node order, and returns s.order:
// the indices of nodes in packing order. The order is a stable sort with the
// comparator scoreNodes has always used — higher score first, then name — so
// pairs that a NaN score leaves unordered keep node order.
func (s *choiceScratch) rankNodes(nodes []NodeInfo) []int32 {
	var maxCPU, maxMem, maxLink float64
	for _, n := range nodes {
		maxCPU = maxf(maxCPU, n.FreeCPU)
		maxMem = maxf(maxMem, n.FreeMemoryMB)
		maxLink = maxf(maxLink, n.LinkCapacityMbps)
	}
	s.ranks = s.ranks[:0]
	for _, n := range nodes {
		r := nodeRank{Node: n}
		if maxCPU > 0 {
			r.CPU = n.FreeCPU / maxCPU
		}
		if maxMem > 0 {
			r.Mem = n.FreeMemoryMB / maxMem
		}
		if maxLink > 0 {
			r.Link = n.LinkCapacityMbps / maxLink
		}
		r.Score = r.CPU + r.Mem + r.Link
		s.ranks = append(s.ranks, r)
	}
	ranks := s.ranks
	s.order = sortedOrder(s.order, len(ranks), func(a, b int32) int {
		ra, rb := &ranks[a], &ranks[b]
		if ra.Score != rb.Score {
			return largerFirst(ra.Score, rb.Score)
		}
		return strings.Compare(ra.Node.Name, rb.Node.Name)
	})
	return s.order
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Bass is the BASS scheduler: it orders components with the configured
// heuristic and packs them onto ranked nodes, keeping CPU and memory as hard
// constraints (§3.2.1). A zero value is not usable; construct with NewBass.
type Bass struct {
	heuristic Heuristic
	packFrac  float64
}

// BassOption configures the BASS scheduler.
type BassOption func(*Bass)

// WithPackLimit caps initial packing at the given fraction of each node's
// free capacity (0 < frac ≤ 1). Leaving slack on every node keeps migration
// targets available when links degrade later; production schedulers keep
// similar burst headroom. The default (1.0) packs nodes completely.
func WithPackLimit(frac float64) BassOption {
	return func(b *Bass) {
		if frac > 0 && frac <= 1 {
			b.packFrac = frac
		}
	}
}

// NewBass returns a BASS scheduler using the given ordering heuristic.
func NewBass(h Heuristic, opts ...BassOption) *Bass {
	b := &Bass{heuristic: h, packFrac: 1}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Name identifies the scheduler in experiment output.
func (b *Bass) Name() string { return "bass-" + b.heuristic.String() }

// Schedule assigns every component of g to a node. Packing walks the ranked
// node list with a moving cursor: consecutive components in heuristic order
// stay on the current node while its capacity permits, then the cursor
// advances — so heuristic-adjacent (bandwidth-heavy) components co-locate.
// For the longest-path heuristic, each extracted chain restarts the cursor
// at the best-ranked node with remaining capacity, keeping whole chains
// together when possible. One scoreboard per unpinned component — the
// ranked nodes at the instant it was placed — goes through rec; a nil rec
// skips all scoreboard bookkeeping.
func (b *Bass) Schedule(g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	var chains [][]string
	switch b.heuristic {
	case HeuristicLongestPath:
		cs, err := LongestPathChains(g)
		if err != nil {
			return nil, err
		}
		chains = cs
	default:
		order, err := order(g, b.heuristic)
		if err != nil {
			return nil, err
		}
		chains = [][]string{order}
	}

	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", errInfeasible)
	}
	s := choicePool.Get().(*choiceScratch)
	defer choicePool.Put(s)
	free := s.free[:0]
	for _, i := range s.rankNodes(nodes) {
		n := nodes[i]
		if b.packFrac < 1 {
			n.FreeCPU *= b.packFrac
			n.FreeMemoryMB *= b.packFrac
		}
		free = append(free, n)
	}
	s.free = free

	assignment, err := placePinned(g, free)
	if err != nil {
		return nil, err
	}
	nodeIdx := func(nodeName string) int {
		for i := range free {
			if free[i].Name == nodeName {
				return i
			}
		}
		return -1
	}
	for _, chain := range chains {
		cursor := 0
		started := false
		for _, name := range chain {
			if pinNode, pinned := assignment[name]; pinned {
				// A pinned component anchors the chain: its successors try
				// to co-locate with it (the camera on a pole pulls the
				// sampler to its node).
				if idx := nodeIdx(pinNode); idx >= 0 {
					cursor = idx
					started = true
				}
				continue
			}
			comp, err := g.Component(name)
			if err != nil {
				return nil, err
			}
			if !started {
				started = true
				// Chain start: best-ranked node that can host it.
				cursor = firstFit(free, 0, comp)
			} else if !fits(free[cursor], comp) {
				cursor = firstFit(free, cursor+1, comp)
				if cursor < 0 {
					// Wrap: earlier nodes may still have room.
					cursor = firstFit(free, 0, comp)
				}
			}
			if cursor < 0 {
				return nil, fmt.Errorf("%w: component %q (cpu=%.2f mem=%.0fMB)",
					errInfeasible, name, comp.CPU, comp.MemoryMB)
			}
			if rec != nil {
				rec.RecordBoard(name, s.placementBoard(comp, free, free[cursor].Name))
			}
			free[cursor].FreeCPU -= comp.CPU
			free[cursor].FreeMemoryMB -= comp.MemoryMB
			assignment[name] = free[cursor].Name
		}
	}
	return assignment, nil
}

// placementBoard snapshots the scoreboard for one packing decision, in the
// pooled board: every node in the current free view with its rank score and
// why it lost (capacity, or outranked by the cursor's pick).
func (s *choiceScratch) placementBoard(comp *dag.Component, free []NodeInfo, chosen string) []obs.BoardRow {
	board := s.board[:0]
	for _, i := range s.rankNodes(free) {
		r := &s.ranks[i]
		row := obs.BoardRow{Node: r.Node.Name, Value: r.Score, Reason: rejectOutscored}
		switch {
		case r.Node.Name == chosen:
			row.Reason = rejectNone
		case !fits(r.Node, comp):
			row.Reason = rejectNoCapacity
		}
		board = append(board, row)
	}
	s.board = board
	return board
}

func fits(n NodeInfo, c *dag.Component) bool {
	const eps = 1e-9
	return n.FreeCPU+eps >= c.CPU && n.FreeMemoryMB+eps >= c.MemoryMB
}

// placePinned assigns every pinned component to its pinned node, deducting
// capacity from the free view. It returns the partial assignment.
func placePinned(g *dag.Graph, free []NodeInfo) (Assignment, error) {
	assignment := make(Assignment)
	for _, name := range g.Components() {
		comp, err := g.Component(name)
		if err != nil {
			return nil, err
		}
		pin := comp.PinnedTo()
		if pin == "" {
			continue
		}
		idx := -1
		for i := range free {
			if free[i].Name == pin {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Zero-resource components may pin to hosts outside the
			// schedulable set (external endpoints such as load generators).
			if comp.CPU == 0 && comp.MemoryMB == 0 {
				assignment[name] = pin
				continue
			}
			return nil, fmt.Errorf("%w: component %q pinned to unknown node %q", errInfeasible, name, pin)
		}
		if !fits(free[idx], comp) {
			return nil, fmt.Errorf("%w: pinned component %q does not fit on %q", errInfeasible, name, pin)
		}
		free[idx].FreeCPU -= comp.CPU
		free[idx].FreeMemoryMB -= comp.MemoryMB
		assignment[name] = pin
	}
	return assignment, nil
}

func firstFit(nodes []NodeInfo, from int, c *dag.Component) int {
	for i := from; i < len(nodes); i++ {
		if fits(nodes[i], c) {
			return i
		}
	}
	return -1
}

// K3s approximates the default k3s/kube-scheduler behaviour the paper
// compares against: components are placed one at a time in spec order;
// feasible nodes are scored with LeastRequestedPriority plus
// BalancedResourceAllocation, both bandwidth-oblivious, and the best-scoring
// node wins (ties by name). The result spreads load across nodes without
// regard to inter-component traffic.
type K3s struct{}

// NewK3s returns the baseline scheduler.
func NewK3s() *K3s { return &K3s{} }

// Name identifies the scheduler in experiment output.
func (*K3s) Name() string { return "k3s-default" }

// Schedule assigns every component of g to a node, one component at a time,
// recording one scoreboard per unpinned component — every node's k3s score
// at placement time — through rec. A nil rec skips all scoreboard
// bookkeeping. Like Bass.Schedule, it packs and records in pooled scratch.
func (*K3s) Schedule(g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := choicePool.Get().(*choiceScratch)
	defer choicePool.Put(s)
	s.free = append(s.free[:0], nodes...)
	free := s.free

	assignment, err := placePinned(g, free)
	if err != nil {
		return nil, err
	}
	for _, name := range g.Components() {
		if _, pinned := assignment[name]; pinned {
			continue
		}
		comp, err := g.Component(name)
		if err != nil {
			return nil, err
		}
		best := -1
		bestScore := -1.0
		for i, n := range free {
			if !fits(n, comp) {
				continue
			}
			score := k3sScore(n, comp)
			if score > bestScore || (score == bestScore && best >= 0 && n.Name < free[best].Name) {
				best, bestScore = i, score
			}
		}
		if rec != nil {
			// A node that fits means some node won: best < 0 only when
			// every row is a capacity rejection.
			board := s.board[:0]
			for _, n := range free {
				row := obs.BoardRow{Node: n.Name, Reason: rejectNoCapacity}
				if fits(n, comp) {
					row.Value, row.Reason = k3sScore(n, comp), rejectOutscored
					if n.Name == free[best].Name {
						row.Reason = rejectNone
					}
				}
				board = append(board, row)
			}
			s.board = board
			rec.RecordBoard(name, board)
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: component %q (cpu=%.2f mem=%.0fMB)",
				errInfeasible, name, comp.CPU, comp.MemoryMB)
		}
		free[best].FreeCPU -= comp.CPU
		free[best].FreeMemoryMB -= comp.MemoryMB
		assignment[name] = free[best].Name
	}
	return assignment, nil
}

// k3sScore combines LeastRequested and BalancedResourceAllocation, each
// worth up to 100 points, mirroring the default scheduler's scoring plugins.
func k3sScore(n NodeInfo, c *dag.Component) float64 {
	cpuAfter := n.FreeCPU - c.CPU
	memAfter := n.FreeMemoryMB - c.MemoryMB
	var leastReq float64
	if n.TotalCPU > 0 {
		leastReq += 50 * cpuAfter / n.TotalCPU
	}
	if n.TotalMemoryMB > 0 {
		leastReq += 50 * memAfter / n.TotalMemoryMB
	}
	var cpuFrac, memFrac float64
	if n.TotalCPU > 0 {
		cpuFrac = (n.TotalCPU - cpuAfter) / n.TotalCPU
	}
	if n.TotalMemoryMB > 0 {
		memFrac = (n.TotalMemoryMB - memAfter) / n.TotalMemoryMB
	}
	diff := cpuFrac - memFrac
	if diff < 0 {
		diff = -diff
	}
	balanced := 100 * (1 - diff)
	return leastReq + balanced
}

// Policy is the interface all placement policies satisfy. Schedule narrates
// its per-component placement decisions through rec; nil means silent.
type Policy interface {
	Name() string
	Schedule(g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error)
}

// Compile-time interface checks.
var (
	_ Policy = (*Bass)(nil)
	_ Policy = (*K3s)(nil)
)
