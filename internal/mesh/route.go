package mesh

import (
	"fmt"
	"time"
)

// The routing plane. BASS cannot steer the mesh's routing, only observe it
// (§4.2), so every layer above asks the topology for the same min-hop paths.
// They are answered from one shortest-path tree per source, built by a full
// BFS over the dense-id graph on the source's first query in an availability
// epoch; a destination costs a walk up the tree. See DESIGN.md "Routing
// plane" for why this yields exactly the paths of a per-pair early-exit BFS.

// endpoints resolves a route query's endpoints to node ids. Both must be
// known and up.
func (t *Topology) endpoints(src, dst string) (s, d int32, err error) {
	s, ok := t.nodeID[src]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	d, ok = t.nodeID[dst]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	if t.nodeDown[s] {
		return 0, 0, fmt.Errorf("%w: %q", ErrNodeDown, src)
	}
	if t.nodeDown[d] {
		return 0, 0, fmt.Errorf("%w: %q", ErrNodeDown, dst)
	}
	return s, d, nil
}

func errNoPath(src, dst string) error {
	return fmt.Errorf("%w: %s -> %s", ErrNoPath, src, dst)
}

// tree returns the via array of src's shortest-path tree for the current
// epoch. Nothing writes the array again until the epoch advances — mutation,
// which callers must not overlap with queries — so it is read without the
// lock.
func (t *Topology) tree(src int32) []int32 {
	t.mu.Lock()
	via := t.treeLocked(src)
	t.mu.Unlock()
	return via
}

// treeLocked is tree for callers holding t.mu. A stale tree is rebuilt in
// place: a full min-hop BFS from src that skips down nodes and down links and
// scans each node's edges in neighbour-name order, recording for every node
// the edge that first discovered it.
func (t *Topology) treeLocked(src int32) []int32 {
	tr := &t.trees[src]
	n := len(t.nodeOrder)
	if tr.epoch == t.availEpoch && len(tr.via) == n {
		return tr.via
	}
	if cap(tr.via) < n {
		tr.via = make([]int32, n)
	}
	via := tr.via[:n]
	for i := range via {
		via[i] = unreached
	}
	via[src] = treeRoot
	queue := append(t.bfsQueue[:0], src)
	for head := 0; head < len(queue); head++ {
		for _, e := range t.out[queue[head]] {
			if via[e.to] != unreached || t.nodeDown[e.to] || t.edges[e.edge].link.down {
				continue
			}
			via[e.to] = e.edge
			queue = append(queue, e.to)
		}
	}
	t.bfsQueue = queue
	tr.via, tr.epoch = via, t.availEpoch
	return via
}

// Route returns the minimum-hop path from src to dst (inclusive), breaking
// ties lexicographically — a deterministic stand-in for the mesh's own
// decentralised routing, which BASS treats as a black box it can only
// observe. A node routes to itself via the single-element path. Down nodes
// and down links are invisible, exactly as a converged mesh routing protocol
// would see them: routing to or through a dead element fails or detours.
//
// The path is read off src's shortest-path tree and memoised per (src, dst)
// until the availability epoch advances, so a repeated query costs the two
// name lookups, one cache probe and no allocation. The returned slice is
// shared with the cache: callers must treat it as read-only. Callers that
// only need the hops should use WalkRoute, which retains nothing.
func (t *Topology) Route(src, dst string) ([]string, error) {
	s, d, err := t.endpoints(src, dst)
	if err != nil {
		return nil, err
	}
	if s == d {
		return t.nodeOrder[s : s+1 : s+1], nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := routeKey{src: s, dst: d}
	if path, ok := t.routeCache[key]; ok {
		return path, nil
	}
	via := t.treeLocked(s)
	if via[d] == unreached {
		return nil, errNoPath(src, dst)
	}
	n := 1
	for v := d; v != s; v = t.edges[via[v]].from {
		n++
	}
	path := make([]string, n)
	path[0] = t.nodeOrder[s]
	for v, i := d, n-1; i > 0; v, i = t.edges[via[v]].from, i-1 {
		path[i] = t.nodeOrder[v]
	}
	t.routeCache[key] = path
	return path, nil
}

// WalkRoute calls visit for every hop of the route from src to dst, in path
// order, with the link the hop crosses. It fails exactly when Route does, and
// then before the first visit; a node's route to itself has no hops. Unlike
// Route it retains nothing per pair and does not allocate (paths longer than
// 64 hops excepted), which is what the simulator's flow set-up and the
// monitor's path oracle want. visit must not mutate the topology.
func (t *Topology) WalkRoute(src, dst string, visit func(from, to string, l *Link)) error {
	s, d, err := t.endpoints(src, dst)
	if err != nil || s == d {
		return err
	}
	via := t.tree(s)
	if via[d] == unreached {
		return errNoPath(src, dst)
	}
	// The tree is walked from dst up to src; replay the edges backwards.
	var buf [64]int32
	hops := buf[:0]
	for v := d; v != s; v = t.edges[via[v]].from {
		hops = append(hops, via[v])
	}
	for i := len(hops) - 1; i >= 0; i-- {
		e := &t.edges[hops[i]]
		visit(t.nodeOrder[e.from], t.nodeOrder[e.to], e.link)
	}
	return nil
}

// PathCapacityAt returns the bottleneck capacity in Mbps between two nodes at
// offset at, following the routed path — exactly how the BASS net-monitor
// estimates node-pair capacity (§4.2). Co-located endpoints report +Inf via
// ok=false semantics: the second return is false when src == dst (no network
// involved).
func (t *Topology) PathCapacityAt(src, dst string, at time.Duration) (mbps float64, networked bool, err error) {
	err = t.WalkRoute(src, dst, func(from, _ string, l *Link) {
		c := l.CapacityDir(from == l.ID.A).At(at)
		if !networked || c < mbps {
			mbps = c
		}
		networked = true
	})
	return mbps, networked, err
}

// PathLatency sums one-way link latencies along the routed path.
func (t *Topology) PathLatency(src, dst string) (time.Duration, error) {
	var total time.Duration
	err := t.WalkRoute(src, dst, func(_, _ string, l *Link) { total += l.LatencyOneWay })
	return total, err
}
