// Package scheduler implements the BASS scheduling heuristics (§3 of the
// paper): component ordering by modified breadth-first traversal (Algorithm
// 1) and by bandwidth-weighted longest paths (Algorithm 2), node ranking and
// greedy packing (§3.2.1), migration candidate selection (Algorithm 3), and
// a k3s-default-like baseline scheduler for comparison.
//
// Pseudocode fidelity notes. The paper's Algorithm 1 sorts the queue by a
// cumulative path weight, but both its prose ("we sort the yet unexplored
// components by the edge bandwidth to the currently explored component") and
// its worked example (Fig 6, ordering 1,3,2,4,5,7,6) correspond to a
// best-first traversal prioritised by the bandwidth of the discovering edge;
// we implement that, and TestFig6Ordering pins the published example.
// Algorithm 3's pseudocode returns the pre-deduplication list; we return the
// deduplicated one, matching the prose ("by migrating only one component of
// the dependency pair, we avoid cascading effects") and Table 1.
package scheduler

import (
	"fmt"
	"math"
	"sort"

	"bass/internal/dag"
)

// weightEps is the relative tolerance under which two path-weight sums count
// as equal. Path weights are sums of float64 BandwidthMbps values, so equally
// heavy paths can differ in the last ULPs depending on the order edges were
// accumulated; treating that noise as a strict ordering made chain extraction
// platform- and insertion-order-sensitive.
const weightEps = 1e-9

// Heuristic selects a component-ordering strategy.
type Heuristic int

// Supported ordering heuristics. The developer picks the one suited to the
// application's data flow: BFS for high fan-out graphs, longest-path for
// deep pipelines (§3.2.1) — or heuristicAuto, which inspects the graph and
// picks per application (§8 lists combining the heuristics as future work).
const (
	HeuristicBFS Heuristic = iota + 1
	HeuristicLongestPath
	heuristicAuto
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case HeuristicBFS:
		return "bfs"
	case HeuristicLongestPath:
		return "longest-path"
	case heuristicAuto:
		return "auto"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// chooseHeuristic implements heuristicAuto's decision (§8): compare the
// bandwidth concentrated at fan-out points (the sum of out-edge weights of
// vertices with two or more consumers) against the bandwidth of the single
// heaviest path. Fan-out-dominated graphs (an SFU, a publisher feeding many
// consumers) get BFS, which co-locates consumers with their producer;
// chain-dominated graphs (frontend→service→cache→database pipelines) get
// longest-path.
func chooseHeuristic(g *dag.Graph) (Heuristic, error) {
	chains, err := LongestPathChains(g)
	if err != nil {
		return 0, err
	}
	var chainWeight float64
	if len(chains) > 0 {
		chain := chains[0]
		for i := 0; i+1 < len(chain); i++ {
			chainWeight += g.Weight(chain[i], chain[i+1])
		}
	}
	var fanWeight float64
	for _, name := range g.Components() {
		out := g.Out(name)
		if len(out) < 2 {
			continue
		}
		for _, e := range out {
			fanWeight += e.BandwidthMbps
		}
	}
	if fanWeight > chainWeight {
		return HeuristicBFS, nil
	}
	return HeuristicLongestPath, nil
}

// order returns the component placement order under the given heuristic.
func order(g *dag.Graph, h Heuristic) ([]string, error) {
	if h == heuristicAuto {
		chosen, err := chooseHeuristic(g)
		if err != nil {
			return nil, err
		}
		h = chosen
	}
	switch h {
	case HeuristicBFS:
		return BFSOrder(g)
	case HeuristicLongestPath:
		chains, err := LongestPathChains(g)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, chain := range chains {
			out = append(out, chain...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("scheduler: unknown heuristic %v", h)
	}
}

// BFSOrder implements Algorithm 1: starting from the topologically first
// component, explore edges in decreasing bandwidth order, keeping the
// frontier sorted by the bandwidth of each component's discovering edge.
// Disconnected remainders are traversed from the next unvisited component in
// topological order, so every component appears exactly once.
func BFSOrder(g *dag.Graph) ([]string, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	topoPos := make(map[string]int, len(topo))
	for i, name := range topo {
		topoPos[name] = i
	}

	visited := make(map[string]bool, len(topo))
	order := make([]string, 0, len(topo))

	type entry struct {
		name   string
		weight float64 // bandwidth of the edge that discovered the component
	}
	var queue []entry

	push := func(e entry) {
		visited[e.name] = true
		queue = append(queue, e)
		// Keep the frontier sorted: heaviest discovering edge first, ties by
		// topological position for determinism.
		sort.SliceStable(queue, func(i, j int) bool {
			if queue[i].weight != queue[j].weight {
				return queue[i].weight > queue[j].weight
			}
			return topoPos[queue[i].name] < topoPos[queue[j].name]
		})
	}

	for _, source := range topo {
		if visited[source] {
			continue
		}
		push(entry{name: source, weight: 0})
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur.name)
			deps := g.Out(cur.name)
			// Explore edges in decreasing bandwidth order.
			sort.SliceStable(deps, func(i, j int) bool {
				if deps[i].BandwidthMbps != deps[j].BandwidthMbps {
					return deps[i].BandwidthMbps > deps[j].BandwidthMbps
				}
				return topoPos[deps[i].To] < topoPos[deps[j].To]
			})
			for _, e := range deps {
				if !visited[e.To] {
					push(entry{name: e.To, weight: e.BandwidthMbps})
				}
			}
		}
	}
	return order, nil
}

// LongestPathChains implements Algorithm 2: repeatedly extract the most
// bandwidth-intensive (maximum edge-weight sum) path among unvisited
// components, starting from the earliest unvisited component in topological
// order. Each returned chain is a root-to-leaf path whose components should
// be co-located when possible.
func LongestPathChains(g *dag.Graph) ([][]string, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	topoPos := make(map[string]int, len(topo))
	for i, name := range topo {
		topoPos[name] = i
	}

	visited := make(map[string]bool, len(topo))
	var chains [][]string

	for processed := 0; processed < len(topo); {
		// Next start: earliest unvisited component in topological order.
		start := ""
		for _, name := range topo {
			if !visited[name] {
				start = name
				break
			}
		}
		chain := longestPathFrom(g, topo, topoPos, start, visited)
		for _, name := range chain {
			visited[name] = true
		}
		processed += len(chain)
		chains = append(chains, chain)
	}
	return chains, nil
}

// longestPathFrom computes the maximum-weight path from start over unvisited
// components via dynamic programming in topological order.
func longestPathFrom(g *dag.Graph, topo []string, topoPos map[string]int, start string, visited map[string]bool) []string {
	const unreachable = -1.0
	dist := make(map[string]float64, len(topo))
	parent := make(map[string]string, len(topo))
	for _, name := range topo {
		dist[name] = unreachable
	}
	dist[start] = 0

	for _, name := range topo {
		if visited[name] || dist[name] == unreachable {
			continue
		}
		for _, e := range g.Out(name) {
			if visited[e.To] {
				continue
			}
			cand := dist[name] + e.BandwidthMbps
			// Distances are sums of BandwidthMbps, so two equally-heavy paths
			// can differ in the last few ULPs depending on summation order.
			// Compare with a relative epsilon: clearly heavier wins, and
			// anything inside the band is a tie resolved by the documented
			// earlier-topo-parent rule — including when the incumbent has no
			// recorded parent yet. Exact float equality here made "ties"
			// platform- and order-sensitive and skipped parentless incumbents.
			delta := cand - dist[e.To]
			scale := math.Abs(cand)
			if a := math.Abs(dist[e.To]); a > scale {
				scale = a
			}
			if scale < 1 {
				scale = 1
			}
			better := delta > weightEps*scale
			if !better && delta >= -weightEps*scale {
				// Tie: earlier-topo parent wins.
				if p, ok := parent[e.To]; !ok || topoPos[name] < topoPos[p] {
					better = true
				}
			}
			if better {
				dist[e.To] = cand
				parent[e.To] = name
			}
		}
	}

	// Backtrack from the farthest reachable leaf.
	best := start
	for _, name := range topo {
		if visited[name] || dist[name] == unreachable {
			continue
		}
		if dist[name] > dist[best] {
			best = name
		}
	}
	var rev []string
	for cur := best; ; {
		rev = append(rev, cur)
		p, ok := parent[cur]
		if !ok || cur == start {
			break
		}
		cur = p
	}
	chain := make([]string, len(rev))
	for i, name := range rev {
		chain[len(rev)-1-i] = name
	}
	return chain
}

// LongestPathOrder flattens LongestPathChains into a single placement order.
func LongestPathOrder(g *dag.Graph) ([]string, error) {
	chains, err := LongestPathChains(g)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, chain := range chains {
		out = append(out, chain...)
	}
	return out, nil
}
