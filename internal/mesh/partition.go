package mesh

import (
	"fmt"
	"math/rand"
	"sort"
)

// Partition is a deterministic k-way division of a topology's nodes into
// contiguous regions, the unit of parallelism for the sharded network
// simulator. Regions are grown by balanced multi-source BFS from seed-chosen
// centers, so equal (topology, k, seed) triples always produce identical
// region assignments — the property the sharded driver's byte-identity
// contract rests on.
//
// Links whose endpoints fall in different regions are gateway links: the
// sharded allocator treats the far endpoint of a flow crossing one as a
// virtual source/sink of the neighbouring region and reconciles the shared
// allocation in its fixed-point round loop.
type Partition struct {
	k        int
	regionOf map[string]int
	sizes    []int
	gateways []LinkID
}

// PartitionTopology divides the topology's nodes into k regions, keyed by
// seed. The first center is drawn from the seeded source; subsequent centers
// are chosen farthest-first (maximum hop distance from every chosen center,
// lexicographic tie-break), then regions grow by balanced multi-source BFS:
// regions claim frontier nodes in rotation, smallest name first, so region
// sizes stay within one node of each other on connected graphs. Nodes
// unreachable from any center (disconnected components) are appended to the
// smallest region in name order.
//
// k must be between 1 and the node count.
func PartitionTopology(t *Topology, k int, seed int64) (*Partition, error) {
	names := t.Nodes()
	sort.Strings(names)
	if k < 1 || k > len(names) {
		return nil, fmt.Errorf("mesh: partition count out of range: %d not in [1, %d]", k, len(names))
	}
	p := &Partition{
		k:        k,
		regionOf: make(map[string]int, len(names)),
		sizes:    make([]int, k),
	}
	centers := chooseCenters(t, names, k, seed)
	// Balanced multi-source BFS: each region holds a frontier queue; regions
	// take turns claiming one unclaimed node per rotation. Frontier
	// neighbours enqueue in sorted order (adjacency lists are sorted), so
	// the whole growth is deterministic.
	frontiers := make([][]string, k)
	for r, c := range centers {
		p.assign(c, r)
		frontiers[r] = append(frontiers[r], c)
	}
	for claimed := k; claimed < len(names); {
		grew := false
		for r := 0; r < k; r++ {
			// Pop until this region claims one node or exhausts its frontier.
			for len(frontiers[r]) > 0 {
				cur := frontiers[r][0]
				next := ""
				for _, nb := range t.adj[cur] {
					if _, seen := p.regionOf[nb]; !seen {
						next = nb
						break
					}
				}
				if next == "" {
					frontiers[r] = frontiers[r][1:]
					continue
				}
				p.assign(next, r)
				frontiers[r] = append(frontiers[r], next)
				claimed++
				grew = true
				break
			}
		}
		if !grew {
			break // every frontier exhausted: the rest is disconnected
		}
	}
	// Disconnected leftovers: smallest region first, name order.
	for _, n := range names {
		if _, ok := p.regionOf[n]; ok {
			continue
		}
		r := 0
		for i := 1; i < k; i++ {
			if p.sizes[i] < p.sizes[r] {
				r = i
			}
		}
		p.assign(n, r)
	}
	for _, l := range t.Links() {
		if p.regionOf[l.ID.A] != p.regionOf[l.ID.B] {
			p.gateways = append(p.gateways, l.ID)
		}
	}
	return p, nil
}

// chooseCenters picks k region centers: the first from the seeded source,
// the rest farthest-first by hop distance (ties broken lexicographically by
// walking names in sorted order with a strict improvement test).
func chooseCenters(t *Topology, names []string, k int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	centers := []string{names[rng.Intn(len(names))]}
	dist := map[string]int{}
	for len(centers) < k {
		bfsDistances(t, centers[len(centers)-1], dist)
		best, bestD := "", -1
		for _, n := range names {
			if _, taken := dist[n]; !taken {
				continue // unreachable: left for the leftover pass
			}
			if d := dist[n]; d > bestD {
				best, bestD = n, d
			}
		}
		if best == "" || bestD == 0 {
			// Fewer reachable nodes than regions: fall back to the next
			// unchosen name so every region still gets a distinct center.
			for _, n := range names {
				if !contains(centers, n) {
					best = n
					break
				}
			}
		}
		centers = append(centers, best)
	}
	return centers
}

// bfsDistances folds src's hop distances into dist as min(existing, new) —
// accumulating min-distance-to-any-center across calls. Entries start at the
// first call; unreachable nodes never appear.
func bfsDistances(t *Topology, src string, dist map[string]int) {
	type qe struct {
		n string
		d int
	}
	queue := []qe{{src, 0}}
	seen := map[string]bool{src: true}
	if d, ok := dist[src]; !ok || d > 0 {
		dist[src] = 0
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range t.adj[cur.n] {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			if d, ok := dist[nb]; !ok || cur.d+1 < d {
				dist[nb] = cur.d + 1
			}
			queue = append(queue, qe{nb, cur.d + 1})
		}
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (p *Partition) assign(node string, region int) {
	p.regionOf[node] = region
	p.sizes[region]++
}

// K reports the number of regions.
func (p *Partition) K() int { return p.k }

// Region reports the region index of a node (-1 for unknown nodes).
func (p *Partition) Region(node string) int {
	r, ok := p.regionOf[node]
	if !ok {
		return -1
	}
	return r
}

// Sizes reports the node count of each region.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.sizes))
	copy(out, p.sizes)
	return out
}

// Gateways returns the cross-region links, sorted by ID — the boundary the
// sharded allocator reconciles across.
func (p *Partition) Gateways() []LinkID {
	out := make([]LinkID, len(p.gateways))
	copy(out, p.gateways)
	return out
}
