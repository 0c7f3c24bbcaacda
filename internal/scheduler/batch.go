// Batch placement: schedule a whole application DAG as one joint decision
// instead of one component at a time. The greedy heuristics (§3.2.1) place
// components in a fixed order and never revisit earlier choices; the batch
// mode seeds from that greedy assignment and runs a budgeted, anytime local
// search over joint assignments — relocate and swap moves, a k-best frontier,
// deterministic seeded tie-breaks — scored with a DCSim-style combined
// compute+network objective over the path oracle. The move budget is the
// scale lever: zero budget returns the greedy seed untouched (byte-identical
// journals), and any positive budget bounds the number of joint candidates
// evaluated, so solve time grows linearly and the search can stop anytime
// with the best placement found so far.
//
// The search runs over dense ids: components are indexed in the graph's
// order and hosts are the node list's indices followed by any external host
// a pinned component sits on, so a joint assignment is a []int32. Names
// appear only in recorder rows and in the returned Assignment. A move
// changes at most two hosts, and it is scored on those two alone against a
// per-expansion pass over the rest. Path queries go through a per-destination
// memo that calls the oracle at the same points, in the same first-call
// order, as a name-keyed memo would.
package scheduler

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"bass/internal/dag"
	"bass/internal/obs"
)

// batchEps is the relative margin a candidate joint score must clear to count
// as an improvement; anything closer is a tie and the incumbent (ultimately
// the greedy seed) wins, keeping the search stable under FP noise.
const batchEps = 1e-9

// Fixed parameters of the joint search.
const (
	// batchComputeWeight weighs the compute-balance term against the network
	// term in the joint objective (DCSim-style combined scoring).
	batchComputeWeight = 0.25
	// batchNeighborhood caps the bandwidth-aware relocation targets
	// considered per component per scan (Selimi-style: nodes ranked by the
	// bandwidth they can satisfy toward the component's placed DAG
	// neighbors); two extra seeded-random targets are added for
	// diversification.
	batchNeighborhood = 8
)

// BatchConfig tunes the batch placement search.
type BatchConfig struct {
	// MoveBudget caps how many joint candidate assignments the local search
	// may evaluate. Zero or negative disables the search entirely: Schedule
	// returns the greedy seed's assignment (and name, and scoreboards)
	// unchanged, byte-identical to running the seed policy alone.
	MoveBudget int
	// K is the k-best frontier width: how many distinct joint assignments the
	// search keeps and expands. Defaults to 4.
	K int
	// Seed drives the deterministic RNG used to diversify relocation
	// neighborhoods. Equal seeds yield byte-identical searches.
	Seed int64
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.K <= 0 {
		c.K = 4
	}
	return c
}

// Batch wraps a seed policy with the joint local search. Construct with
// NewBatch; the zero value is not usable.
type Batch struct {
	seed      Policy
	cfg       BatchConfig
	pathAvail PathQuery
}

// NewBatch returns a batch scheduler seeding from the given policy (nil
// defaults to BASS longest-path).
func NewBatch(seed Policy, cfg BatchConfig) *Batch {
	if seed == nil {
		seed = NewBass(HeuristicLongestPath)
	}
	return &Batch{seed: seed, cfg: cfg.withDefaults()}
}

// SetPathQuery attaches the path oracle the joint objective scores remote
// edges against. A nil query scores every remote edge at its full demand,
// making the network term constant — the search then only balances compute.
func (b *Batch) SetPathQuery(q PathQuery) { b.pathAvail = q }

// Config reports the effective (defaulted) search configuration.
func (b *Batch) Config() BatchConfig { return b.cfg }

// Name identifies the scheduler in experiment output. With a zero move
// budget batch IS the seed policy — including the name, so journal records
// that embed the policy name stay byte-identical to a greedy run.
func (b *Batch) Name() string {
	if b.cfg.MoveBudget <= 0 {
		return b.seed.Name()
	}
	return "batch-" + b.seed.Name()
}

// Schedule assigns every component of g to a node: greedy seed, then the
// budgeted joint search. It narrates through rec (nil = silent): the seed
// policy's per-component scoreboards first (exactly as a greedy run records
// them), then one scoreboard per relocation scan (under the component's
// name) and swap probe (under "a<->b"), then a final verdict board for
// "joint" whose pseudo-candidates "greedy" and "batch" carry the two joint
// scores — so a trace shows why batch beat (or matched) greedy. A seed
// assignment that leaves a component unplaced is returned as it is,
// unsearched.
func (b *Batch) Schedule(g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error) {
	seeded, err := b.seed.Schedule(g, nodes, rec)
	if err != nil || b.cfg.MoveBudget <= 0 {
		return seeded, err
	}
	s := batchPool.Get().(*batchSearch)
	defer s.release()
	if !s.reset(g, nodes, seeded, b.cfg, b.pathAvail, rec) {
		return seeded, nil
	}
	best, improved := s.run()
	if !improved {
		return seeded, nil
	}
	out := seeded.Clone()
	for c, h := range best {
		out[s.comps[c]] = s.hostName[h]
	}
	return out, nil
}

// batchEdge is one DAG edge between component indices, in the deterministic
// (from name, to name) evaluation order.
type batchEdge struct {
	from, to int32
	w        float64
}

// batchDep is one neighbor of a component, in sorted-name order. Keeping the
// dependency list as a slice (not the Neighbors map) pins the floating-point
// accumulation order, so scores are bit-identical across runs.
type batchDep struct {
	comp int32
	w    float64
}

// batchState is one joint assignment on the frontier (host id per component
// index) with its score breakdown.
type batchState struct {
	assign  []int32
	score   float64
	netFrac float64 // satisfiable fraction of total DAG edge bandwidth
	balance float64 // 1 − max node resource utilization after placement
}

// batchTarget is one ranked relocation target.
type batchTarget struct {
	host int32
	sat  float64
}

// batchSearch is one search: the dense views of the DAG and hosts, the
// budget, the frontier, the path memo and the per-move scratch. Searches
// come from batchPool and keep their buffers across uses, so a warm search
// allocates little beyond its frontier and seen set.
type batchSearch struct {
	cfg       BatchConfig
	pathAvail PathQuery
	rec       Recorder
	rng       *rand.Rand

	// Components, by index in g.Components() order.
	comps            []string
	compCPU, compMem []float64
	pinned           []bool
	movable          []int32 // unpinned, heaviest total edge bandwidth first
	edges            []batchEdge
	totalW           float64
	deps             [][]batchDep
	totalBW          []float64
	compID           map[string]int32

	// Hosts: ids 0..len(nodes)-1 are node indices, then external hosts. A
	// name listed twice in nodes resolves to its last index, as a name map
	// would. keyRank orders hosts by name+";", the order a "comp=host;" key
	// string sorts in; nameRank orders them by plain name.
	nodes             []NodeInfo
	nodeHost          []int32 // node index → its name's host id
	hostName          []string
	hostID            map[string]int32
	keyRank, nameRank []int32
	rankOrder         []int32

	budget   int
	seed     []int32 // the greedy seed's assignment
	frontier []batchState
	base     []batchState // the frontier snapshot one round expands
	seen     map[string]struct{}
	keyBuf   []byte
	arena    []int32 // backing store of frontier assignments
	memo     pathMemo

	// Per-expansion view of the expanded state: node usage, utilization and
	// the (up to) three most-utilized nodes.
	usedCPU, usedMem, util []float64
	top                    []int32

	next    []int32 // the candidate being scored
	ranked  []batchTarget
	targets []int32
	rows    []obs.BoardRow
}

var batchPool = sync.Pool{New: func() any {
	return &batchSearch{
		rng:    rand.New(rand.NewSource(0)),
		compID: make(map[string]int32),
		hostID: make(map[string]int32),
		seen:   make(map[string]struct{}),
	}
}}

// release drops the caller's objects and returns s to the pool.
func (s *batchSearch) release() {
	s.pathAvail, s.rec, s.nodes = nil, nil, nil
	batchPool.Put(s)
}

// reset builds the dense views for one search from g, nodes and the greedy
// seed's assignment, reusing s's buffers. It reports false when there is
// nothing to search: no movable component, fewer than two nodes, or a
// component the seed left unplaced.
func (s *batchSearch) reset(g *dag.Graph, nodes []NodeInfo, seeded Assignment, cfg BatchConfig, pathAvail PathQuery, rec Recorder) bool {
	s.cfg, s.pathAvail, s.rec, s.nodes = cfg, pathAvail, rec, nodes
	s.rng.Seed(cfg.Seed)
	s.budget = cfg.MoveBudget

	clear(s.hostID)
	s.hostName = s.hostName[:0]
	for i, n := range nodes {
		s.hostID[n.Name] = int32(i)
		s.hostName = append(s.hostName, n.Name)
	}
	s.nodeHost = s.nodeHost[:0]
	for _, n := range nodes {
		s.nodeHost = append(s.nodeHost, s.hostID[n.Name])
	}

	s.comps = g.Components()
	nc := len(s.comps)
	clear(s.compID)
	for c, name := range s.comps {
		s.compID[name] = int32(c)
	}
	s.compCPU, s.compMem = resize(s.compCPU, nc), resize(s.compMem, nc)
	s.pinned, s.totalBW = resize(s.pinned, nc), resize(s.totalBW, nc)
	s.seed, s.next = resize(s.seed, nc), resize(s.next, nc)
	s.deps = resize(s.deps, nc)
	s.edges, s.movable, s.totalW = s.edges[:0], s.movable[:0], 0
	for c, name := range s.comps {
		comp, err := g.Component(name)
		if err != nil {
			return false
		}
		host, placed := seeded[name]
		if !placed {
			return false
		}
		id, known := s.hostID[host]
		if !known {
			id = int32(len(s.hostName)) // external: no schedulable capacity
			s.hostID[host] = id
			s.hostName = append(s.hostName, host)
		}
		s.seed[c] = id
		s.compCPU[c], s.compMem[c], s.pinned[c] = comp.CPU, comp.MemoryMB, comp.Pinned()
		for _, e := range g.Out(name) {
			s.edges = append(s.edges, batchEdge{from: int32(c), to: s.compID[e.To], w: e.BandwidthMbps})
			s.totalW += e.BandwidthMbps
		}
		dl := s.deps[c][:0]
		for dep, w := range g.Neighbors(name) {
			dl = append(dl, batchDep{comp: s.compID[dep], w: w})
		}
		slices.SortFunc(dl, func(a, b batchDep) int { return strings.Compare(s.comps[a.comp], s.comps[b.comp]) })
		// Sum in sorted order: map order would make the total differ in
		// the last bit from run to run and flip ties in movable's order.
		s.totalBW[c] = 0
		for _, d := range dl {
			s.totalBW[c] += d.w
		}
		s.deps[c] = dl
		if !s.pinned[c] {
			s.movable = append(s.movable, int32(c))
		}
	}
	slices.SortFunc(s.edges, func(a, b batchEdge) int {
		if c := strings.Compare(s.comps[a.from], s.comps[b.from]); c != 0 {
			return c
		}
		return strings.Compare(s.comps[a.to], s.comps[b.to])
	})
	// Heaviest communicators first: their placement moves the objective most,
	// so the budget is spent where it pays.
	slices.SortStableFunc(s.movable, func(a, b int32) int {
		if s.totalBW[a] != s.totalBW[b] {
			return lessFirst(s.totalBW[a] > s.totalBW[b])
		}
		return strings.Compare(s.comps[a], s.comps[b])
	})

	s.keyRank = s.rankHosts(s.keyRank, keyNameCompare)
	s.nameRank = s.rankHosts(s.nameRank, strings.Compare)
	s.memo.reset(len(s.hostName))
	nn := len(nodes)
	s.usedCPU, s.usedMem, s.util = resize(s.usedCPU, nn), resize(s.usedMem, nn), resize(s.util, nn)
	clear(s.seen)
	s.frontier, s.arena = s.frontier[:0], s.arena[:0]
	return len(s.movable) > 0 && nn > 1
}

// resize returns buf with length n, reusing its array when it is big enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// lessFirst maps "a sorts before b" onto a comparison result. The stable
// sorts only ever ask whether cmp(a, b) < 0, so a comparator built on it
// sees exactly the answers the equivalent less function gives.
func lessFirst(less bool) int {
	if less {
		return -1
	}
	return 1
}

// keyNameCompare orders host names as they sort inside "comp=host;" keys:
// by name+";", so "n10" sorts before "n1". Names holding ';' fall outside
// this order.
func keyNameCompare(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return cmp.Compare(';', b[n])
	}
	return cmp.Compare(a[n], ';')
}

// rankHosts gives each host id its position in the name order cmpName
// defines. Only a name listed twice in nodes ties, and assignments hold just
// one of its ids.
func (s *batchSearch) rankHosts(rank []int32, cmpName func(a, b string) int) []int32 {
	n := len(s.hostName)
	s.rankOrder = s.rankOrder[:0]
	for h := 0; h < n; h++ {
		s.rankOrder = append(s.rankOrder, int32(h))
	}
	slices.SortFunc(s.rankOrder, func(a, b int32) int { return cmpName(s.hostName[a], s.hostName[b]) })
	rank = resize(rank, n)
	for k, h := range s.rankOrder {
		rank[h] = int32(k)
	}
	return rank
}

// pathMemo memoises the path oracle within one search: one column of cells
// per queried destination host, indexed by source host. A cell is valid when
// its stamp equals the search's generation, so a column handed from one
// search to the next needs no clearing, and only destinations a search
// actually asks about hold a column.
type pathMemo struct {
	gen  uint64
	cols [][]memoCell // by destination host id; nil until queried
	used []int32      // destinations holding a column this search
	free [][]memoCell
}

type memoCell struct {
	gen uint64
	v   float64
}

// reset starts a new generation for a search over hosts host ids.
func (m *pathMemo) reset(hosts int) {
	for _, d := range m.used {
		m.free = append(m.free, m.cols[d])
		m.cols[d] = nil
	}
	m.used = m.used[:0]
	m.cols = resize(m.cols, hosts)
	m.gen++
}

// column returns the cells for destination to, taking one for it if this
// search has not asked about to yet.
func (m *pathMemo) column(to int32) []memoCell {
	if col := m.cols[to]; col != nil {
		return col
	}
	var col []memoCell
	if k := len(m.free) - 1; k >= 0 {
		col, m.free = m.free[k], m.free[:k]
	}
	if len(col) < len(m.cols) {
		col = make([]memoCell, len(m.cols)) // a column too short is dropped
	}
	m.cols[to] = col
	m.used = append(m.used, to)
	return col
}

// avail is the path oracle's spare capacity from → to, memoised per host
// pair within one search.
func (s *batchSearch) avail(from, to int32) float64 {
	cell := &s.memo.column(to)[from]
	if cell.gen != s.memo.gen {
		*cell = memoCell{gen: s.memo.gen, v: s.pathAvail(s.hostName[from], s.hostName[to])}
	}
	return cell.v
}

// satisfied is how much of an edge of demand w the path oracle's spare
// capacity lets through: all of it when avail covers it, avail itself when
// positive, nothing otherwise.
func satisfied(avail, w float64) float64 {
	if avail < w {
		if avail > 0 {
			return avail
		}
		return 0
	}
	return w
}

const batchCapEps = 1e-9

// nodeUtil is n's worst resource utilization with cpu and mem placed on it,
// floored at zero; NaN fractions never win.
func nodeUtil(n *NodeInfo, cpu, mem float64) float64 {
	u := 0.0
	if n.TotalCPU > 0 {
		if frac := (n.TotalCPU - n.FreeCPU + cpu) / n.TotalCPU; frac > u {
			u = frac
		}
	}
	if n.TotalMemoryMB > 0 {
		if frac := (n.TotalMemoryMB - n.FreeMemoryMB + mem) / n.TotalMemoryMB; frac > u {
			u = frac
		}
	}
	return u
}

// load takes the per-node view of assignment a: usage summed in component
// order, utilization, and the three most-utilized nodes. It reports whether
// a fits every node's free capacity.
func (s *batchSearch) load(a []int32) bool {
	clear(s.usedCPU)
	clear(s.usedMem)
	for c, h := range a {
		if int(h) < len(s.nodes) {
			s.usedCPU[h] += s.compCPU[c]
			s.usedMem[h] += s.compMem[c]
		}
	}
	fits := true
	s.top = s.top[:0]
	for i := range s.nodes {
		n := &s.nodes[i]
		if s.usedCPU[i] > n.FreeCPU+batchCapEps || s.usedMem[i] > n.FreeMemoryMB+batchCapEps {
			fits = false
		}
		s.util[i] = nodeUtil(n, s.usedCPU[i], s.usedMem[i])
		k := len(s.top)
		if k < 3 {
			s.top = append(s.top, int32(i))
		} else if s.util[i] > s.util[s.top[2]] {
			k = 2
		} else {
			continue
		}
		for ; k > 0 && s.util[i] > s.util[s.top[k-1]]; k-- {
			s.top[k] = s.top[k-1]
		}
		s.top[k] = int32(i)
	}
	return fits
}

// score completes a joint score from the placement's worst node utilization:
// score = netFrac + batchComputeWeight·balance. netFrac is the fraction of
// total DAG edge bandwidth the placement can satisfy — local edges in full,
// remote edges capped at the path oracle's spare capacity (DependencyUsage's
// satisfiable-bandwidth rule applied jointly); balance is one minus worst.
// Edges are walked in their fixed order, so equal assignments score
// bit-identically.
func (s *batchSearch) score(a []int32, worst float64) batchState {
	st := batchState{balance: 1 - math.Min(worst, 1)}
	sat := 0.0
	for _, e := range s.edges {
		an, bn := a[e.from], a[e.to]
		if an == bn || s.pathAvail == nil {
			sat += e.w
		} else {
			sat += satisfied(s.avail(an, bn), e.w)
		}
	}
	st.netFrac = 1.0
	if s.totalW > 0 {
		st.netFrac = sat / s.totalW
	}
	st.score = st.netFrac + batchComputeWeight*st.balance
	return st
}

// scoreMove scores s.next, which differs from the state load last saw only
// on hosts x and y. Capacity is a hard constraint: the two hosts' usage is
// re-summed from scratch in component order and checked (every other node
// is unchanged, and the expanded state fits). The worst utilization is the
// larger of the most-utilized untouched node and the two hosts' new values.
func (s *batchSearch) scoreMove(x, y int32) (batchState, bool) {
	worst := 0.0
	for _, i := range s.top {
		if i != x && i != y {
			worst = s.util[i]
			break
		}
	}
	for _, h := range [2]int32{x, y} {
		if int(h) >= len(s.nodes) {
			continue // external host: no schedulable capacity
		}
		cpu, mem := 0.0, 0.0
		for c, at := range s.next {
			if at == h {
				cpu += s.compCPU[c]
				mem += s.compMem[c]
			}
		}
		n := &s.nodes[h]
		if cpu > n.FreeCPU+batchCapEps || mem > n.FreeMemoryMB+batchCapEps {
			return batchState{}, false
		}
		if u := nodeUtil(n, cpu, mem); u > worst {
			worst = u
		}
	}
	return s.score(s.next, worst), true
}

// compareStates orders the frontier: score descending, then by the
// canonical key "comp=host;…" ascending, compared host by host through
// keyRank.
func (s *batchSearch) compareStates(a, b batchState) int {
	if a.score != b.score {
		return lessFirst(a.score > b.score)
	}
	for c := range a.assign {
		if ra, rb := s.keyRank[a.assign[c]], s.keyRank[b.assign[c]]; ra != rb {
			return cmp.Compare(ra, rb)
		}
	}
	return 0
}

// markSeen records assignment a and reports whether it was new.
func (s *batchSearch) markSeen(a []int32) bool {
	s.keyBuf = s.keyBuf[:0]
	for _, h := range a {
		s.keyBuf = append(s.keyBuf, byte(h), byte(h>>8), byte(h>>16), byte(h>>24))
	}
	if _, ok := s.seen[string(s.keyBuf)]; ok {
		return false
	}
	s.seen[string(s.keyBuf)] = struct{}{}
	return true
}

// insert adds the candidate in s.next, scored st, to the k-best frontier if
// it is new, keeping the frontier sorted and trimmed to K. The assignment is
// copied only if it stays on the frontier. Reports whether the frontier
// changed.
func (s *batchSearch) insert(st batchState) bool {
	if !s.markSeen(s.next) {
		return false
	}
	st.assign = s.next
	s.frontier = append(s.frontier, st)
	slices.SortStableFunc(s.frontier, s.compareStates)
	if len(s.frontier) > s.cfg.K {
		s.frontier = s.frontier[:s.cfg.K]
	}
	for i := range s.frontier {
		if &s.frontier[i].assign[0] == &s.next[0] {
			start := len(s.arena)
			s.arena = append(s.arena, s.next...)
			s.frontier[i].assign = s.arena[start:len(s.arena):len(s.arena)]
			return true
		}
	}
	return false
}

// run executes the anytime search from the greedy seed and returns the best
// joint assignment found, reporting whether it strictly beats the seed.
func (s *batchSearch) run() ([]int32, bool) {
	if !s.load(s.seed) {
		// The seed never violates capacity; if bookkeeping disagrees, defer
		// to the seed rather than search from an inconsistent base.
		return nil, false
	}
	seedState := s.score(s.seed, s.util[s.top[0]])
	seedState.assign = s.seed
	s.markSeen(s.seed)
	s.frontier = append(s.frontier, seedState)
	for s.budget > 0 {
		changed := false
		s.base = append(s.base[:0], s.frontier...)
		for _, st := range s.base {
			if s.budget <= 0 {
				break
			}
			if s.expand(st) {
				changed = true
			}
		}
		if !changed {
			break // local optimum under the move set: stop early, keep budget
		}
	}
	best := s.frontier[0]
	improved := best.score > seedState.score+batchEps*math.Max(math.Abs(seedState.score), 1)
	if s.rec != nil {
		greedyRej, batchRej := rejectOutscored, rejectNone
		if !improved {
			greedyRej, batchRej = rejectNone, rejectOutscored
		}
		// Pseudo-candidates: Local carries the network fraction and Remote
		// the balance term of each joint score.
		s.rows = append(s.rows[:0],
			obs.BoardRow{Node: "greedy", Value: seedState.score,
				Local: seedState.netFrac, Remote: seedState.balance, Reason: greedyRej},
			obs.BoardRow{Node: "batch", Value: best.score,
				Local: best.netFrac, Remote: best.balance, Reason: batchRej})
		s.rec.RecordBoard("joint", s.rows)
	}
	return best.assign, improved
}

// expand probes every relocate and swap move around st, spending budget per
// joint evaluation, and reports whether any probe changed the frontier.
func (s *batchSearch) expand(st batchState) bool {
	changed := false
	s.load(st.assign)
	copy(s.next, st.assign)
	for _, comp := range s.movable {
		if s.budget <= 0 {
			break
		}
		current := st.assign[comp]
		rows := s.rows[:0]
		bestScore, bestTarget := st.score, ""
		for _, target := range s.relocationTargets(comp, st.assign) {
			if s.budget <= 0 {
				break
			}
			s.budget--
			s.next[comp] = target
			cand, feasible := s.scoreMove(current, target)
			if s.rec != nil {
				row := obs.BoardRow{Node: s.hostName[target], Reason: rejectNoCapacity}
				if feasible {
					row.Value, row.Local, row.Remote = cand.score, cand.netFrac, cand.balance
					row.Reason = rejectOutscored
				}
				rows = append(rows, row)
			}
			if feasible {
				if s.insert(cand) {
					changed = true
				}
				if cand.score > bestScore+batchEps {
					bestScore, bestTarget = cand.score, s.hostName[target]
				}
			}
			s.next[comp] = current
		}
		if s.rec != nil && len(rows) > 0 {
			for i := range rows {
				if rows[i].Node == bestTarget {
					rows[i].Reason = rejectNone
				}
			}
			s.rec.RecordBoard(s.comps[comp], rows)
		}
		s.rows = rows
	}
	// Swap probes: exchange the endpoints of cross-node edges between movable
	// components — the move relocations cannot express in one step.
	for _, e := range s.edges {
		if s.budget <= 0 {
			break
		}
		if s.pinned[e.from] || s.pinned[e.to] {
			continue
		}
		nf, nt := st.assign[e.from], st.assign[e.to]
		if nf == nt {
			continue
		}
		s.budget--
		s.next[e.from], s.next[e.to] = nt, nf
		cand, feasible := s.scoreMove(nf, nt)
		if feasible && s.insert(cand) {
			changed = true
		}
		s.next[e.from], s.next[e.to] = nf, nt
		if s.rec != nil {
			row := obs.BoardRow{Node: s.hostName[nt], Reason: rejectNoCapacity}
			if feasible {
				row.Value, row.Local, row.Remote = cand.score, cand.netFrac, cand.balance
				row.Reason = rejectOutscored
				if cand.score > st.score+batchEps {
					row.Reason = rejectNone
				}
			}
			s.rows = append(s.rows[:0], row)
			s.rec.RecordBoard(s.comps[e.from]+"<->"+s.comps[e.to], s.rows)
		}
	}
	return changed
}

// relocationTargets ranks candidate hosts for comp under the joint
// assignment a, Selimi-style: every other node is scored by the bandwidth it
// could satisfy toward comp's placed DAG neighbors (local edges in full,
// remote edges capped at the path oracle's spare capacity — the same
// satisfiable-bandwidth rule migration scoring uses), and the top
// batchNeighborhood nodes are kept, plus up to two seeded-random extras so
// the search can escape bandwidth-local optima. The extras index into the
// fully sorted remainder, so the whole list is stable-sorted, ties by node
// name.
func (s *batchSearch) relocationTargets(comp int32, a []int32) []int32 {
	current := a[comp]
	deps := s.deps[comp]
	ranked := s.ranked[:0]
	for _, h := range s.nodeHost {
		if h == current {
			continue
		}
		sat := 0.0
		for _, d := range deps {
			if dh := a[d.comp]; dh == h || s.pathAvail == nil {
				sat += d.w
			} else {
				sat += satisfied(s.avail(h, dh), d.w)
			}
		}
		ranked = append(ranked, batchTarget{host: h, sat: sat})
	}
	slices.SortStableFunc(ranked, func(x, y batchTarget) int {
		if x.sat != y.sat {
			return lessFirst(x.sat > y.sat)
		}
		return cmp.Compare(s.nameRank[x.host], s.nameRank[y.host])
	})
	s.ranked = ranked
	limit := min(batchNeighborhood, len(ranked))
	out := s.targets[:0]
	for _, r := range ranked[:limit] {
		out = append(out, r.host)
	}
	for extra := 0; extra < 2 && limit+extra < len(ranked); extra++ {
		rest := ranked[limit+extra:]
		pick := s.rng.Intn(len(rest))
		rest[0], rest[pick] = rest[pick], rest[0]
		out = append(out, rest[0].host)
	}
	s.targets = out
	return out
}

// Compile-time interface check.
var _ Policy = (*Batch)(nil)
