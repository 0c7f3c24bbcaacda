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
package scheduler

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"bass/internal/dag"
)

// batchEps is the relative margin a candidate joint score must clear to count
// as an improvement; anything closer is a tie and the incumbent (ultimately
// the greedy seed) wins, keeping the search stable under FP noise.
const batchEps = 1e-9

// BatchConfig tunes the batch placement search.
type BatchConfig struct {
	// MoveBudget caps how many joint candidate assignments the local search
	// may evaluate. Zero or negative disables the search entirely: Schedule
	// returns the greedy seed's assignment (and name, and explanations)
	// unchanged, byte-identical to running the seed policy alone.
	MoveBudget int
	// K is the k-best frontier width: how many distinct joint assignments the
	// search keeps and expands. Defaults to 4.
	K int
	// Seed drives the deterministic RNG used to diversify relocation
	// neighborhoods. Equal seeds yield byte-identical searches.
	Seed int64
	// ComputeWeight weighs the compute-balance term against the network term
	// in the joint objective (DCSim-style combined scoring). Zero takes the
	// default 0.25; negative means pure network objective.
	ComputeWeight float64
	// Neighborhood caps the bandwidth-aware relocation targets considered per
	// component per scan (Selimi-style: nodes ranked by the bandwidth they
	// can satisfy toward the component's placed DAG neighbors). Defaults to
	// 8; two extra seeded-random targets are added for diversification.
	Neighborhood int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.K <= 0 {
		c.K = 4
	}
	switch {
	case c.ComputeWeight == 0:
		c.ComputeWeight = 0.25
	case c.ComputeWeight < 0:
		c.ComputeWeight = 0
	}
	if c.Neighborhood <= 0 {
		c.Neighborhood = 8
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
// them), then one ChoiceBatch explanation per relocation scan and swap probe,
// then a final ChoiceBatch verdict whose pseudo-candidates "greedy" and
// "batch" carry the two joint scores — so a trace shows why batch beat (or
// matched) greedy.
func (b *Batch) Schedule(g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error) {
	seeded, err := b.seed.Schedule(g, nodes, rec)
	if err != nil || b.cfg.MoveBudget <= 0 {
		return seeded, err
	}
	s, ok := newBatchSearch(g, nodes, b.cfg, b.pathAvail, rec)
	if !ok {
		return seeded, nil
	}
	if improved, best := s.run(seeded); improved {
		return best, nil
	}
	return seeded, nil
}

// batchEdge is one DAG edge in the deterministic evaluation order.
type batchEdge struct {
	from, to string
	w        float64
}

// batchDep is one neighbor of a component, in sorted-name order. Keeping the
// dependency list as a slice (not the Neighbors map) pins the floating-point
// accumulation order, so scores are bit-identical across runs.
type batchDep struct {
	name string
	w    float64
}

// batchState is one joint assignment on the frontier, with its canonical key
// and score breakdown.
type batchState struct {
	assign  Assignment
	key     string
	score   float64
	netFrac float64 // satisfiable fraction of total DAG edge bandwidth
	balance float64 // 1 − max node resource utilization after placement
}

// batchSearch carries the immutable context of one search: the DAG views,
// node capacities, budget, frontier, and memoised path queries.
type batchSearch struct {
	cfg       BatchConfig
	pathAvail PathQuery
	rec       Recorder
	rng       *rand.Rand

	g          *dag.Graph
	comps      []string
	movable    []string // unpinned components, heaviest total edge bandwidth first
	compByName map[string]*dag.Component
	edges      []batchEdge
	totalW     float64
	deps       map[string][]batchDep

	nodes      []NodeInfo
	nodeByName map[string]int

	budget   int
	frontier []batchState
	seen     map[string]bool
	pathMemo map[nodePair]float64

	// scratch buffers reused across eval calls.
	usedCPU, usedMem []float64
}

func newBatchSearch(g *dag.Graph, nodes []NodeInfo, cfg BatchConfig, pathAvail PathQuery, rec Recorder) (*batchSearch, bool) {
	s := &batchSearch{
		cfg:        cfg,
		pathAvail:  pathAvail,
		rec:        rec,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		g:          g,
		comps:      g.Components(),
		compByName: make(map[string]*dag.Component),
		deps:       make(map[string][]batchDep),
		nodes:      nodes,
		nodeByName: make(map[string]int, len(nodes)),
		budget:     cfg.MoveBudget,
		seen:       make(map[string]bool),
		pathMemo:   make(map[nodePair]float64),
		usedCPU:    make([]float64, len(nodes)),
		usedMem:    make([]float64, len(nodes)),
	}
	for i, n := range nodes {
		s.nodeByName[n.Name] = i
	}
	totalBW := make(map[string]float64, len(s.comps))
	for _, name := range s.comps {
		comp, err := g.Component(name)
		if err != nil {
			return nil, false
		}
		s.compByName[name] = comp
		for _, e := range g.Out(name) {
			s.edges = append(s.edges, batchEdge{from: name, to: e.To, w: e.BandwidthMbps})
			s.totalW += e.BandwidthMbps
		}
		var dl []batchDep
		for dep, w := range g.Neighbors(name) {
			dl = append(dl, batchDep{name: dep, w: w})
			totalBW[name] += w
		}
		sort.Slice(dl, func(i, j int) bool { return dl[i].name < dl[j].name })
		s.deps[name] = dl
		if !comp.Pinned() {
			s.movable = append(s.movable, name)
		}
	}
	sort.Slice(s.edges, func(i, j int) bool {
		if s.edges[i].from != s.edges[j].from {
			return s.edges[i].from < s.edges[j].from
		}
		return s.edges[i].to < s.edges[j].to
	})
	// Heaviest communicators first: their placement moves the objective most,
	// so the budget is spent where it pays.
	sort.SliceStable(s.movable, func(i, j int) bool {
		if totalBW[s.movable[i]] != totalBW[s.movable[j]] {
			return totalBW[s.movable[i]] > totalBW[s.movable[j]]
		}
		return s.movable[i] < s.movable[j]
	})
	return s, len(s.movable) > 0 && len(s.nodes) > 1
}

type nodePair struct{ from, to string }

// avail memoises the path oracle per node pair within one search.
func (s *batchSearch) avail(from, to string) float64 {
	key := nodePair{from, to}
	if v, ok := s.pathMemo[key]; ok {
		return v
	}
	v := s.pathAvail(from, to)
	s.pathMemo[key] = v
	return v
}

// eval scores one joint assignment: capacity feasibility as a hard
// constraint, then score = netFrac + ComputeWeight·balance. netFrac is the
// fraction of total DAG edge bandwidth the placement can satisfy — local
// edges in full, remote edges capped at the path oracle's spare capacity
// (DependencyUsage's satisfiable-bandwidth rule applied jointly). balance is
// one minus the worst node's resource utilization after placement. All
// accumulation walks deterministic slices, so equal assignments score
// bit-identically.
func (s *batchSearch) eval(a Assignment) (batchState, bool) {
	for i := range s.nodes {
		s.usedCPU[i], s.usedMem[i] = 0, 0
	}
	for _, name := range s.comps {
		idx, ok := s.nodeByName[a[name]]
		if !ok {
			continue // pinned to an external host; no schedulable capacity used
		}
		comp := s.compByName[name]
		s.usedCPU[idx] += comp.CPU
		s.usedMem[idx] += comp.MemoryMB
	}
	const eps = 1e-9
	worst := 0.0
	for i, n := range s.nodes {
		if s.usedCPU[i] > n.FreeCPU+eps || s.usedMem[i] > n.FreeMemoryMB+eps {
			return batchState{}, false
		}
		if n.TotalCPU > 0 {
			if frac := (n.TotalCPU - n.FreeCPU + s.usedCPU[i]) / n.TotalCPU; frac > worst {
				worst = frac
			}
		}
		if n.TotalMemoryMB > 0 {
			if frac := (n.TotalMemoryMB - n.FreeMemoryMB + s.usedMem[i]) / n.TotalMemoryMB; frac > worst {
				worst = frac
			}
		}
	}
	st := batchState{assign: a, key: jointKey(s.comps, a), balance: 1 - math.Min(worst, 1)}
	sat := 0.0
	for _, e := range s.edges {
		an, bn := a[e.from], a[e.to]
		switch {
		case an == bn:
			sat += e.w
		case s.pathAvail == nil:
			sat += e.w
		default:
			if avail := s.avail(an, bn); avail < e.w {
				if avail > 0 {
					sat += avail
				}
			} else {
				sat += e.w
			}
		}
	}
	st.netFrac = 1.0
	if s.totalW > 0 {
		st.netFrac = sat / s.totalW
	}
	st.score = st.netFrac + s.cfg.ComputeWeight*st.balance
	return st, true
}

// jointKey canonicalises an assignment for frontier deduplication and
// deterministic tie-breaking.
func jointKey(comps []string, a Assignment) string {
	var sb strings.Builder
	for _, c := range comps {
		sb.WriteString(c)
		sb.WriteByte('=')
		sb.WriteString(a[c])
		sb.WriteByte(';')
	}
	return sb.String()
}

// insert adds st to the k-best frontier if it is new, keeping the frontier
// sorted by score (ties by key) and trimmed to K. Reports whether the
// frontier changed.
func (s *batchSearch) insert(st batchState) bool {
	if s.seen[st.key] {
		return false
	}
	s.seen[st.key] = true
	s.frontier = append(s.frontier, st)
	sort.SliceStable(s.frontier, func(i, j int) bool {
		if s.frontier[i].score != s.frontier[j].score {
			return s.frontier[i].score > s.frontier[j].score
		}
		return s.frontier[i].key < s.frontier[j].key
	})
	if len(s.frontier) > s.cfg.K {
		s.frontier = s.frontier[:s.cfg.K]
	}
	for i := range s.frontier {
		if s.frontier[i].key == st.key {
			return true
		}
	}
	return false
}

// run executes the anytime search from the greedy seed and reports whether a
// strictly better joint assignment was found (and which).
func (s *batchSearch) run(seeded Assignment) (bool, Assignment) {
	seedState, ok := s.eval(seeded.Clone())
	if !ok {
		// The seed never violates capacity; if bookkeeping disagrees, defer
		// to the seed rather than search from an inconsistent base.
		return false, nil
	}
	s.seen[seedState.key] = true
	s.frontier = []batchState{seedState}
	for s.budget > 0 {
		changed := false
		base := append([]batchState(nil), s.frontier...)
		for _, st := range base {
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
		greedyRej, batchRej := RejectOutscored, RejectNone
		chosen := "batch"
		if !improved {
			greedyRej, batchRej = RejectNone, RejectOutscored
			chosen = "greedy"
		}
		// Pseudo-candidates: LocalMbps carries the network fraction and
		// RemoteMbps the balance term of each joint score.
		s.rec.RecordExplanation(Explanation{
			Kind: ChoiceBatch, Component: "joint", Chosen: chosen,
			Candidates: []CandidateScore{
				{Node: "greedy", Feasible: true, Score: seedState.score,
					LocalMbps: seedState.netFrac, RemoteMbps: seedState.balance, Rejection: greedyRej},
				{Node: "batch", Feasible: true, Score: best.score,
					LocalMbps: best.netFrac, RemoteMbps: best.balance, Rejection: batchRej},
			},
		})
	}
	if !improved {
		return false, nil
	}
	return true, best.assign
}

// expand probes every relocate and swap move around st, spending budget per
// joint evaluation, and reports whether any probe changed the frontier.
func (s *batchSearch) expand(st batchState) bool {
	changed := false
	for _, comp := range s.movable {
		if s.budget <= 0 {
			break
		}
		current := st.assign[comp]
		targets := s.relocationTargets(comp, st.assign, current)
		var rows []CandidateScore
		bestScore, bestTarget := st.score, ""
		for _, target := range targets {
			if s.budget <= 0 {
				break
			}
			s.budget--
			next := st.assign.Clone()
			next[comp] = target
			cand, feasible := s.eval(next)
			if s.rec != nil {
				row := CandidateScore{Node: target, Feasible: feasible, Rejection: RejectNoCapacity}
				if feasible {
					row.Score, row.LocalMbps, row.RemoteMbps = cand.score, cand.netFrac, cand.balance
					row.Rejection = RejectOutscored
				}
				rows = append(rows, row)
			}
			if !feasible {
				continue
			}
			if s.insert(cand) {
				changed = true
			}
			if cand.score > bestScore+batchEps {
				bestScore, bestTarget = cand.score, target
			}
		}
		if s.rec != nil && len(rows) > 0 {
			for i := range rows {
				if rows[i].Node == bestTarget {
					rows[i].Rejection = RejectNone
				}
			}
			s.rec.RecordExplanation(Explanation{
				Kind: ChoiceBatch, Component: comp, Current: current,
				Chosen: bestTarget, Candidates: rows,
			})
		}
	}
	// Swap probes: exchange the endpoints of cross-node edges between movable
	// components — the move relocations cannot express in one step.
	for _, e := range s.edges {
		if s.budget <= 0 {
			break
		}
		if !s.isMovable(e.from) || !s.isMovable(e.to) {
			continue
		}
		nf, nt := st.assign[e.from], st.assign[e.to]
		if nf == nt {
			continue
		}
		s.budget--
		next := st.assign.Clone()
		next[e.from], next[e.to] = nt, nf
		cand, feasible := s.eval(next)
		if feasible && s.insert(cand) {
			changed = true
		}
		if s.rec != nil {
			row := CandidateScore{Node: nt, Feasible: feasible, Rejection: RejectNoCapacity}
			if feasible {
				row.Score, row.LocalMbps, row.RemoteMbps = cand.score, cand.netFrac, cand.balance
				if cand.score > st.score+batchEps {
					row.Rejection = RejectNone
				} else {
					row.Rejection = RejectOutscored
				}
			}
			s.rec.RecordExplanation(Explanation{
				Kind: ChoiceBatch, Component: e.from + "<->" + e.to, Current: nf,
				Chosen: rowChosen(row), Candidates: []CandidateScore{row},
			})
		}
	}
	return changed
}

func rowChosen(row CandidateScore) string {
	if row.Rejection == RejectNone {
		return row.Node
	}
	return ""
}

func (s *batchSearch) isMovable(comp string) bool {
	c, ok := s.compByName[comp]
	return ok && !c.Pinned()
}

// relocationTargets ranks candidate hosts for comp under the current joint
// assignment, Selimi-style: every other node is scored by the bandwidth it
// could satisfy toward comp's placed DAG neighbors (local edges in full,
// remote edges capped at the path oracle's spare capacity — the same
// satisfiable-bandwidth rule migration scoring uses), and the top
// Neighborhood nodes are kept, plus up to two seeded-random extras so the
// search can escape bandwidth-local optima.
func (s *batchSearch) relocationTargets(comp string, a Assignment, current string) []string {
	deps := s.deps[comp]
	type scored struct {
		name string
		sat  float64
	}
	ranked := make([]scored, 0, len(s.nodes))
	for _, n := range s.nodes {
		if n.Name == current {
			continue
		}
		sat := 0.0
		for _, d := range deps {
			depNode, placed := a[d.name]
			if !placed {
				continue
			}
			if depNode == n.Name || s.pathAvail == nil {
				sat += d.w
				continue
			}
			if avail := s.avail(n.Name, depNode); avail < d.w {
				if avail > 0 {
					sat += avail
				}
			} else {
				sat += d.w
			}
		}
		ranked = append(ranked, scored{name: n.Name, sat: sat})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].sat != ranked[j].sat {
			return ranked[i].sat > ranked[j].sat
		}
		return ranked[i].name < ranked[j].name
	})
	limit := s.cfg.Neighborhood
	if limit > len(ranked) {
		limit = len(ranked)
	}
	out := make([]string, 0, limit+2)
	for _, r := range ranked[:limit] {
		out = append(out, r.name)
	}
	for extra := 0; extra < 2 && limit+extra < len(ranked); extra++ {
		rest := ranked[limit+extra:]
		pick := s.rng.Intn(len(rest))
		rest[0], rest[pick] = rest[pick], rest[0]
		out = append(out, rest[0].name)
	}
	return out
}

// Compile-time interface check.
var _ Policy = (*Batch)(nil)
