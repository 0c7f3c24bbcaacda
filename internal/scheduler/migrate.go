package scheduler

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bass/internal/dag"
	"bass/internal/obs"
)

// errNoBetterNode is returned by ChooseMigrationTarget when no node improves
// on the component's current placement.
var errNoBetterNode = errors.New("scheduler: no better node for component")

// errNoFailoverNode is returned by ChooseFailoverTarget when no surviving
// node can host the component at all.
var errNoFailoverNode = errors.New("scheduler: no surviving node can host component")

// errNoFeasibleNode is returned by a strict ChooseFailoverTarget when nodes
// have the CPU and memory but none can also carry the component's bandwidth —
// the caller should escalate (re-route, shed) rather than accept a placement
// the data plane cannot serve.
var errNoFeasibleNode = errors.New("scheduler: no bandwidth-feasible node for component")

// DependencyUsage is the controller's observation of one deployed component
// pair (an edge of the application DAG whose endpoints sit on different
// nodes). It merges the net-monitor's passive measurement (achieved
// bandwidth) with the probing view of the link (§3.2.2, Algorithm 3).
type DependencyUsage struct {
	// Component is the edge source; Dep the edge target.
	Component string
	Dep       string
	// RequiredMbps is the profiled bandwidth requirement (DAG edge weight).
	RequiredMbps float64
	// AchievedMbps is the passively measured traffic between the pair.
	AchievedMbps float64
	// PathCapacityMbps is the bottleneck capacity of the network path
	// between the two components' nodes, from the net-monitor's cache.
	PathCapacityMbps float64
	// PathAvailableMbps is the spare capacity on that path (capacity minus
	// other traffic), from headroom probing.
	PathAvailableMbps float64
}

// UtilizationFrac reports achieved/path-capacity: the pair's "link
// utilization" that §6.3.2/§6.3.3 set migration thresholds against (25-95%).
// A path with no capacity left is fully utilized by definition: it reports 1,
// not 0 — returning 0 made a dead path read as perfectly healthy and scenario
// 1 migration never fired for it.
func (d DependencyUsage) UtilizationFrac() float64 {
	if d.PathCapacityMbps <= 0 {
		return 1
	}
	return d.AchievedMbps / d.PathCapacityMbps
}

// GoodputFrac reports achieved/required — Algorithm 3's "goodput": the
// fraction of its profiled bandwidth requirement the pair is achieving.
func (d DependencyUsage) GoodputFrac() float64 {
	if d.RequiredMbps <= 0 {
		return 0
	}
	return d.AchievedMbps / d.RequiredMbps
}

// MigrationConfig holds the two controller parameters (§6.3.3): the link
// utilization threshold and the headroom capacity to maintain on each link.
type MigrationConfig struct {
	// UtilizationThreshold triggers migration when a pair consumes more than
	// this fraction of its bandwidth quota while the link lacks headroom
	// (Algorithm 3 line 8). The paper sweeps 0.25–0.95; 0.5–0.65 balances
	// best for fixed arrivals.
	UtilizationThreshold float64
	// GoodputFloor triggers migration when the link has degraded so much
	// that the pair achieves less than this fraction of its requirement
	// (§3.2.2 scenario 2, Fig 8's 50% goodput trigger).
	GoodputFloor float64
	// HeadroomMbps is the spare capacity the system maintains on every link.
	HeadroomMbps float64
}

// DefaultMigrationConfig mirrors the paper's defaults: 50% thresholds and a
// headroom of 20% of a 20 Mbps-class link (4 Mbps, per Fig 8).
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		UtilizationThreshold: 0.5,
		GoodputFloor:         0.5,
		HeadroomMbps:         4,
	}
}

// PathUtilizationFrac reports the aggregate utilization of the pair's path
// bottleneck: (capacity − available) / capacity. Several pairs sharing one
// link can saturate it while each pair's own share stays small; the
// aggregate view catches that (§6.3.2's "link utilization"). A zero-capacity
// path is saturated by definition and reports 1 (see UtilizationFrac).
func (d DependencyUsage) PathUtilizationFrac() float64 {
	if d.PathCapacityMbps <= 0 {
		return 1
	}
	u := (d.PathCapacityMbps - d.PathAvailableMbps) / d.PathCapacityMbps
	if u < 0 {
		return 0
	}
	return u
}

// violated reports whether a dependency pair needs migration under the
// config.
func (cfg MigrationConfig) violated(d DependencyUsage) bool {
	// A dead path — bottleneck capacity degraded to zero — cannot carry the
	// pair at all. It is violated outright whenever migration is enabled and
	// the pair actually needs bandwidth; the fraction-based scenarios below
	// also see it as fully utilized (UtilizationFrac pins at 1), but this
	// clause keeps the decision independent of where the thresholds sit.
	if (cfg.UtilizationThreshold > 0 || cfg.GoodputFloor > 0) &&
		d.PathCapacityMbps <= 0 && d.RequiredMbps > 0 {
		return true
	}
	// Scenario 1 (§3.2.2, Algorithm 3): the pair's traffic consumes more
	// than the threshold fraction of the link while the link cannot also
	// hold the required headroom. A pair that requires no bandwidth is never
	// violated — without the guard, UtilizationFrac saturating at 1 on a
	// dead path would flag even requirement-free pairs.
	if cfg.UtilizationThreshold > 0 && d.RequiredMbps > 0 &&
		d.UtilizationFrac() > cfg.UtilizationThreshold &&
		d.PathAvailableMbps < cfg.HeadroomMbps {
		return true
	}
	// Scenario 1b: the pair's path is saturated in aggregate (many pairs
	// sharing the link) and the pair is actually using it.
	if cfg.UtilizationThreshold > 0 && d.AchievedMbps > 0 &&
		d.PathUtilizationFrac() > cfg.UtilizationThreshold &&
		d.PathAvailableMbps < cfg.HeadroomMbps {
		return true
	}
	// Scenario 2 (Fig 8): link degradation starves the pair outright —
	// goodput falls below the floor with no headroom left to recover into.
	if cfg.GoodputFloor > 0 && d.RequiredMbps > 0 &&
		d.GoodputFrac() < cfg.GoodputFloor &&
		d.PathAvailableMbps < cfg.HeadroomMbps {
		return true
	}
	return false
}

// MigrationReport is the outcome of one candidate-selection pass, feeding
// Table 1 ("components exceeding link utilization quota" vs "components
// migrated").
type MigrationReport struct {
	// Violating lists every component appearing in a violated pair.
	Violating []string
	// Candidates is the deduplicated migration list: at most one endpoint of
	// each communicating pair, heaviest bandwidth requirement first.
	Candidates []string
}

// FindMigrationCandidates implements Algorithm 3. It scans the observed
// dependency pairs for bandwidth violations, sorts the violating components
// by bandwidth requirement (descending), and removes the dependency partner
// of any already-selected component so that only one side of each
// communicating pair migrates. Components in exclude (typically those still
// inside their re-migration guard window) cannot become candidates, letting
// their violating partner be selected instead.
func FindMigrationCandidates(g *dag.Graph, usages []DependencyUsage, cfg MigrationConfig, exclude map[string]bool) MigrationReport {
	// Quiet-path early return: no violated pair means an empty report, and
	// the control loop calls this every cycle for every application — the
	// maps and sort below must not be paid when nothing is wrong.
	anyViolated := false
	for _, u := range usages {
		if cfg.violated(u) {
			anyViolated = true
			break
		}
	}
	if !anyViolated {
		return MigrationReport{}
	}

	// Total bandwidth requirement per component (both directions), used for
	// the descending sort. EdgeMbps sums in edge order, so equal graphs rank
	// alike.
	bw := make(map[string]float64, g.NumComponents())
	for _, name := range g.Components() {
		bw[name] = g.EdgeMbps(name)
	}

	violating := make(map[string]bool)
	var violatingOrder []string
	mark := func(name string) {
		if !violating[name] {
			violating[name] = true
			violatingOrder = append(violatingOrder, name)
		}
	}
	for _, u := range usages {
		if cfg.violated(u) {
			mark(u.Component)
			mark(u.Dep)
		}
	}

	// Pinned components (nodeSelector-style) can never migrate, and excluded
	// ones must not thrash; both still count as violating so their movable
	// partner gets selected.
	candidates := make([]string, 0, len(violatingOrder))
	for _, name := range violatingOrder {
		if exclude[name] {
			continue
		}
		if c, err := g.Component(name); err == nil && c.Pinned() {
			continue
		}
		candidates = append(candidates, name)
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if bw[candidates[i]] != bw[candidates[j]] {
			return bw[candidates[i]] > bw[candidates[j]]
		}
		return candidates[i] < candidates[j]
	})

	// Deduplicate: walking heaviest-first, drop any remaining candidate that
	// is a DAG neighbor of an already-kept one.
	removed := make(map[string]bool)
	var final []string
	for _, cand := range candidates {
		if removed[cand] {
			continue
		}
		final = append(final, cand)
		for dep := range g.Neighbors(cand) {
			removed[dep] = true
		}
	}

	sort.Strings(violatingOrder)
	return MigrationReport{Violating: violatingOrder, Candidates: final}
}

// PathQuery reports the spare capacity (Mbps) available on the network path
// between two nodes; co-located nodes report a very large value.
type PathQuery func(fromNode, toNode string) float64

// TargetOptions carries the optional collaborators of a target choice. The
// zero value is the default: silent and lenient.
type TargetOptions struct {
	// Recorder receives the full candidate scoreboard. Nil skips all
	// scoreboard bookkeeping.
	Recorder Recorder
	// Strict makes ChooseFailoverTarget refuse the partially-feasible
	// fallback and return errNoFeasibleNode instead. Migration ignores it:
	// its hysteresis margin already guards the fallback.
	Strict bool
}

// neighbor is one placed DAG neighbor of the component being re-homed, with
// everything candidate scoring needs resolved once per choice instead of
// once per node.
type neighbor struct {
	name string
	node string  // where the neighbor runs
	mbps float64 // edge bandwidth, both directions summed
	// weight is 2 for pinned neighbors, else 1: no later migration can
	// relieve an edge to a pinned endpoint, so satisfying it now matters more
	// than edges between movable pairs, which progressive relocation can fix.
	weight float64
}

// placedNeighbors refills deps with the component's placed DAG neighbors in
// sorted-name order. Scoring accumulates over this slice, never over the
// Neighbors map, so the floating-point sums — and every journaled score — have
// one bit pattern per input whatever the map's iteration order.
func placedNeighbors(deps []neighbor, g *dag.Graph, component string, assignment Assignment) []neighbor {
	deps = deps[:0]
	for dep, mbps := range g.Neighbors(component) {
		node, placed := assignment[dep]
		if !placed {
			continue
		}
		weight := 1.0
		if d, err := g.Component(dep); err == nil && d.Pinned() {
			weight = 2
		}
		deps = append(deps, neighbor{name: dep, node: node, mbps: mbps, weight: weight})
	}
	slices.SortFunc(deps, func(a, b neighbor) int { return strings.Compare(a.name, b.name) })
	return deps
}

// candidate is one node's evaluation during migration or failover target
// choice.
type candidate struct {
	node     NodeInfo
	depCount int
	// local and remote split the satisfiable edge bandwidth (Mbps) into the
	// part served by co-located edges (counted in full) and the part served
	// over remote paths (capped at each path's available capacity); score is
	// their sum.
	local  float64
	remote float64
	score  float64
	// feasible reports whether every remote dependency fits in the path's
	// available capacity plus headroom.
	feasible bool
}

// scoreCandidate evaluates placing the component (whose placed DAG neighbors
// are deps) on nodeName: local edges count in full, remote edges up to the
// path's available capacity, each scaled by the neighbor's weight.
func scoreCandidate(deps []neighbor, nodeName string, pathAvail PathQuery, headroomMbps float64) candidate {
	c := candidate{feasible: true}
	for _, d := range deps {
		if d.node == nodeName {
			c.depCount++
			c.local += d.weight * d.mbps
			continue
		}
		avail := d.mbps
		if pathAvail != nil {
			avail = pathAvail(nodeName, d.node)
		}
		if avail < d.mbps+headroomMbps {
			c.feasible = false
		}
		if avail < d.mbps {
			c.remote += d.weight * avail
		} else {
			c.remote += d.weight * d.mbps
		}
	}
	c.score = c.local + c.remote
	return c
}

// rankCandidates scores every node in node order into s.cands and ranks them
// best first, plus (only when rec is non-nil) lists in s.skipped the nodes
// filtered out before scoring — the current placement and nodes without the
// CPU or memory — in node order. current skips that node; pass "" for
// failover-style choices where every node competes. The ranking is a stable
// sort by compareCandidates, taken as an index permutation and applied in
// place, so no candidate is copied more than once.
func (s *choiceScratch) rankCandidates(
	comp *dag.Component,
	nodes []NodeInfo,
	current string,
	pathAvail PathQuery,
	headroomMbps float64,
	rec Recorder,
) {
	s.cands, s.skipped = s.cands[:0], s.skipped[:0]
	for _, n := range nodes {
		reject := rejectNone
		switch {
		case n.Name == current:
			reject = rejectCurrentNode
		case !fits(n, comp):
			reject = rejectNoCapacity
		}
		if reject == rejectNone {
			c := scoreCandidate(s.deps, n.Name, pathAvail, headroomMbps)
			c.node = n
			s.cands = append(s.cands, c)
		} else if rec != nil {
			s.skipped = append(s.skipped, obs.BoardRow{Node: n.Name, Reason: reject})
		}
	}
	cands := s.cands
	s.order = sortedOrder(s.order, len(cands), func(a, b int32) int { return compareCandidates(&cands[a], &cands[b]) })
	permute(cands, s.order)
}

// compareCandidates is the single tie-break comparator for migration and
// failover target choice, negative when a ranks first. Feasible nodes rank by
// dependency count (the paper's rule) then satisfiable bandwidth; saturated
// fallbacks rank by satisfiable bandwidth first, where a single light
// co-located dependency must not outvote a heavy reachable one, then
// dependency count. Secondary: more free CPU, then name for determinism.
func compareCandidates(a, b *candidate) int {
	if a.feasible != b.feasible {
		if a.feasible {
			return -1
		}
		return 1
	}
	if a.feasible {
		if a.depCount != b.depCount {
			return cmp.Compare(b.depCount, a.depCount)
		}
		if a.score != b.score {
			return largerFirst(a.score, b.score)
		}
	} else {
		if a.score != b.score {
			return largerFirst(a.score, b.score)
		}
		if a.depCount != b.depCount {
			return cmp.Compare(b.depCount, a.depCount)
		}
	}
	if a.node.FreeCPU != b.node.FreeCPU {
		return largerFirst(a.node.FreeCPU, b.node.FreeCPU)
	}
	return strings.Compare(a.node.Name, b.node.Name)
}

// largerFirst orders the larger value first. An unordered pair (a NaN)
// compares equal, so the key decides nothing and the stable sort keeps node
// order.
func largerFirst(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// scoreboard renders the ranked s.cands plus the pre-filtered s.skipped as
// rows of the pooled board: the winner keeps rejectNone, feasible losers are
// outscored, infeasible ones lacked bandwidth — except a winning infeasible
// fallback, and bestHysteresis marks the case where the best fallback lost
// to the anti-thrash margin instead.
func (s *choiceScratch) scoreboard(chosen string, bestHysteresis bool) []obs.BoardRow {
	out := s.board[:0]
	for i := range s.cands {
		c := &s.cands[i]
		row := obs.BoardRow{Node: c.node.Name, Value: c.score, Want: float64(c.depCount),
			Local: c.local, Remote: c.remote}
		switch {
		case c.node.Name == chosen:
			row.Reason = rejectNone
		case i == 0 && bestHysteresis:
			row.Reason = rejectHysteresis
		case !c.feasible:
			row.Reason = rejectInsufficientBandwidth
		default:
			row.Reason = rejectOutscored
		}
		out = append(out, row)
	}
	s.board = append(out, s.skipped...)
	return s.board
}

// targetOptions resolves the optional trailing argument of the choosers.
func targetOptions(opts []TargetOptions) TargetOptions {
	if len(opts) == 0 {
		return TargetOptions{}
	}
	return opts[0]
}

// ChooseMigrationTarget picks the node to move a component to (§3.2.2): among
// nodes with sufficient CPU and memory, prefer the node hosting the most of
// the component's DAG neighbors (minimising inter-node transfer), requiring
// that every remote dependency's bandwidth fits within the path's available
// capacity plus headroom. Returns errNoBetterNode when no candidate beats
// the current placement. At most one TargetOptions is consulted; omitting it
// means no recorder.
func ChooseMigrationTarget(
	g *dag.Graph,
	component string,
	assignment Assignment,
	nodes []NodeInfo,
	pathAvail PathQuery,
	cfg MigrationConfig,
	opts ...TargetOptions,
) (string, error) {
	opt := targetOptions(opts)
	rec := opt.Recorder
	comp, err := g.Component(component)
	if err != nil {
		return "", err
	}
	if comp.Pinned() {
		return "", fmt.Errorf("%w: %q is pinned to %q", errNoBetterNode, component, comp.PinnedTo())
	}
	current, ok := assignment[component]
	if !ok {
		return "", fmt.Errorf("scheduler: component %q not in assignment", component)
	}
	s := choicePool.Get().(*choiceScratch)
	defer choicePool.Put(s)
	s.deps = placedNeighbors(s.deps, g, component, assignment)
	s.rankCandidates(comp, nodes, current, pathAvail, cfg.HeadroomMbps, rec)
	if len(s.cands) == 0 {
		if rec != nil {
			rec.RecordBoard(component, s.skipped)
		}
		return "", fmt.Errorf("%w: %q stays on %q", errNoBetterNode, component, current)
	}
	best := &s.cands[0]
	chosen := ""
	hysteresis := false
	if best.feasible {
		chosen = best.node.Name
	} else {
		// No node passes the bandwidth check — the network around the
		// component is saturated (the very situation that triggered the
		// migration). Fall back to the node that can satisfy the most of the
		// component's bandwidth, with a hysteresis margin over the current
		// placement so the component does not thrash. Accepting the best
		// partially-feasible node shifts the bottleneck onto edges whose
		// endpoints are movable, unlocking the progressive relocation the
		// paper observes in Table 1.
		currentScore := scoreCandidate(s.deps, current, pathAvail, cfg.HeadroomMbps).score
		if best.score > currentScore*1.05 {
			chosen = best.node.Name
		} else {
			hysteresis = true
		}
	}
	if rec != nil {
		rec.RecordBoard(component, s.scoreboard(chosen, hysteresis))
	}
	if chosen != "" {
		return chosen, nil
	}
	return "", fmt.Errorf("%w: %q stays on %q", errNoBetterNode, component, current)
}

// ChooseFailoverTarget picks a node for a component whose host died. It is
// ChooseMigrationTarget without a current placement: there is no "stay put"
// option and no hysteresis — the component is down, so ANY node that fits its
// CPU and memory beats leaving it dead. Bandwidth-feasible candidates (every
// placed remote dependency fits in path headroom) rank first by dependency
// count then satisfiable bandwidth, exactly like migration; when none is
// feasible the best partially-feasible node wins outright — unless
// TargetOptions.Strict, which returns errNoFeasibleNode instead so the caller
// can escalate. nodes must already exclude dead or cordoned hosts; assignment
// must not contain components stranded on dead nodes (their paths would be
// meaningless). Only when no node has the CPU and memory does it return
// errNoFailoverNode — the caller queues the component until capacity returns.
func ChooseFailoverTarget(
	g *dag.Graph,
	component string,
	assignment Assignment,
	nodes []NodeInfo,
	pathAvail PathQuery,
	cfg MigrationConfig,
	opts ...TargetOptions,
) (string, error) {
	opt := targetOptions(opts)
	rec := opt.Recorder
	comp, err := g.Component(component)
	if err != nil {
		return "", err
	}
	s := choicePool.Get().(*choiceScratch)
	defer choicePool.Put(s)
	if comp.Pinned() {
		// A pinned component can only ever run on its pinned node; if that
		// node is not among the survivors, the component waits for it.
		// Strictness adds nothing beyond the fits() check.
		chosen := ""
		for _, n := range nodes {
			if n.Name == comp.PinnedTo() && fits(n, comp) {
				chosen = n.Name
				break
			}
		}
		if rec != nil {
			board := s.board[:0]
			for _, n := range nodes {
				row := obs.BoardRow{Node: n.Name, Reason: rejectPinnedElsewhere}
				if n.Name == comp.PinnedTo() {
					row.Reason = rejectNoCapacity
					if fits(n, comp) {
						row.Reason = rejectNone
					}
				}
				board = append(board, row)
			}
			s.board = board
			rec.RecordBoard(component, board)
		}
		if chosen != "" {
			return chosen, nil
		}
		return "", fmt.Errorf("%w: %q pinned to %q", errNoFailoverNode, component, comp.PinnedTo())
	}
	s.deps = placedNeighbors(s.deps, g, component, assignment)
	s.rankCandidates(comp, nodes, "", pathAvail, cfg.HeadroomMbps, rec)
	if len(s.cands) == 0 {
		if rec != nil {
			rec.RecordBoard(component, s.skipped)
		}
		return "", fmt.Errorf("%w: %q", errNoFailoverNode, component)
	}
	// The component is down: ANY node that fits beats leaving it dead, so
	// even an infeasible best candidate wins outright — no hysteresis. Strict
	// callers claim a placement only when the network can carry the result.
	chosen := s.cands[0].node.Name
	if opt.Strict && !s.cands[0].feasible {
		chosen = ""
	}
	if rec != nil {
		rec.RecordBoard(component, s.scoreboard(chosen, false))
	}
	if chosen == "" {
		return "", fmt.Errorf("%w: %q", errNoFeasibleNode, component)
	}
	return chosen, nil
}
