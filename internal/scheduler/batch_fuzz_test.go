package scheduler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bass/internal/dag"
	"bass/internal/obs"
)

// refBatchSchedule is Batch.Schedule over the name-keyed search this package
// ran before the search moved to dense ids: maps of component and host names,
// a memo keyed by name pairs, one cloned Assignment per candidate and a full
// re-evaluation of every node for each move. It is kept verbatim as the
// reference the dense search must match bit for bit, with its own copies of
// the objective's compute weight (0.25) and the relocation neighbourhood
// width (8).
func refBatchSchedule(b *Batch, g *dag.Graph, nodes []NodeInfo, rec Recorder) (Assignment, error) {
	seeded, err := b.seed.Schedule(g, nodes, rec)
	if err != nil || b.cfg.MoveBudget <= 0 {
		return seeded, err
	}
	s, ok := newRefBatchSearch(g, nodes, b.cfg, 0.25, 8, b.pathAvail, rec)
	if !ok {
		return seeded, nil
	}
	if improved, best := s.run(seeded); improved {
		return best, nil
	}
	return seeded, nil
}

type refBatchEdge struct {
	from, to string
	w        float64
}

type refBatchDep struct {
	name string
	w    float64
}

type refBatchState struct {
	assign  Assignment
	key     string
	score   float64
	netFrac float64
	balance float64
}

type refNodePair struct{ from, to string }

type refBatchSearch struct {
	cfg       BatchConfig
	pathAvail PathQuery
	rec       Recorder
	rng       *rand.Rand

	computeWeight float64
	neighborhood  int

	comps      []string
	movable    []string
	compByName map[string]*dag.Component
	edges      []refBatchEdge
	totalW     float64
	deps       map[string][]refBatchDep

	nodes      []NodeInfo
	nodeByName map[string]int

	budget   int
	frontier []refBatchState
	seen     map[string]bool
	pathMemo map[refNodePair]float64

	usedCPU, usedMem []float64
}

func newRefBatchSearch(g *dag.Graph, nodes []NodeInfo, cfg BatchConfig, computeWeight float64, neighborhood int, pathAvail PathQuery, rec Recorder) (*refBatchSearch, bool) {
	s := &refBatchSearch{
		cfg:        cfg,
		pathAvail:  pathAvail,
		rec:        rec,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		comps:      g.Components(),
		compByName: make(map[string]*dag.Component),
		deps:       make(map[string][]refBatchDep),
		nodes:      nodes,
		nodeByName: make(map[string]int, len(nodes)),
		budget:     cfg.MoveBudget,
		seen:       make(map[string]bool),
		pathMemo:   make(map[refNodePair]float64),
		usedCPU:    make([]float64, len(nodes)),
		usedMem:    make([]float64, len(nodes)),

		computeWeight: computeWeight,
		neighborhood:  neighborhood,
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
			s.edges = append(s.edges, refBatchEdge{from: name, to: e.To, w: e.BandwidthMbps})
			s.totalW += e.BandwidthMbps
		}
		var dl []refBatchDep
		for dep, w := range g.Neighbors(name) {
			dl = append(dl, refBatchDep{name: dep, w: w})
		}
		sort.Slice(dl, func(i, j int) bool { return dl[i].name < dl[j].name })
		for _, d := range dl {
			totalBW[name] += d.w
		}
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
	sort.SliceStable(s.movable, func(i, j int) bool {
		if totalBW[s.movable[i]] != totalBW[s.movable[j]] {
			return totalBW[s.movable[i]] > totalBW[s.movable[j]]
		}
		return s.movable[i] < s.movable[j]
	})
	return s, len(s.movable) > 0 && len(s.nodes) > 1
}

func (s *refBatchSearch) avail(from, to string) float64 {
	key := refNodePair{from, to}
	if v, ok := s.pathMemo[key]; ok {
		return v
	}
	v := s.pathAvail(from, to)
	s.pathMemo[key] = v
	return v
}

func (s *refBatchSearch) eval(a Assignment) (refBatchState, bool) {
	for i := range s.nodes {
		s.usedCPU[i], s.usedMem[i] = 0, 0
	}
	for _, name := range s.comps {
		idx, ok := s.nodeByName[a[name]]
		if !ok {
			continue
		}
		comp := s.compByName[name]
		s.usedCPU[idx] += comp.CPU
		s.usedMem[idx] += comp.MemoryMB
	}
	const eps = 1e-9
	worst := 0.0
	for i, n := range s.nodes {
		if s.usedCPU[i] > n.FreeCPU+eps || s.usedMem[i] > n.FreeMemoryMB+eps {
			return refBatchState{}, false
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
	st := refBatchState{assign: a, key: refJointKey(s.comps, a), balance: 1 - math.Min(worst, 1)}
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
	st.score = st.netFrac + s.computeWeight*st.balance
	return st, true
}

func refJointKey(comps []string, a Assignment) string {
	var sb strings.Builder
	for _, c := range comps {
		sb.WriteString(c)
		sb.WriteByte('=')
		sb.WriteString(a[c])
		sb.WriteByte(';')
	}
	return sb.String()
}

func (s *refBatchSearch) insert(st refBatchState) bool {
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

func (s *refBatchSearch) run(seeded Assignment) (bool, Assignment) {
	seedState, ok := s.eval(seeded.Clone())
	if !ok {
		return false, nil
	}
	s.seen[seedState.key] = true
	s.frontier = []refBatchState{seedState}
	for s.budget > 0 {
		changed := false
		base := append([]refBatchState(nil), s.frontier...)
		for _, st := range base {
			if s.budget <= 0 {
				break
			}
			if s.expand(st) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	best := s.frontier[0]
	improved := best.score > seedState.score+batchEps*math.Max(math.Abs(seedState.score), 1)
	if s.rec != nil {
		greedyRej, batchRej := rejectOutscored, rejectNone
		if !improved {
			greedyRej, batchRej = rejectNone, rejectOutscored
		}
		s.rec.RecordBoard("joint", []obs.BoardRow{
			{Node: "greedy", Value: seedState.score,
				Local: seedState.netFrac, Remote: seedState.balance, Reason: greedyRej},
			{Node: "batch", Value: best.score,
				Local: best.netFrac, Remote: best.balance, Reason: batchRej},
		})
	}
	if !improved {
		return false, nil
	}
	return true, best.assign
}

func (s *refBatchSearch) expand(st refBatchState) bool {
	changed := false
	for _, comp := range s.movable {
		if s.budget <= 0 {
			break
		}
		current := st.assign[comp]
		targets := s.relocationTargets(comp, st.assign, current)
		var rows []obs.BoardRow
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
				row := obs.BoardRow{Node: target, Reason: rejectNoCapacity}
				if feasible {
					row.Value, row.Local, row.Remote = cand.score, cand.netFrac, cand.balance
					row.Reason = rejectOutscored
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
					rows[i].Reason = rejectNone
				}
			}
			s.rec.RecordBoard(comp, rows)
		}
	}
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
			row := obs.BoardRow{Node: nt, Reason: rejectNoCapacity}
			if feasible {
				row.Value, row.Local, row.Remote = cand.score, cand.netFrac, cand.balance
				if cand.score > st.score+batchEps {
					row.Reason = rejectNone
				} else {
					row.Reason = rejectOutscored
				}
			}
			s.rec.RecordBoard(e.from+"<->"+e.to, []obs.BoardRow{row})
		}
	}
	return changed
}

func (s *refBatchSearch) isMovable(comp string) bool {
	c, ok := s.compByName[comp]
	return ok && !c.Pinned()
}

func (s *refBatchSearch) relocationTargets(comp string, a Assignment, current string) []string {
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
	limit := s.neighborhood
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

// pathLog is a PathQuery that answers from a fixed function and logs every
// call, so two searches can be checked for the same oracle call sequence.
type pathLog struct {
	answer func(from, to string) float64
	calls  []string
}

func (l *pathLog) query(from, to string) float64 {
	l.calls = append(l.calls, from+">"+to)
	return l.answer(from, to)
}

// Value palettes for the batch fuzzer. Repeated entries make exact ties
// common; the path palette has zero, a negative, NaN and +Inf, which the
// satisfiable-bandwidth rule must treat the same way in both searches.
var (
	batchFuzzFreeCPU  = []float64{0, 0.25, 0.5, 0.5, 0.75, 1, 1, 2, 4}
	batchFuzzTotalCPU = []float64{0, 1, 1, 2, 4}
	batchFuzzFreeMem  = []float64{0, 64, 256, 256, 4096}
	batchFuzzTotalMem = []float64{0, 256, 4096, 4096}
	batchFuzzCompCPU  = []float64{0, 0.1, 0.25, 0.25, 0.5}
	batchFuzzCompMem  = []float64{0, 0, 32, 64}
	batchFuzzEdge     = []float64{0, 0.1, 0.2, 0.3, 0.6, 1, 4, 4, 12, math.NaN()}
	batchFuzzPath     = []float64{0, -1, 0.1, 0.3, 1, 4, 4, 12, 100, math.NaN(), math.Inf(1)}
)

// batchFixture is one decoded batch placement problem.
type batchFixture struct {
	g     *dag.Graph
	nodes []NodeInfo
	cfg   BatchConfig
	paths func(from, to string) float64 // nil: no path oracle
}

// decodeBatchFixture turns fuzz bytes into a DAG of 2–12 components whose
// ends are pinned (possibly to "ext", a host outside the node list), 2–40
// nodes named n1…nN in a shuffled order (so n1 and n10 meet, sometimes with
// a bare "n" that prefixes them all or one name listed twice), tight and
// tied capacities, a per-pair path table and a random search configuration.
func decodeBatchFixture(data []byte) batchFixture {
	s := byteStream(data)
	nodes := make([]NodeInfo, 2+s.next()%39)
	for i := range nodes {
		nodes[i].Name = fmt.Sprintf("n%d", i+1)
	}
	switch s.next() % 8 {
	case 0, 1:
		nodes[0].Name = "n"
	case 2:
		nodes[len(nodes)-1].Name = nodes[0].Name // a name listed twice
	}
	for i := len(nodes) - 1; i > 0; i-- {
		j := s.next() % (i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	hostByte := map[string]int{"ext": s.next()}
	for i := range nodes {
		n := &nodes[i]
		n.FreeCPU, n.TotalCPU = pick(&s, batchFuzzFreeCPU), pick(&s, batchFuzzTotalCPU)
		n.FreeMemoryMB, n.TotalMemoryMB = pick(&s, batchFuzzFreeMem), pick(&s, batchFuzzTotalMem)
		n.LinkCapacityMbps = float64(s.next() % 4 * 10)
		hostByte[n.Name] = s.next()
	}

	fx := batchFixture{g: dag.NewGraph("fuzz"), nodes: nodes}
	nComps := 2 + s.next()%11
	for i := 0; i < nComps; i++ {
		c := dag.Component{Name: fmt.Sprintf("c%d", i), CPU: pick(&s, batchFuzzCompCPU), MemoryMB: pick(&s, batchFuzzCompMem)}
		if end := i == 0 || i == nComps-1; end || s.next()%8 == 0 {
			if h := s.next() % (len(nodes) + 1); h < len(nodes) {
				c.Labels = dag.Pin(nodes[h].Name)
			} else {
				c.Labels = dag.Pin("ext") // external endpoints consume nothing
				c.CPU, c.MemoryMB = 0, 0
			}
		}
		fx.g.MustAddComponent(c)
	}
	for i := 1; i < nComps; i++ {
		fx.g.MustAddEdge(fmt.Sprintf("c%d", i-1), fmt.Sprintf("c%d", i), pick(&s, batchFuzzEdge))
	}
	for k := s.next() % (nComps + 1); k > 0; k-- {
		from := s.next() % nComps
		to := from + 2 + s.next()%nComps
		if to < nComps {
			_ = fx.g.AddEdge(fmt.Sprintf("c%d", from), fmt.Sprintf("c%d", to), pick(&s, batchFuzzEdge))
		}
	}

	fx.cfg = BatchConfig{
		MoveBudget: 1 + s.next() + s.next()%2*s.next(),
		K:          s.next() % 7,
		Seed:       int64(s.next()),
	}
	if salt := s.next(); salt%8 != 0 {
		fx.paths = func(from, to string) float64 {
			return batchFuzzPath[(hostByte[from]*31+hostByte[to]*17+salt)%len(batchFuzzPath)]
		}
	}
	return fx
}

// schedule runs one batch placement with the recorder on, through the
// package's search (ref false) or the reference, and reports the assignment,
// the error, every scoreboard and the path-oracle call sequence.
func (fx batchFixture) schedule(ref bool) (Assignment, error, []board, []string) {
	b := NewBatch(NewBass(HeuristicLongestPath), fx.cfg)
	log := &pathLog{answer: fx.paths}
	if fx.paths != nil {
		b.SetPathQuery(log.query)
	}
	rec := &captureRecorder{}
	var a Assignment
	var err error
	if ref {
		a, err = refBatchSchedule(b, fx.g, fx.nodes, rec)
	} else {
		a, err = b.Schedule(fx.g, fx.nodes, rec)
	}
	return a, err, rec.boards, log.calls
}

// boardText renders scoreboards, one line each, with every float in
// shortest round-trip form, so NaN scores compare equal to themselves.
func boardText(boards []board) string {
	var sb strings.Builder
	for _, b := range boards {
		fmt.Fprintf(&sb, "%s %+v\n", b.Component, b.Rows)
	}
	return sb.String()
}

// FuzzBatchMatchesReference checks the batch search against the name-keyed
// reference on random DAGs, node lists, path tables and configurations:
// equal assignments and errors, equal scoreboards row for row, and the same
// sequence of path-oracle calls (the oracle caches and counts its lookups, so
// the order of first calls is observable).
func FuzzBatchMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 1, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte{38, 0, 7, 11, 200, 3, 2, 1, 0, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 10, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 40, 3, 8, 255, 9, 4, 77, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := decodeBatchFixture(data)
		got, gotErr, gotBoards, gotCalls := fx.schedule(false)
		want, wantErr, wantBoards, wantCalls := fx.schedule(true)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("assignment %v, reference %v", got, want)
		}
		if g, w := boardText(gotBoards), boardText(wantBoards); g != w {
			t.Fatalf("scoreboards diverge from the reference:\n%s\nvs\n%s", g, w)
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("path-oracle calls diverge:\n%v\nvs\n%v", gotCalls, wantCalls)
		}
	})
}

// batchPipeNodes is an n-node list named n0…n(n-1), unpadded so that n1 and
// n10 meet, with 1 CPU free of 2 on most nodes and less on some.
func batchPipeNodes(n int) []NodeInfo {
	nodes := make([]NodeInfo, n)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("n%d", i), FreeCPU: []float64{1, 1, 0.5, 0.25}[i%4], FreeMemoryMB: 4096,
			TotalCPU: 2, TotalMemoryMB: 4096, LinkCapacityMbps: float64(10 + i%7)}
	}
	return nodes
}

// batchPipe is city-batch's application: a five-stage pipeline
// in→f1→f2→f3→out with skip edges in→f2 and f2→out at 40 % of the 12 Mbps
// main demand, ends pinned to src and dst, middles movable.
func batchPipe(app, src, dst string) *dag.Graph {
	g := dag.NewGraph(app)
	in, f1, f2, f3, out := "in-"+app, "f1-"+app, "f2-"+app, "f3-"+app, "out-"+app
	g.MustAddComponent(dag.Component{Name: in, Labels: dag.Pin(src)})
	for _, f := range []string{f1, f2, f3} {
		g.MustAddComponent(dag.Component{Name: f, CPU: 0.25})
	}
	g.MustAddComponent(dag.Component{Name: out, Labels: dag.Pin(dst)})
	for _, e := range [][2]string{{in, f1}, {f1, f2}, {f2, f3}, {f3, out}} {
		g.MustAddEdge(e[0], e[1], 12)
	}
	g.MustAddEdge(in, f2, 4.8)
	g.MustAddEdge(f2, out, 4.8)
	return g
}

// batchPipePaths is a deterministic path table: spare Mbps from a hash of
// the pair, with zeros, exact ties and values on both sides of the demand.
func batchPipePaths(from, to string) float64 {
	h := uint32(2166136261) // FNV-1a over from, '>', to
	for _, c := range []byte(from + ">" + to) {
		h = (h ^ uint32(c)) * 16777619
	}
	return [...]float64{0, 2, 4.8, 6, 12, 12, 20, 40}[h%8]
}

// TestBatchSearchGolden pins positive-budget batch searches: the assignments
// and every scoreboard of four pipelines on 196 nodes at three seeds, as one
// SHA-256. The digest was captured from the name-keyed search, projecting its
// recorded candidates onto journal rows exactly as the journal stored them.
func TestBatchSearchGolden(t *testing.T) {
	const want = "03c9c3724f99e8aa043738d5069fe24f595dbd0cc2b602da51119002d8d39557"
	nodes := batchPipeNodes(196)
	h := sha256.New()
	improved := 0
	for _, seed := range []int64{1, 42, 1337} {
		for i, ends := range [][2]string{{"n1", "n10"}, {"n10", "n1"}, {"n7", "n150"}, {"n99", "n100"}} {
			b := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 256, Seed: seed})
			b.SetPathQuery(batchPipePaths)
			rec := &captureRecorder{}
			a, err := b.Schedule(batchPipe(fmt.Sprintf("p%d", i), ends[0], ends[1]), nodes, rec)
			if err != nil {
				t.Fatal(err)
			}
			comps := make([]string, 0, len(a))
			for c := range a {
				comps = append(comps, c)
			}
			sort.Strings(comps)
			for _, c := range comps {
				fmt.Fprintf(h, "%s=%s;", c, a[c])
			}
			io.WriteString(h, boardText(rec.boards))
			if last := rec.boards[len(rec.boards)-1]; last.chosen() == "batch" {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Error("no search beat its greedy seed: the golden pins no search at all")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("batch search digest = %s, want %s", got, want)
	}
}
