package scheduler

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"bass/internal/dag"
	"bass/internal/obs"
)

// Value palettes for the ranking fuzzer. Small palettes make exact ties
// common; NaN, ±0 and +Inf exercise the comparator's unordered and signed
// cases.
var (
	fuzzFreeCPU  = []float64{0, math.Copysign(0, -1), 1, 1, 2, 2.5, math.NaN()}
	fuzzFreeMem  = []float64{-1, 0, 64, 64, 128}
	fuzzLinkCap  = []float64{0, math.Copysign(0, -1), 10, 10, 20, 40, math.NaN()}
	fuzzEdge     = []float64{0, 1, 2, 2, 4, 0.1, math.NaN(), math.Inf(1)}
	fuzzAvail    = []float64{0, math.Copysign(0, -1), 0.5, 1, 3, 5, 100, math.NaN(), math.Inf(1)}
	fuzzHeadroom = []float64{0, 1, 4}
)

// byteStream hands out fuzz input one byte at a time, zero once exhausted.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

func pick(s *byteStream, palette []float64) float64 { return palette[s.next()%len(palette)] }

// rankFixture is one decoded choice: a component "x" with up to five placed
// neighbours, a node list, a per-pair path table and a headroom.
type rankFixture struct {
	g          *dag.Graph
	assignment Assignment
	nodes      []NodeInfo
	deps       []neighbor // x's placed neighbours, sorted by name
	pathAvail  PathQuery
	cfg        MigrationConfig
	current    string
}

func decodeRankFixture(data []byte) rankFixture {
	s := byteStream(data)
	// Up to 48 nodes: past the stable sort's 20-element insertion blocks, so
	// the merge phase runs too.
	nodes := make([]NodeInfo, 1+s.next()%48)
	nodeByte := make(map[string]int, len(nodes)+1)
	for i := range nodes {
		nodes[i] = NodeInfo{
			Name:             fmt.Sprintf("n%02d", i),
			FreeCPU:          pick(&s, fuzzFreeCPU),
			FreeMemoryMB:     pick(&s, fuzzFreeMem),
			LinkCapacityMbps: pick(&s, fuzzLinkCap),
		}
		nodeByte[nodes[i].Name] = s.next()
	}
	nodeByte["ext"] = s.next() // a host outside the schedulable list

	host := func() string {
		if i := s.next() % (len(nodes) + 1); i < len(nodes) {
			return nodes[i].Name
		}
		return "ext"
	}
	fx := rankFixture{g: dag.NewGraph("fuzz"), assignment: Assignment{}, nodes: nodes}
	fx.g.MustAddComponent(dag.Component{Name: "x"})
	fx.current = host()
	fx.assignment["x"] = fx.current
	for i, k := 0, s.next()%6; i < k; i++ {
		name := fmt.Sprintf("d%d", i)
		node := host()
		c := dag.Component{Name: name}
		weight := 1.0
		if s.next()%4 == 0 {
			c.Labels = dag.Pin(node)
			weight = 2
		}
		fx.g.MustAddComponent(c)
		mbps := pick(&s, fuzzEdge)
		fx.g.MustAddEdge("x", name, mbps)
		fx.assignment[name] = node
		fx.deps = append(fx.deps, neighbor{name: name, node: node, mbps: mbps, weight: weight})
	}
	fx.cfg = MigrationConfig{HeadroomMbps: pick(&s, fuzzHeadroom)}
	fx.pathAvail = func(from, to string) float64 {
		return fuzzAvail[(nodeByte[from]+3*nodeByte[to])%len(fuzzAvail)]
	}
	return fx
}

// refRank is the reference ranking: every node that is not current and fits
// x, scored in node order and stable-sorted by value with the comparator.
func (fx rankFixture) refRank(current string) (ranked []candidate, skipped []obs.BoardRow) {
	comp, _ := fx.g.Component("x")
	for _, n := range fx.nodes {
		switch {
		case n.Name == current:
			skipped = append(skipped, obs.BoardRow{Node: n.Name, Reason: rejectCurrentNode})
		case !fits(n, comp):
			skipped = append(skipped, obs.BoardRow{Node: n.Name, Reason: rejectNoCapacity})
		default:
			c := scoreCandidate(fx.deps, n.Name, fx.pathAvail, fx.cfg.HeadroomMbps)
			c.node = n
			ranked = append(ranked, c)
		}
	}
	slices.SortStableFunc(ranked, func(a, b candidate) int { return compareCandidates(&a, &b) })
	return ranked, skipped
}

// refBoard labels the reference rows the way a recorded scoreboard does.
func refBoard(ranked []candidate, chosen string, hysteresis bool, skipped []obs.BoardRow) []obs.BoardRow {
	var out []obs.BoardRow
	for i, c := range ranked {
		row := obs.BoardRow{Node: c.node.Name, Want: float64(c.depCount),
			Value: c.score, Local: c.local, Remote: c.remote, Reason: rejectOutscored}
		switch {
		case c.node.Name == chosen:
			row.Reason = rejectNone
		case i == 0 && hysteresis:
			row.Reason = rejectHysteresis
		case !c.feasible:
			row.Reason = rejectInsufficientBandwidth
		}
		out = append(out, row)
	}
	return append(out, skipped...)
}

// sameRow compares two scoreboard rows, floats by bit pattern.
func sameRow(a, b obs.BoardRow) bool {
	bits := math.Float64bits
	return a.Node == b.Node && a.Reason == b.Reason && bits(a.Want) == bits(b.Want) &&
		bits(a.Value) == bits(b.Value) && bits(a.Local) == bits(b.Local) && bits(a.Remote) == bits(b.Remote)
}

func checkBoard(t *testing.T, kind string, got, want []obs.BoardRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scoreboard has %d rows, want %d:\n got %+v\nwant %+v", kind, len(got), len(want), got, want)
	}
	for i := range want {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("%s: row %d = %+v, want %+v", kind, i, got[i], want[i])
		}
	}
}

// refScoreNodes is scoreNodes written with sort.SliceStable over nodeRank
// values.
func refScoreNodes(nodes []NodeInfo) []nodeRank {
	var maxCPU, maxMem, maxLink float64
	for _, n := range nodes {
		maxCPU = maxf(maxCPU, n.FreeCPU)
		maxMem = maxf(maxMem, n.FreeMemoryMB)
		maxLink = maxf(maxLink, n.LinkCapacityMbps)
	}
	out := make([]nodeRank, len(nodes))
	for i, n := range nodes {
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
		out[i] = r
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Node.Name < out[j].Node.Name
	})
	return out
}

// FuzzRankMatchesValueSort decodes a component's placed neighbours, a node
// list with tied, signed-zero and NaN capacities, and a path table with tied,
// NaN and infinite spares. The migration and failover choosers must pick the
// winner and record the scoreboard — row order, labels and score bits — that
// a stable sort of candidate values gives, and scoreNodes must return what
// the sort.SliceStable formulation returns, bit for bit.
func FuzzRankMatchesValueSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 2, 0, 2, 4, 2, 0, 2, 4, 2, 0, 9, 1, 3, 0, 1, 5, 2, 1, 0, 7, 1})
	tied := []byte{47}
	for i := 0; i < 48; i++ {
		tied = append(tied, byte(i%3), 2, byte(i%2), byte(i%5))
	}
	f.Add(append(tied, 1, 0, 5, 1, 1, 3, 2, 0, 4, 3, 1, 6, 4, 0, 1, 5, 0, 2, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		fx := decodeRankFixture(data)

		// Failover: every fitting node competes; the best wins outright.
		ranked, skipped := fx.refRank("")
		rec := &captureRecorder{}
		got, err := ChooseFailoverTarget(fx.g, "x", fx.assignment, fx.nodes, fx.pathAvail, fx.cfg, TargetOptions{Recorder: rec})
		plain, plainErr := ChooseFailoverTarget(fx.g, "x", fx.assignment, fx.nodes, fx.pathAvail, fx.cfg)
		if got != plain || (err == nil) != (plainErr == nil) {
			t.Fatalf("failover: recorder changed the choice: %q, %v vs %q, %v", got, err, plain, plainErr)
		}
		want := ""
		if len(ranked) > 0 {
			want = ranked[0].node.Name
		}
		if got != want || (want == "") != errors.Is(err, errNoFailoverNode) {
			t.Fatalf("failover chose %q, %v; want %q", got, err, want)
		}
		if len(rec.boards) != 1 {
			t.Fatalf("failover: recorded %d boards, want 1", len(rec.boards))
		}
		checkBoard(t, "failover", rec.boards[0].Rows, refBoard(ranked, want, false, skipped))

		// Migration: the current node is skipped, and an infeasible best must
		// clear the hysteresis margin over the current placement.
		ranked, skipped = fx.refRank(fx.current)
		rec = &captureRecorder{}
		got, err = ChooseMigrationTarget(fx.g, "x", fx.assignment, fx.nodes, fx.pathAvail, fx.cfg, TargetOptions{Recorder: rec})
		plain, plainErr = ChooseMigrationTarget(fx.g, "x", fx.assignment, fx.nodes, fx.pathAvail, fx.cfg)
		if got != plain || (err == nil) != (plainErr == nil) {
			t.Fatalf("migration: recorder changed the choice: %q, %v vs %q, %v", got, err, plain, plainErr)
		}
		want, hysteresis := "", false
		if len(ranked) > 0 {
			best := ranked[0]
			currentScore := scoreCandidate(fx.deps, fx.current, fx.pathAvail, fx.cfg.HeadroomMbps).score
			if best.feasible || best.score > currentScore*1.05 {
				want = best.node.Name
			} else {
				hysteresis = true
			}
		}
		if got != want || (want == "") != errors.Is(err, errNoBetterNode) {
			t.Fatalf("migration chose %q, %v; want %q", got, err, want)
		}
		if len(rec.boards) != 1 {
			t.Fatalf("migration: recorded %d boards, want 1", len(rec.boards))
		}
		checkBoard(t, "migration", rec.boards[0].Rows, refBoard(ranked, want, hysteresis, skipped))

		// Packing order: scoreNodes against the value sort.
		gotRanks, wantRanks := scoreNodes(fx.nodes), refScoreNodes(fx.nodes)
		if len(gotRanks) != len(wantRanks) {
			t.Fatalf("ScoreNodes returned %d rows, want %d", len(gotRanks), len(wantRanks))
		}
		bits := math.Float64bits
		for i := range wantRanks {
			g, w := gotRanks[i], wantRanks[i]
			if g.Node.Name != w.Node.Name || bits(g.Node.FreeCPU) != bits(w.Node.FreeCPU) ||
				bits(g.CPU) != bits(w.CPU) || bits(g.Mem) != bits(w.Mem) ||
				bits(g.Link) != bits(w.Link) || bits(g.Score) != bits(w.Score) {
				t.Fatalf("ScoreNodes row %d = %+v, want %+v", i, g, w)
			}
		}
	})
}
