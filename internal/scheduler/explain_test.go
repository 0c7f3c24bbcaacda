package scheduler

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bass/internal/dag"
)

// captureRecorder collects explanations for assertion. It clones each
// scoreboard: the choosers hand over a board they reuse for the next choice.
type captureRecorder struct {
	explanations []Explanation
}

func (r *captureRecorder) RecordExplanation(ex Explanation) {
	ex.Candidates = slices.Clone(ex.Candidates)
	r.explanations = append(r.explanations, ex)
}

// explainNodes builds a small cluster for target-choice tests.
func explainNodes() []NodeInfo {
	return []NodeInfo{
		{Name: "n1", FreeCPU: 4, FreeMemoryMB: 4096},
		{Name: "n2", FreeCPU: 4, FreeMemoryMB: 4096},
		{Name: "n3", FreeCPU: 4, FreeMemoryMB: 4096},
		{Name: "tiny", FreeCPU: 0.1, FreeMemoryMB: 64},
	}
}

// betterCandidate reports whether a ranks strictly before b.
func betterCandidate(a, b candidate) bool { return compareCandidates(&a, &b) < 0 }

// TestBetterCandidateTieBreakOrder pins the comparator's tie-break order —
// the one comparator both migration and failover sort with: feasibility,
// then (depCount, score) for feasible / (score, depCount) for saturated
// fallbacks, then free CPU, then name.
func TestBetterCandidateTieBreakOrder(t *testing.T) {
	n := func(name string, cpu float64) NodeInfo { return NodeInfo{Name: name, FreeCPU: cpu} }
	cases := []struct {
		name string
		a, b candidate
		want bool // betterCandidate(a, b)
	}{
		{"feasible beats infeasible",
			candidate{node: n("a", 0), feasible: true},
			candidate{node: n("b", 9), feasible: false, score: 99, depCount: 9}, true},
		{"feasible: depCount before score",
			candidate{node: n("a", 0), feasible: true, depCount: 2, score: 1},
			candidate{node: n("b", 0), feasible: true, depCount: 1, score: 50}, true},
		{"feasible: score breaks depCount tie",
			candidate{node: n("a", 0), feasible: true, depCount: 1, score: 50},
			candidate{node: n("b", 0), feasible: true, depCount: 1, score: 1}, true},
		{"infeasible: score before depCount",
			candidate{node: n("a", 0), score: 50, depCount: 0},
			candidate{node: n("b", 0), score: 1, depCount: 9}, true},
		{"infeasible: depCount breaks score tie",
			candidate{node: n("a", 0), score: 5, depCount: 2},
			candidate{node: n("b", 0), score: 5, depCount: 1}, true},
		{"free CPU breaks full tie",
			candidate{node: n("a", 8), feasible: true, depCount: 1, score: 5},
			candidate{node: n("b", 4), feasible: true, depCount: 1, score: 5}, true},
		{"name is the final tie-break",
			candidate{node: n("a", 4), feasible: true},
			candidate{node: n("b", 4), feasible: true}, true},
	}
	for _, tc := range cases {
		if got := betterCandidate(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: betterCandidate = %v, want %v", tc.name, got, tc.want)
		}
		// Strict weak ordering: a<b and b<a cannot both hold, and the
		// three-way result must flip sign with its arguments.
		if betterCandidate(tc.a, tc.b) && betterCandidate(tc.b, tc.a) {
			t.Errorf("%s: comparator is not antisymmetric", tc.name)
		}
		if ab, ba := compareCandidates(&tc.a, &tc.b), compareCandidates(&tc.b, &tc.a); ab != -ba {
			t.Errorf("%s: compare(a,b) = %d but compare(b,a) = %d", tc.name, ab, ba)
		}
	}
	self := candidate{node: n("a", 1), feasible: true, depCount: 1, score: 1}
	if betterCandidate(self, self) {
		t.Error("comparator is not irreflexive")
	}
}

func TestChooseMigrationTargetExplained(t *testing.T) {
	g := dag.NewGraph("pair")
	g.MustAddComponent(dag.Component{Name: "producer", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "consumer", CPU: 1})
	g.MustAddEdge("producer", "consumer", 8)
	assignment := Assignment{"producer": "n1", "consumer": "n2"}
	// Every inter-node path is saturated: only co-locating with the consumer
	// on n2 satisfies the edge.
	pathAvail := func(from, to string) float64 { return 1 }
	cfg := MigrationConfig{HeadroomMbps: 4}

	rec := &captureRecorder{}
	got, err := ChooseMigrationTarget(g, "producer", assignment, explainNodes(), pathAvail, cfg, TargetOptions{Recorder: rec})
	if err != nil || got != "n2" {
		t.Fatalf("chose %q, %v; want n2", got, err)
	}
	// Recorder must not change the outcome.
	plain, err := ChooseMigrationTarget(g, "producer", assignment, explainNodes(), pathAvail, cfg)
	if err != nil || plain != got {
		t.Fatalf("nil-recorder path chose %q, %v; explained chose %q", plain, err, got)
	}
	if len(rec.explanations) != 1 {
		t.Fatalf("recorded %d explanations, want 1", len(rec.explanations))
	}
	ex := rec.explanations[0]
	if ex.Kind != ChoiceMigration || ex.Component != "producer" || ex.Current != "n1" || ex.Chosen != "n2" {
		t.Fatalf("explanation header = %+v", ex)
	}
	byNode := make(map[string]CandidateScore)
	for _, cs := range ex.Candidates {
		byNode[cs.Node] = cs
	}
	if len(byNode) != 4 {
		t.Fatalf("scoreboard = %+v, want all 4 nodes", ex.Candidates)
	}
	if w := byNode["n2"]; w.Rejection != RejectNone || !w.Feasible || w.DepCount != 1 || w.LocalMbps != 8 || w.Score != 8 {
		t.Errorf("winner row = %+v", w)
	}
	if r := byNode["n3"]; r.Rejection != RejectInsufficientBandwidth || r.Feasible || r.RemoteMbps != 1 {
		t.Errorf("saturated row = %+v", r)
	}
	if r := byNode["n1"]; r.Rejection != RejectCurrentNode {
		t.Errorf("current-node row = %+v", r)
	}
	if r := byNode["tiny"]; r.Rejection != RejectNoCapacity {
		t.Errorf("undersized row = %+v", r)
	}
}

func TestChooseMigrationTargetExplainsHysteresis(t *testing.T) {
	g := dag.NewGraph("pair")
	g.MustAddComponent(dag.Component{Name: "producer", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "consumer", CPU: 1})
	g.MustAddEdge("producer", "consumer", 8)
	assignment := Assignment{"producer": "n1", "consumer": "n2"}
	// Everything is equally saturated: no move clears the hysteresis margin.
	pathAvail := func(from, to string) float64 { return 1 }
	nodes := []NodeInfo{
		{Name: "n1", FreeCPU: 4, FreeMemoryMB: 4096},
		{Name: "n3", FreeCPU: 4, FreeMemoryMB: 4096},
	}
	rec := &captureRecorder{}
	_, err := ChooseMigrationTarget(g, "producer", assignment, nodes, pathAvail, MigrationConfig{HeadroomMbps: 4}, TargetOptions{Recorder: rec})
	if err == nil {
		t.Fatal("saturated mesh produced a move")
	}
	ex := rec.explanations[0]
	if ex.Chosen != "" {
		t.Fatalf("chosen = %q, want none", ex.Chosen)
	}
	found := false
	for _, cs := range ex.Candidates {
		if cs.Node == "n3" {
			found = true
			if cs.Rejection != RejectHysteresis {
				t.Errorf("best fallback rejection = %q, want %q", cs.Rejection, RejectHysteresis)
			}
		}
	}
	if !found {
		t.Fatalf("n3 missing from scoreboard: %+v", ex.Candidates)
	}
}

func TestChooseFailoverTargetExplained(t *testing.T) {
	g := dag.NewGraph("pair")
	g.MustAddComponent(dag.Component{Name: "producer", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "consumer", CPU: 1})
	g.MustAddEdge("producer", "consumer", 8)
	assignment := Assignment{"consumer": "n2"}
	pathAvail := func(from, to string) float64 {
		if from == "n2" || to == "n2" {
			return 100
		}
		return 1
	}
	rec := &captureRecorder{}
	got, err := ChooseFailoverTarget(g, "producer", assignment, explainNodes(), pathAvail, MigrationConfig{HeadroomMbps: 4}, TargetOptions{Recorder: rec})
	if err != nil || got != "n2" {
		t.Fatalf("chose %q, %v; want n2", got, err)
	}
	plain, err := ChooseFailoverTarget(g, "producer", assignment, explainNodes(), pathAvail, MigrationConfig{HeadroomMbps: 4})
	if err != nil || plain != got {
		t.Fatalf("nil-recorder path chose %q, %v; explained chose %q", plain, err, got)
	}
	ex := rec.explanations[0]
	if ex.Kind != ChoiceFailover || ex.Chosen != "n2" {
		t.Fatalf("explanation header = %+v", ex)
	}
	var winner, tiny *CandidateScore
	for i := range ex.Candidates {
		switch ex.Candidates[i].Node {
		case "n2":
			winner = &ex.Candidates[i]
		case "tiny":
			tiny = &ex.Candidates[i]
		}
	}
	if winner == nil || winner.Rejection != RejectNone || winner.DepCount != 1 {
		t.Errorf("winner row = %+v", winner)
	}
	if tiny == nil || tiny.Rejection != RejectNoCapacity {
		t.Errorf("undersized row = %+v", tiny)
	}
}

func TestChooseFailoverTargetExplainsPinned(t *testing.T) {
	g := dag.NewGraph("cam")
	g.MustAddComponent(dag.Component{Name: "camera", CPU: 1, Labels: dag.Pin("n3")})
	rec := &captureRecorder{}
	got, err := ChooseFailoverTarget(g, "camera", Assignment{}, explainNodes(), nil, MigrationConfig{}, TargetOptions{Recorder: rec})
	if err != nil || got != "n3" {
		t.Fatalf("chose %q, %v; want pinned n3", got, err)
	}
	ex := rec.explanations[0]
	if ex.Chosen != "n3" {
		t.Fatalf("explanation = %+v", ex)
	}
	for _, cs := range ex.Candidates {
		want := RejectPinnedElsewhere
		if cs.Node == "n3" {
			want = RejectNone
		}
		if cs.Rejection != want {
			t.Errorf("node %s rejection = %q, want %q", cs.Node, cs.Rejection, want)
		}
	}
}

func TestScheduleExplainedMatchesSchedule(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "a", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "b", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "pin", CPU: 1, Labels: dag.Pin("n2")})
	g.MustAddEdge("a", "b", 5)
	g.MustAddEdge("b", "pin", 2)
	nodes := []NodeInfo{
		{Name: "n1", FreeCPU: 2, FreeMemoryMB: 2048, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 40},
		{Name: "n2", FreeCPU: 2, FreeMemoryMB: 2048, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 20},
	}
	for _, p := range []Policy{NewBass(HeuristicBFS), NewK3s()} {
		rec := &captureRecorder{}
		explained, err := p.Schedule(g, nodes, rec)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		plain, err := p.Schedule(g, nodes, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(explained, plain) {
			t.Errorf("%s: explained assignment %v differs from plain %v", p.Name(), explained, plain)
		}
		if len(rec.explanations) != g.NumComponents() {
			t.Fatalf("%s: %d explanations, want one per component (%d)",
				p.Name(), len(rec.explanations), g.NumComponents())
		}
		for _, ex := range rec.explanations {
			if ex.Kind != ChoiceSchedule {
				t.Errorf("%s: kind = %q", p.Name(), ex.Kind)
			}
			if ex.Chosen != plain[ex.Component] {
				t.Errorf("%s: explanation for %q chose %q, assignment says %q",
					p.Name(), ex.Component, ex.Chosen, plain[ex.Component])
			}
		}
	}
}

// TestCandidateScoresBitReproducible pins the accumulation order of candidate
// scoring: 0.1 + 0.2 + 0.3 rounds differently depending on which pair is
// summed first, so a loop over the Neighbors map would journal two different
// bit patterns for the same choice. Scoring walks the neighbors in sorted
// order; every repeat of an identical choice must produce identical bits.
func TestCandidateScoresBitReproducible(t *testing.T) {
	g := dag.NewGraph("hub")
	g.MustAddComponent(dag.Component{Name: "hub", CPU: 1})
	assignment := Assignment{"hub": "n1"}
	for i, dep := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: dep, CPU: 1})
		g.MustAddEdge("hub", dep, 0.1*float64(i+1))
		assignment[dep] = []string{"n2", "n3", "n4"}[i]
	}
	var nodes []NodeInfo
	for _, name := range []string{"n1", "n2", "n3", "n4", "n5"} {
		nodes = append(nodes, NodeInfo{Name: name, FreeCPU: 4, FreeMemoryMB: 4096})
	}
	pathAvail := func(from, to string) float64 { return 100 }

	type bits struct{ score, remote uint64 }
	seen := make(map[string]map[bits]int) // node → distinct bit patterns
	for i := 0; i < 500; i++ {
		rec := &captureRecorder{}
		if _, err := ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail,
			MigrationConfig{HeadroomMbps: 1}, TargetOptions{Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		for _, cs := range rec.explanations[0].Candidates {
			if seen[cs.Node] == nil {
				seen[cs.Node] = make(map[bits]int)
			}
			seen[cs.Node][bits{math.Float64bits(cs.Score), math.Float64bits(cs.RemoteMbps)}]++
		}
	}
	if len(seen["n5"]) == 0 {
		t.Fatal("n5 (all three neighbors remote) missing from the scoreboard")
	}
	for node, patterns := range seen {
		if len(patterns) != 1 {
			t.Errorf("node %s: %d distinct score bit patterns over identical choices: %v", node, len(patterns), patterns)
		}
	}
}

// TestFailoverStrictness covers the unified failover chooser's
// lenient and strict outcomes side by side.
func TestFailoverStrictness(t *testing.T) {
	pinned := dag.NewGraph("cam")
	pinned.MustAddComponent(dag.Component{Name: "producer", CPU: 1, Labels: dag.Pin("n3")})
	wide := func(from, to string) float64 { return 100 }
	saturated := func(from, to string) float64 { return 1 }
	cases := []struct {
		name       string
		g          *dag.Graph
		nodes      []NodeInfo
		pathAvail  PathQuery
		strict     bool
		want       string
		wantErr    error
		wantScored int // scoreboard rows that carry a score (fit CPU/memory)
	}{
		{name: "lenient takes the partially-feasible best", g: pairGraph(t), nodes: explainNodes()[2:], pathAvail: saturated,
			want: "n3", wantScored: 1},
		{name: "strict picks a feasible winner", g: pairGraph(t), nodes: explainNodes(), pathAvail: wide, strict: true,
			want: "n2", wantScored: 3},
		{name: "strict refuses partially-feasible candidates", g: pairGraph(t), nodes: explainNodes()[2:], pathAvail: saturated, strict: true,
			wantErr: ErrNoFeasibleNode, wantScored: 1},
		{name: "strict with no node that fits", g: pairGraph(t), nodes: explainNodes()[3:], pathAvail: wide, strict: true,
			wantErr: ErrNoFailoverNode},
		{name: "pinned ignores strictness", g: pinned, nodes: explainNodes(), pathAvail: saturated, strict: true,
			want: "n3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &captureRecorder{}
			got, err := ChooseFailoverTarget(tc.g, "producer", Assignment{"consumer": "n2"}, tc.nodes, tc.pathAvail,
				MigrationConfig{HeadroomMbps: 4}, TargetOptions{Recorder: rec, Strict: tc.strict})
			if got != tc.want || !errors.Is(err, tc.wantErr) {
				t.Fatalf("chose %q, %v; want %q, %v", got, err, tc.want, tc.wantErr)
			}
			if len(rec.explanations) != 1 {
				t.Fatalf("recorded %d explanations, want 1", len(rec.explanations))
			}
			ex := rec.explanations[0]
			if ex.Kind != ChoiceFailover || ex.Chosen != tc.want {
				t.Errorf("explanation header = %+v, want failover choosing %q", ex, tc.want)
			}
			if len(ex.Candidates) != len(tc.nodes) {
				t.Errorf("scoreboard has %d rows, want every node (%d): %+v", len(ex.Candidates), len(tc.nodes), ex.Candidates)
			}
			scored := 0
			for _, cs := range ex.Candidates {
				if cs.Score > 0 {
					scored++
				}
			}
			if scored != tc.wantScored {
				t.Errorf("%d scored rows, want %d: %+v", scored, tc.wantScored, ex.Candidates)
			}
		})
	}
}

// hubChoice is a 3-neighbour hub component on an n-node list. The
// neighbours sit shift nodes past n010, n020 and n030; path spare falls off
// with index distance, so rows differ and some nodes are feasible, some
// partially, some (FreeCPU 0) not at all.
func hubChoice(n, shift int) (*dag.Graph, Assignment, []NodeInfo, PathQuery) {
	g := dag.NewGraph("hub")
	g.MustAddComponent(dag.Component{Name: "hub", CPU: 1})
	assignment := Assignment{"hub": fmt.Sprintf("n%03d", shift)}
	for i, dep := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: dep, CPU: 1})
		g.MustAddEdge("hub", dep, 2*float64(i+1))
		assignment[dep] = fmt.Sprintf("n%03d", 10*(i+1)+shift)
	}
	nodes := make([]NodeInfo, n)
	index := make(map[string]int, n)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("n%03d", i), FreeCPU: float64(i % 3), FreeMemoryMB: 4096}
		index[nodes[i].Name] = i
	}
	pathAvail := func(from, to string) float64 {
		return 12 - math.Abs(float64(index[from]-index[to]))/8
	}
	return g, assignment, nodes, pathAvail
}

// TestTargetOptionsDoNotChangeTheChoice pins the recorder contract on a
// 128-node list: with or without a recorder, migration and failover return
// the same target, the scoreboard lists every node, and two recorded runs
// are deep-equal.
func TestTargetOptionsDoNotChangeTheChoice(t *testing.T) {
	const n = 128
	g, assignment, nodes, pathAvail := hubChoice(n, 0)
	cfg := MigrationConfig{HeadroomMbps: 1}
	choosers := map[string]func(opt TargetOptions) (string, error){
		"migration": func(opt TargetOptions) (string, error) {
			return ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt)
		},
		"failover": func(opt TargetOptions) (string, error) {
			return ChooseFailoverTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt)
		},
	}
	for name, choose := range choosers {
		t.Run(name, func(t *testing.T) {
			want, err := choose(TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var wantEx []Explanation
			for run := 0; run < 2; run++ {
				rec := &captureRecorder{}
				got, err := choose(TargetOptions{Recorder: rec})
				if err != nil || got != want {
					t.Errorf("run %d with recorder: chose %q, %v; want %q", run, got, err, want)
				}
				if len(rec.explanations) != 1 || len(rec.explanations[0].Candidates) != n {
					t.Fatalf("run %d: recorded %+v, want one explanation with %d rows", run, rec.explanations, n)
				}
				if wantEx == nil {
					wantEx = rec.explanations
				} else if !reflect.DeepEqual(rec.explanations, wantEx) {
					t.Errorf("run %d: explanation differs from the first recorded one", run)
				}
			}
		})
	}
}

// renderingRecorder is a captureRecorder that also renders each scoreboard
// to text while the call is in progress.
type renderingRecorder struct {
	captureRecorder
	rendered []string
}

func (r *renderingRecorder) RecordExplanation(ex Explanation) {
	r.rendered = append(r.rendered, fmt.Sprintf("%+v", ex.Candidates))
	r.captureRecorder.RecordExplanation(ex)
}

// TestRecordedBoardSurvivesNextChoice records two different choices back to
// back through one recorder. Each chooser hands its Recorder a board it
// reuses for the next choice, so a recorder that keeps rows must copy them:
// the first board kept must still read as it did when it was recorded.
func TestRecordedBoardSurvivesNextChoice(t *testing.T) {
	g, assignment, nodes, pathAvail := hubChoice(64, 0)
	g2, assignment2, nodes2, pathAvail2 := hubChoice(64, 7)
	cfg := MigrationConfig{HeadroomMbps: 1}
	rec := &renderingRecorder{}
	opt := TargetOptions{Recorder: rec}
	if _, err := ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := ChooseFailoverTarget(g2, "hub", assignment2, nodes2, pathAvail2, cfg, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBass(HeuristicBFS).Schedule(fig6Graph(t), testNodes(), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.explanations) != 2+7 {
		t.Fatalf("recorded %d explanations, want 9", len(rec.explanations))
	}
	if rec.rendered[0] == rec.rendered[1] {
		t.Fatal("the two target choices recorded the same board; the check below would prove nothing")
	}
	for i, ex := range rec.explanations {
		if got := fmt.Sprintf("%+v", ex.Candidates); got != rec.rendered[i] {
			t.Errorf("explanation %d (%s %s) changed after later choices:\n got %s\nwant %s",
				i, ex.Kind, ex.Component, got, rec.rendered[i])
		}
	}
}

// TestChoosersConcurrentMatchSerial runs the migration, failover and
// packing choosers from 8 goroutines at once, each on its own input, and
// checks every result and scoreboard against a serial run of the same input:
// concurrent passes must never share pooled scratch.
func TestChoosersConcurrentMatchSerial(t *testing.T) {
	type outcome struct {
		migration, failover string
		assignment          Assignment
		boards              []Explanation
	}
	run := func(i int) (outcome, error) {
		g, assignment, nodes, pathAvail := hubChoice(96+8*i, i)
		cfg := MigrationConfig{HeadroomMbps: float64(i % 3)}
		rec := &captureRecorder{}
		opt := TargetOptions{Recorder: rec}
		var out outcome
		var err error
		if out.migration, err = ChooseMigrationTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt); err != nil {
			return out, err
		}
		if out.failover, err = ChooseFailoverTarget(g, "hub", assignment, nodes, pathAvail, cfg, opt); err != nil {
			return out, err
		}
		app := randomDAG(rand.New(rand.NewSource(int64(i))), 6+i)
		out.assignment, err = NewBass(HeuristicLongestPath).Schedule(app, nodes[:16+i], rec)
		out.boards = rec.explanations
		return out, err
	}
	const workers = 8
	want := make([]outcome, workers)
	for i := range want {
		var err error
		if want[i], err = run(i); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got, err := run(i); err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("input %d, rep %d: concurrent run = %+v, %v; serial run = %+v", i, rep, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
