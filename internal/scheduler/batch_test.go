package scheduler

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bass/internal/dag"
)

// batchTriangle builds the canonical batch-beats-greedy scenario: src pinned
// to a, dst pinned to c, one movable mid. The a–c path is nearly dead while
// a–b and b–c are wide, so joint scoring must pull mid onto the relay node b
// — a placement the path-oblivious greedy packer cannot find.
func batchTriangle(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.NewGraph("tri")
	g.MustAddComponent(dag.Component{Name: "src", CPU: 0.1, Labels: dag.Pin("a")})
	g.MustAddComponent(dag.Component{Name: "mid", CPU: 0.1})
	g.MustAddComponent(dag.Component{Name: "dst", CPU: 0.1, Labels: dag.Pin("c")})
	g.MustAddEdge("src", "mid", 10)
	g.MustAddEdge("mid", "dst", 10)
	return g
}

func batchTriangleNodes() []NodeInfo {
	return []NodeInfo{
		{Name: "a", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 100},
		{Name: "b", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 100},
		{Name: "c", FreeCPU: 4, FreeMemoryMB: 4096, TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 100},
	}
}

// trianglePaths is a PathQuery where only the a–c path is (nearly) dead.
func trianglePaths(from, to string) float64 {
	if from == to {
		return 100000
	}
	if (from == "a" && to == "c") || (from == "c" && to == "a") {
		return 1
	}
	return 100
}

func TestBatchZeroBudgetIsSeedExactly(t *testing.T) {
	g := batchTriangle(t)
	nodes := batchTriangleNodes()
	seed := NewBass(HeuristicLongestPath)
	batch := NewBatch(seed, BatchConfig{MoveBudget: 0, Seed: 7})
	batch.SetPathQuery(trianglePaths)

	if batch.Name() != seed.Name() {
		t.Errorf("zero-budget Name() = %q, want seed name %q", batch.Name(), seed.Name())
	}

	var greedyRec, batchRec captureRecorder
	want, err := seed.Schedule(g, nodes, &greedyRec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batch.Schedule(g, nodes, &batchRec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-budget assignment = %v, want greedy %v", got, want)
	}
	if !reflect.DeepEqual(batchRec.boards, greedyRec.boards) {
		t.Errorf("zero-budget scoreboards diverge from greedy:\n%+v\nvs\n%+v",
			batchRec.boards, greedyRec.boards)
	}
}

func TestBatchRelocatesOntoRelayNode(t *testing.T) {
	g := batchTriangle(t)
	batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
	batch.SetPathQuery(trianglePaths)

	greedy, err := NewBass(HeuristicLongestPath).Schedule(g, batchTriangleNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if greedy["mid"] == "b" {
		t.Fatalf("test premise broken: greedy already found the relay (%v)", greedy)
	}

	got, err := batch.Schedule(g, batchTriangleNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["mid"] != "b" {
		t.Errorf("batch placed mid on %q, want relay b (assignment %v)", got["mid"], got)
	}
	if got["src"] != "a" || got["dst"] != "c" {
		t.Errorf("batch moved pinned components: %v", got)
	}
	if batch.Name() != "batch-bass-longest-path" {
		t.Errorf("Name() = %q", batch.Name())
	}
}

func TestBatchDeterministicAcrossRuns(t *testing.T) {
	for run := 0; run < 5; run++ {
		g := batchTriangle(t)
		batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
		batch.SetPathQuery(trianglePaths)
		var rec captureRecorder
		got, err := batch.Schedule(g, batchTriangleNodes(), &rec)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			continue
		}
		// Compare against a fresh second evaluation within the same run
		// boundary: all runs must agree byte-for-byte.
		g2 := batchTriangle(t)
		batch2 := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
		batch2.SetPathQuery(trianglePaths)
		var rec2 captureRecorder
		got2, err := batch2.Schedule(g2, batchTriangleNodes(), &rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("run %d: assignments diverge: %v vs %v", run, got, got2)
		}
		if !reflect.DeepEqual(rec.boards, rec2.boards) {
			t.Fatalf("run %d: scoreboards diverge", run)
		}
	}
}

func TestBatchRecordsSearchAndVerdict(t *testing.T) {
	g := batchTriangle(t)
	batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
	batch.SetPathQuery(trianglePaths)
	var rec captureRecorder
	if _, err := batch.Schedule(g, batchTriangleNodes(), &rec); err != nil {
		t.Fatal(err)
	}
	// The narrative is the seed's one packing board (mid is the only
	// unpinned component), then the search's scans, then its verdict.
	if len(rec.boards) < 3 {
		t.Fatalf("recorded %d boards, want seed, scans and verdict: %+v", len(rec.boards), rec.boards)
	}
	seed, scans, last := rec.boards[0], rec.boards[1:len(rec.boards)-1], rec.boards[len(rec.boards)-1]
	if seed.Component != "mid" || len(seed.Rows) != len(batchTriangleNodes()) {
		t.Errorf("first board is %+v, want the seed's packing of mid over every node", seed)
	}
	for _, b := range scans {
		if b.Component == "joint" {
			t.Errorf("a verdict %+v precedes the last board", b)
		}
	}
	// The verdict must be the last board: the search narrative ends with
	// its conclusion.
	if last.Component != "joint" || len(last.Rows) != 2 {
		t.Fatalf("last board is %+v, want the greedy-vs-batch verdict", last)
	}
	if last.chosen() != "batch" {
		t.Errorf("verdict chose %q, want batch (it strictly improves here)", last.chosen())
	}
	for _, row := range last.Rows {
		if row.Node == "batch" && row.Reason != rejectNone {
			t.Errorf("winning batch row has rejection %q", row.Reason)
		}
		if row.Node == "greedy" && row.Reason != rejectOutscored {
			t.Errorf("greedy row has rejection %q, want outscored", row.Reason)
		}
	}
}

func TestBatchRespectsCapacity(t *testing.T) {
	// Node b is the bandwidth-ideal relay but has no CPU headroom: the
	// search must reject the move and keep the greedy placement.
	g := batchTriangle(t)
	nodes := batchTriangleNodes()
	for i := range nodes {
		if nodes[i].Name == "b" {
			nodes[i].FreeCPU = 0.05
		}
	}
	batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
	batch.SetPathQuery(trianglePaths)
	got, err := batch.Schedule(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["mid"] == "b" {
		t.Errorf("batch placed mid on b despite insufficient CPU: %v", got)
	}
}

func TestBatchTinyBudgetStillValid(t *testing.T) {
	// An anytime budget of 1 evaluates a single joint candidate; whatever it
	// finds, the result must be a complete assignment over all components.
	g := batchTriangle(t)
	batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 1, Seed: 7})
	batch.SetPathQuery(trianglePaths)
	got, err := batch.Schedule(g, batchTriangleNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range g.Components() {
		if got[comp] == "" {
			t.Errorf("component %q unassigned under budget 1: %v", comp, got)
		}
	}
}

func TestBatchNilPathQueryBalancesCompute(t *testing.T) {
	// Without a path oracle every remote edge scores at full demand, so the
	// network term is constant and the search optimizes compute balance
	// alone: mid moves off src's node onto the empty one.
	g := batchTriangle(t)
	batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 64, Seed: 7})
	got, err := batch.Schedule(g, batchTriangleNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["mid"] != "b" {
		t.Errorf("nil-oracle batch should balance compute onto b, got %v", got)
	}
}

func TestBatchDefaultSeedPolicy(t *testing.T) {
	b := NewBatch(nil, BatchConfig{MoveBudget: 4})
	if b.Name() != "batch-bass-longest-path" {
		t.Errorf("default seed Name() = %q", b.Name())
	}
	cfg := b.Config()
	if cfg.K != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestBatchMovableOrderIgnoresMapOrder pins the movable order against Go's
// map iteration. hub's neighbour weights 0.1/0.2/0.3 sum to 0.6 or to
// 0.6000000000000001 depending on the order they are added in, and a totals
// exactly 0.6: a total summed in map order would put hub before a on some
// runs and after it on others, and the search would differ with it.
func TestBatchMovableOrderIgnoresMapOrder(t *testing.T) {
	build := func() *dag.Graph {
		g := dag.NewGraph("hub")
		g.MustAddComponent(dag.Component{Name: "a", CPU: 0.1})
		g.MustAddComponent(dag.Component{Name: "hub", CPU: 0.1})
		for i, node := range []string{"n1", "n2", "n3", "n4"} {
			g.MustAddComponent(dag.Component{Name: "p" + node, CPU: 0.1, Labels: dag.Pin(node)})
			if i < 3 {
				g.MustAddEdge("hub", "p"+node, []float64{0.1, 0.2, 0.3}[i])
			}
		}
		g.MustAddEdge("a", "pn4", 0.6)
		return g
	}
	nodes := make([]NodeInfo, 6)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("n%d", i+1), FreeCPU: 4, FreeMemoryMB: 4096,
			TotalCPU: 4, TotalMemoryMB: 4096, LinkCapacityMbps: 100}
	}
	paths := func(from, to string) float64 { return float64(len(from)+len(to)) / 40 }
	var first []board
	var firstAssign Assignment
	for run := 0; run < 50; run++ {
		batch := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 12, K: 1, Seed: 3})
		batch.SetPathQuery(paths)
		var rec captureRecorder
		got, err := batch.Schedule(build(), nodes, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first, firstAssign = rec.boards, got
			continue
		}
		if !reflect.DeepEqual(got, firstAssign) || !reflect.DeepEqual(rec.boards, first) {
			t.Fatalf("run %d diverges from run 0", run)
		}
	}
}

// TestBatchConcurrentMatchesSerial runs batch searches on eight distinct
// DAGs and node lists from eight goroutines at once, twenty times each: the
// scratch searches share through their pool must never leak from one search
// into another, so every run equals the same search run alone.
func TestBatchConcurrentMatchesSerial(t *testing.T) {
	type job struct {
		g     *dag.Graph
		nodes []NodeInfo
		want  string
	}
	run := func(j *job) string {
		b := NewBatch(NewBass(HeuristicLongestPath), BatchConfig{MoveBudget: 96, Seed: int64(len(j.nodes))})
		b.SetPathQuery(batchPipePaths)
		rec := &captureRecorder{}
		a, err := b.Schedule(j.g, j.nodes, rec)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(a) + boardText(rec.boards)
	}
	jobs := make([]*job, 8)
	for i := range jobs {
		n := 16 + 12*i
		jobs[i] = &job{g: batchPipe(fmt.Sprintf("p%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", n-1-i)), nodes: batchPipeNodes(n)}
		jobs[i].want = run(jobs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := run(j); got != j.want {
					errs <- fmt.Sprintf("job %d rep %d diverges from its serial run", i, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
