package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bass/internal/trace"
)

// referenceRoute is the router this package shipped before the routing plane:
// the same endpoint checks, then a string-keyed min-hop BFS per (src, dst)
// that scans sorted neighbour names and stops when dst is dequeued. It reads
// only the name-keyed views (adj, NodeUp, LinkUp) and is the oracle the tree
// router must match path for path and error for error.
func referenceRoute(t *Topology, src, dst string) ([]string, error) {
	if !t.HasNode(src) {
		return nil, fmt.Errorf("%w: %q", errUnknownNode, src)
	}
	if !t.HasNode(dst) {
		return nil, fmt.Errorf("%w: %q", errUnknownNode, dst)
	}
	if !t.NodeUp(src) {
		return nil, fmt.Errorf("%w: %q", ErrNodeDown, src)
	}
	if !t.NodeUp(dst) {
		return nil, fmt.Errorf("%w: %q", ErrNodeDown, dst)
	}
	if src == dst {
		return []string{src}, nil
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if cur == dst {
			break
		}
		for _, nb := range t.adj[cur] {
			if !t.NodeUp(nb) || !t.LinkUp(cur, nb) {
				continue
			}
			if _, seen := prev[nb]; !seen {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	if _, ok := prev[dst]; !ok {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoPath, src, dst)
	}
	var path []string
	for cur := dst; cur != src; cur = prev[cur] {
		path = append(path, cur)
	}
	path = append(path, src)
	slices.Reverse(path)
	return path, nil
}

// sameError reports whether two route errors are interchangeable for callers:
// both nil, or the same sentinel with the same text.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	for _, sentinel := range []error{errUnknownNode, ErrNodeDown, ErrNoPath} {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			return false
		}
	}
	return got.Error() == want.Error()
}

// checkPair compares Route and WalkRoute with the reference for one pair and
// returns a description of the first disagreement ("" when they agree).
func checkPair(topo *Topology, src, dst string) string {
	want, wantErr := referenceRoute(topo, src, dst)
	got, err := topo.Route(src, dst)
	if !sameError(err, wantErr) {
		return fmt.Sprintf("Route(%s, %s) error = %v, reference %v", src, dst, err, wantErr)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("Route(%s, %s) = %v, reference %v", src, dst, got, want)
	}
	walked := []string{src}
	var bad string
	err = topo.WalkRoute(src, dst, func(from, to string, l *Link) {
		if from != walked[len(walked)-1] {
			bad = fmt.Sprintf("WalkRoute(%s, %s): hop %s->%s does not continue from %s", src, dst, from, to, walked[len(walked)-1])
		}
		if tl, ok := topo.Link(from, to); !ok || tl != l {
			bad = fmt.Sprintf("WalkRoute(%s, %s): hop %s->%s carries link %v", src, dst, from, to, l)
		}
		walked = append(walked, to)
	})
	if !sameError(err, wantErr) {
		return fmt.Sprintf("WalkRoute(%s, %s) error = %v, reference %v", src, dst, err, wantErr)
	}
	if bad != "" {
		return bad
	}
	if err == nil && !slices.Equal(walked, want) {
		return fmt.Sprintf("WalkRoute(%s, %s) visited %v, reference %v", src, dst, walked, want)
	}
	return ""
}

// checkAllPairs runs checkPair over every ordered pair, self pairs and down
// endpoints included, plus an unknown endpoint on either side.
func checkAllPairs(t testing.TB, topo *Topology, when string) {
	t.Helper()
	names := append(topo.Nodes(), "ghost")
	for _, src := range names {
		for _, dst := range names {
			if msg := checkPair(topo, src, dst); msg != "" {
				t.Fatalf("%s: %s", when, msg)
			}
		}
	}
}

// flipRandom toggles the availability of one random node or link.
func flipRandom(rng *rand.Rand, topo *Topology) string {
	if rng.Intn(3) == 0 {
		n := topo.nodeOrder[rng.Intn(len(topo.nodeOrder))]
		up := !topo.NodeUp(n)
		_ = topo.SetNodeUp(n, up)
		return fmt.Sprintf("node %s up=%v", n, up)
	}
	links := topo.Links()
	l := links[rng.Intn(len(links))].ID
	up := !topo.LinkUp(l.A, l.B)
	_ = topo.SetLinkUp(l.A, l.B, up)
	return fmt.Sprintf("link %s up=%v", l, up)
}

// shuffledMesh builds a connected random graph whose node insertion order
// (and so dense-id order) is unrelated to name order, so a router that broke
// ties by id instead of by name would be caught.
func shuffledMesh(rng *rand.Rand, n, extraLinks int) *Topology {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i)
	}
	rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	topo := NewTopology()
	for _, name := range names {
		topo.AddNode(name)
	}
	tr := trace.Constant("", time.Second, 10, 60)
	for i := 1; i < n; i++ {
		topo.MustAddLink(names[i], names[rng.Intn(i)], tr, time.Millisecond)
	}
	for i := 0; i < extraLinks; i++ {
		a, b := names[rng.Intn(n)], names[rng.Intn(n)]
		if _, dup := topo.Link(a, b); a != b && !dup {
			topo.MustAddLink(a, b, tr, time.Millisecond)
		}
	}
	return topo
}

func mustGrid(t testing.TB, rows, cols int, seed int64) *Topology {
	t.Helper()
	topo, err := Grid(GridOptions{Rows: rows, Cols: cols, Seed: seed, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestRouteMatchesReference(t *testing.T) {
	cases := map[string]*Topology{
		"citylab":  MustCityLab(CityLabOptions{Seed: 1, Duration: time.Minute}),
		"grid-5x5": mustGrid(t, 5, 5, 7),
		"grid-3x8": mustGrid(t, 3, 8, 11),
		"shuffled": shuffledMesh(rand.New(rand.NewSource(5)), 20, 12),
	}
	for name, topo := range cases {
		topo := topo
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			checkAllPairs(t, topo, "all up")
			for epoch := 1; epoch <= 120; epoch++ {
				what := flipRandom(rng, topo)
				checkAllPairs(t, topo, fmt.Sprintf("epoch %d (%s)", epoch, what))
			}
		})
	}
}

// TestRouteTreeSurvivesGrowth covers construction interleaved with queries:
// trees built before a node or link is added must not answer for the larger
// graph.
func TestRouteTreeSurvivesGrowth(t *testing.T) {
	topo := lineABC(t)
	checkAllPairs(t, topo, "line")
	topo.AddNode("d") // no epoch bump: a-tree is one entry short
	checkAllPairs(t, topo, "isolated d")
	topo.MustAddLink("c", "d", trace.Constant("", time.Second, 10, 60), time.Millisecond)
	checkAllPairs(t, topo, "linked d")
}

func TestRouteAllocations(t *testing.T) {
	topo := mustGrid(t, 6, 6, 3)
	names := topo.Nodes()
	visit := func(_, _ string, _ *Link) {}
	queryAll := func() {
		for _, src := range names {
			for _, dst := range names {
				_ = topo.WalkRoute(src, dst, visit)
			}
		}
	}
	for _, src := range names {
		for _, dst := range names {
			if _, err := topo.Route(src, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, src := range names {
			for _, dst := range names {
				_, _ = topo.Route(src, dst)
			}
		}
	}); n != 0 {
		t.Errorf("warm Route over every pair (self pairs included): %v allocs, want 0", n)
	}
	var hops int
	var latency time.Duration
	if n := testing.AllocsPerRun(10, func() {
		queryAll()
		_ = topo.WalkRoute(names[0], names[len(names)-1], func(_, _ string, _ *Link) { hops++ })
		latency, _ = topo.PathLatency(names[0], names[len(names)-1])
		_, _, _ = topo.PathCapacityAt(names[0], names[len(names)-1], 0)
	}); n != 0 {
		t.Errorf("warm WalkRoute / PathLatency / PathCapacityAt: %v allocs, want 0", n)
	}
	if hops == 0 || latency == 0 {
		t.Fatalf("walk visited %d hops, latency %v", hops, latency)
	}

	// Storage reuse: an epoch bump makes every tree stale, and re-querying
	// every pair rebuilds all of them — in place, without allocating.
	l := topo.Links()[0].ID
	if n := testing.AllocsPerRun(10, func() {
		_ = topo.SetLinkUp(l.A, l.B, false)
		queryAll()
		_ = topo.SetLinkUp(l.A, l.B, true)
		queryAll()
	}); n != 0 {
		t.Errorf("two epoch bumps, every tree rebuilt twice: %v allocs, want 0", n)
	}
	// Route additionally retains one path per pair it is asked for, and
	// nothing else: the cache's own storage is reused too.
	pairs := float64(len(names) * (len(names) - 1))
	if n := testing.AllocsPerRun(10, func() {
		_ = topo.SetLinkUp(l.A, l.B, false)
		_ = topo.SetLinkUp(l.A, l.B, true)
		for _, src := range names {
			for _, dst := range names {
				_, _ = topo.Route(src, dst)
			}
		}
	}); n > pairs {
		t.Errorf("cold Route over %v pairs: %v allocs, want at most one path each", pairs, n)
	}
}

// TestRouteConcurrentQueries exercises the promise in Topology's doc comment:
// any number of goroutines may query between mutations. Run under -race.
func TestRouteConcurrentQueries(t *testing.T) {
	topo := mustGrid(t, 5, 5, 9)
	names := topo.Nodes()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		flipRandom(rng, topo) // mutation happens between rounds, never during one
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine starts at a different source so that tree
				// builds, cache fills and walks of finished trees overlap.
				for i := range names {
					src := names[(i+g*3)%len(names)]
					for _, dst := range names {
						if msg := checkPair(topo, src, dst); msg != "" {
							t.Errorf("round %d goroutine %d: %s", round, g, msg)
							return
						}
						_, _ = topo.PathLatency(src, dst)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// fuzzTopology decodes bytes into a small topology and an availability
// script. Layout: node count, name stride, link count, that many endpoint
// pairs, then (op, target) script steps. Sizes are capped by construction
// (≤16 nodes, ≤64 links, ≤32 steps), so no input can make it allocate
// without bound. Node names are a stride permutation of the ids, so name
// order and id order differ.
func fuzzTopology(data []byte) (topo *Topology, script []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%16
	stride := 2*(next()%8) + 1 // odd: i*stride mod 16 is a bijection
	names := make([]string, n)
	topo = NewTopology()
	for i := range names {
		names[i] = fmt.Sprintf("n%02d", i*stride%16)
		topo.AddNode(names[i])
	}
	tr := trace.Constant("", time.Second, 10, 60)
	for links := next() % 65; links > 0; links-- {
		// Self and duplicate links are rejected by AddLink; that is part of
		// the input space.
		_ = topo.AddLink(names[next()%n], names[next()%n], tr, time.Millisecond)
	}
	if len(data) > 64 {
		data = data[:64]
	}
	return topo, data
}

// fuzzStep applies one script step: op selects node/link and down/up, target
// selects which.
func fuzzStep(topo *Topology, op, target byte) {
	up := op&1 == 1
	if links := topo.Links(); op&2 == 2 && len(links) > 0 {
		l := links[int(target)%len(links)].ID
		_ = topo.SetLinkUp(l.A, l.B, up)
		return
	}
	_ = topo.SetNodeUp(topo.nodeOrder[int(target)%len(topo.nodeOrder)], up)
}

// fuzzEncode is fuzzTopology's inverse for the seed corpus: it encodes a
// topology whose node names are in id order (stride 1) plus a script.
func fuzzEncode(topo *Topology, script ...byte) []byte {
	links := topo.Links()
	out := []byte{byte(len(topo.nodeOrder) - 1), 0, byte(len(links))}
	for _, l := range links {
		out = append(out, byte(topo.nodeID[l.ID.A]), byte(topo.nodeID[l.ID.B]))
	}
	return append(out, script...)
}

func FuzzRouteMatchesReference(f *testing.F) {
	script := []byte{0, 1, 2, 3, 2, 0, 1, 1, 3, 3, 0, 2, 3, 0, 1, 2}
	f.Add(fuzzEncode(MustCityLab(CityLabOptions{Seed: 1, Duration: time.Minute}), script...))
	f.Add(fuzzEncode(mustGrid(f, 4, 4, 1), script...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, script := fuzzTopology(data)
		checkAllPairs(t, topo, "all up")
		for i := 0; i+1 < len(script); i += 2 {
			fuzzStep(topo, script[i], script[i+1])
			checkAllPairs(t, topo, fmt.Sprintf("script step %d", i/2))
		}
	})
}

// BenchmarkRouteCold measures the first query per source after an epoch bump
// on a city-sized grid: one full tree build plus one path read each.
func BenchmarkRouteCold(b *testing.B) {
	topo := mustGrid(b, 32, 32, 1)
	names := topo.Nodes()
	l := topo.Links()[0].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(names) == 0 {
			_ = topo.SetLinkUp(l.A, l.B, i/len(names)%2 == 1)
		}
		src := names[i%len(names)]
		dst := names[(i*7+13)%len(names)]
		_ = topo.WalkRoute(src, dst, func(_, _ string, _ *Link) {})
	}
}
