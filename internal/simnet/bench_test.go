//go:build !race

package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// Excluded from -race runs: AllocsPerRun and timing are both meaningless under
// the race detector.

// ringMesh builds an 8-node ring of 200 Mbps links. A ring (rather than a full
// mesh) forces multi-hop paths, so every water-filling pass touches several
// links per flow and iterates under contention. With steppy set, link n0-n1
// drops to 60 Mbps from 20 s to 40 s of every minute; otherwise every link is
// constant — the long quiet stretches community mesh traces spend most of
// their time in, where the event-driven driver schedules nothing at all.
func ringMesh(steppy bool) *mesh.Topology {
	topo := mesh.NewTopology()
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		topo.AddNode(names[i])
	}
	for i, from := range names {
		to := names[(i+1)%len(names)]
		tr := trace.Constant(from+"-"+to, time.Second, 200, 60)
		if steppy && i == 0 {
			tr = trace.StepTrace("n0-n1", time.Second, time.Minute, []trace.Level{
				{From: 0, Mbps: 200},
				{From: 20 * time.Second, Mbps: 60},
				{From: 40 * time.Second, Mbps: 200},
			})
		}
		topo.MustAddLink(from, to, tr, time.Millisecond)
	}
	return topo
}

// addRingStreams installs count concurrent streams of 2–6 Mbps over the ring.
func addRingStreams(tb testing.TB, net *Network, count int) {
	tb.Helper()
	for f := 0; f < count; f++ {
		src := fmt.Sprintf("n%d", f%8)
		dst := fmt.Sprintf("n%d", (f+2+f/8%3)%8)
		if src == dst {
			dst = "n0"
		}
		if _, err := net.AddStream(fmt.Sprintf("f%d", f), src, dst, 2+float64(f%5)); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchRing drives the 120 ring streams for five simulated minutes per
// iteration (traces wrap past their horizon) with the given allocator and
// capacity driver. Only the Run is timed.
func benchRing(b *testing.B, steppy, fullRecompute, polling bool) {
	b.Helper()
	var stats AllocStats
	for i := 0; i < b.N; i++ {
		b.StopTimer() // topology construction and stream arrival are not under test
		eng := sim.NewEngine(1)
		net := New(eng, ringMesh(steppy))
		net.SetFullRecompute(fullRecompute)
		net.SetPolling(polling)
		net.Start()
		addRingStreams(b, net, 120)
		base := net.AllocStats()
		b.StartTimer()
		if err := eng.Run(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		s := net.AllocStats()
		stats = AllocStats{
			FullPasses:    s.FullPasses - base.FullPasses,
			SkippedPasses: s.SkippedPasses - base.SkippedPasses,
		}
	}
	b.ReportMetric(float64(stats.FullPasses), "full_passes")
	b.ReportMetric(float64(stats.SkippedPasses), "skipped_passes")
}

// BenchmarkReallocate compares the incremental allocator against full
// per-epoch water-filling, both under the per-second polling driver so every
// second issues a reallocation request:
//
//	go test -bench=Reallocate -benchtime=10x -benchmem ./internal/simnet/
func BenchmarkReallocate(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchRing(b, true, false, true) })
	b.Run("full", func(b *testing.B) { benchRing(b, true, true, true) })
}

// BenchmarkEventDriven compares the event-driven capacity scheduler against
// the polling driver with the incremental allocator on in both: "quiet" runs
// the all-constant ring (the driver schedules zero events), "steppy" the ring
// with one stepping link (two observed capacity changes per simulated minute).
// The drivers produce bit-identical simulation output (asserted by the
// differential tests); this measures the wall-clock and allocation cost of
// getting there. TestQuietEventDrivenZeroAlloc pins quiet/event at 0 allocs:
//
//	go test -bench=EventDriven -benchtime=10x -benchmem ./internal/simnet/
func BenchmarkEventDriven(b *testing.B) {
	b.Run("quiet/event", func(b *testing.B) { benchRing(b, false, false, false) })
	b.Run("quiet/polling", func(b *testing.B) { benchRing(b, false, false, true) })
	b.Run("steppy/event", func(b *testing.B) { benchRing(b, true, false, false) })
	b.Run("steppy/polling", func(b *testing.B) { benchRing(b, true, false, true) })
}

// TestQuietEventDrivenZeroAlloc pins the disabled-tracing contract on the
// quiet ring: with no observability plane attached, five simulated minutes of
// 120 steady streams under the event-driven driver — span-threaded flow
// lifecycle, ambient cause stamping, nil-plane EmitSpan sites included — run
// without a single heap allocation.
func TestQuietEventDrivenZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, ringMesh(false))
	stop := net.Start()
	defer stop()
	addRingStreams(t, net, 120)
	until := eng.Now()
	allocs := testing.AllocsPerRun(10, func() {
		until += 5 * time.Minute
		if err := eng.Run(until); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("quiet event-driven run allocates: %.2f allocs per 5-minute run, want 0", allocs)
	}
	if s := net.AllocStats(); s.FullPasses == 0 {
		t.Errorf("AllocStats %+v: the streams were never allocated", s)
	}
}

// BenchmarkLocalChurn measures churn on co-located flows beside routed
// traffic, the paper-mesh shape: one op starts a co-located transfer beside
// 128 routed streams on the quiet ring and runs the engine until it has
// completed. Each op requests two deferred passes, local ones by default and
// full water-filling ones under "full":
//
//	go test -run='^$' -bench=LocalChurn -benchmem ./internal/simnet/
func BenchmarkLocalChurn(b *testing.B) {
	b.Run("local", func(b *testing.B) { benchLocalChurn(b, false) })
	b.Run("full", func(b *testing.B) { benchLocalChurn(b, true) })
}

func benchLocalChurn(b *testing.B, fullRecompute bool) {
	eng := sim.NewEngine(1)
	net := New(eng, ringMesh(false))
	net.SetFullRecompute(fullRecompute)
	stop := net.Start()
	defer stop()
	addRingStreams(b, net, 128)
	base := net.AllocStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.AddTransfer("bus", "n0", "n0", 1e5, 0, nil); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := net.AllocStats()
	b.ReportMetric(float64(s.FullPasses-base.FullPasses)/float64(b.N), "full_passes/op")
	b.ReportMetric(float64(s.LocalPasses-base.LocalPasses)/float64(b.N), "local_passes/op")
}

// loadedGrid installs 150 streams over 40 tags and 15 unbounded transfers
// that never finish (165 flows) between random nodes of the 6x6 grid, and
// returns the stream ids and the flows' distinct-node endpoint pairs.
func loadedGrid(tb testing.TB) (*Network, []FlowID, [][2]string, func()) {
	tb.Helper()
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 6, Cols: 6, Seed: 17, Duration: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	net := New(sim.NewEngine(1), topo)
	stop := net.Start()
	rng := rand.New(rand.NewSource(7))
	node := func() string { return mesh.GridNodeName(rng.Intn(6), rng.Intn(6)) }
	var streams []FlowID
	var pairs [][2]string
	for i := 0; i < 165; i++ {
		src, dst := node(), node()
		var id FlowID
		if i < 150 {
			id, err = net.AddStream(fmt.Sprintf("s%d", i%40), src, dst, 0.25+rng.Float64()*8)
			streams = append(streams, id)
		} else {
			_, err = net.AddTransfer(fmt.Sprintf("t%d", i), src, dst, 1e12, 0, nil)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if src != dst {
			pairs = append(pairs, [2]string{src, dst})
		}
	}
	net.flush()
	return net, streams, pairs, stop
}

// TestFullPassZeroAlloc pins the full water-filling pass at zero heap
// allocations on a loaded net: scratch buffers, crossing lists and the kept
// demand order are reused, the demand order re-sorts one flow, and transfer
// completions are rescheduled with a callback built once per transfer.
func TestFullPassZeroAlloc(t *testing.T) {
	net, streams, _, stop := loadedGrid(t)
	defer stop()
	demand := 1.0
	pass := func() {
		demand = 3 - demand // toggles 1 ↔ 2 Mbps: every call is a real change
		if err := net.SetStreamDemand(streams[0], demand); err != nil {
			t.Fatal(err)
		}
		net.flush()
	}
	for i := 0; i < 200; i++ {
		pass() // let the engine's free list and maps reach their steady size
	}
	base := net.AllocStats().FullPasses
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("a full pass allocates: %.2f allocs per pass, want 0", allocs)
	}
	if got := net.AllocStats().FullPasses - base; got != 101 {
		t.Errorf("%d full passes ran, want 101 (one per call)", got)
	}
}

// TestLocalPassZeroAlloc pins the local pass at zero heap allocations on the
// loaded grid: toggling a co-located stream's demand runs one local pass per
// call, which settles every direction, rates the stream and reschedules the
// 15 transfers without water-filling and without allocating.
func TestLocalPassZeroAlloc(t *testing.T) {
	net, _, _, stop := loadedGrid(t)
	defer stop()
	bus, err := net.AddStream("bus", "r000c000", "r000c000", 1)
	if err != nil {
		t.Fatal(err)
	}
	demand := 1.0
	pass := func() {
		demand = 3 - demand // toggles 1 ↔ 2 Mbps: every call is a real change
		if err := net.SetStreamDemand(bus, demand); err != nil {
			t.Fatal(err)
		}
		net.flush()
	}
	for i := 0; i < 200; i++ {
		pass() // let the engine's free list reach its steady size
	}
	base := net.AllocStats()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("a local pass allocates: %.2f allocs per pass, want 0", allocs)
	}
	s := net.AllocStats()
	if full, local := s.FullPasses-base.FullPasses, s.LocalPasses-base.LocalPasses; full != 0 || local != 101 {
		t.Errorf("%d full and %d local passes ran, want 0 and 101 (one local pass per call)", full, local)
	}
	if r, err := net.StreamRate(bus); err != nil || r != demand {
		t.Errorf("co-located stream rate %v (%v), want its demand %v", r, err, demand)
	}
}

// BenchmarkPathAllocatedMbps measures the read socialnet issues per RPC hop:
// the spare bandwidth of both directions between two nodes, on the loaded
// 6x6 grid. One op is one hop, both directions:
//
//	go test -run='^$' -bench=PathAllocatedMbps -benchmem ./internal/simnet/
func BenchmarkPathAllocatedMbps(b *testing.B) {
	net, _, pairs, stop := loadedGrid(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := net.PathAllocatedMbps(p[0], p[1], LocalMbps); err != nil {
			b.Fatal(err)
		}
		if _, err := net.PathAllocatedMbps(p[1], p[0], LocalMbps); err != nil {
			b.Fatal(err)
		}
	}
}
