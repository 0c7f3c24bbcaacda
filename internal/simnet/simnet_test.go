package simnet

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// lineNet builds a-b-c with the given per-link capacity (Mbps).
func lineNet(t testing.TB, mbps float64) (*sim.Engine, *Network) {
	t.Helper()
	topo := mesh.Line([]string{"a", "b", "c"}, mbps, time.Millisecond, time.Hour)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	return eng, net
}

func TestStreamGetsDemandWhenUncongested(t *testing.T) {
	_, net := lineNet(t, 100)
	id, err := net.AddStream("t", "a", "b", 10)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := net.StreamRate(id)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 10 {
		t.Errorf("rate = %v, want demand 10", rate)
	}
	loss, err := net.StreamLoss(id)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Errorf("loss = %v, want 0", loss)
	}
}

func TestStreamsShareBottleneckFairly(t *testing.T) {
	_, net := lineNet(t, 30)
	a, err := net.AddStream("a", "a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AddStream("b", "a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := net.StreamRate(a)
	rb, _ := net.StreamRate(b)
	if math.Abs(ra-15) > 1e-6 || math.Abs(rb-15) > 1e-6 {
		t.Errorf("rates = %v, %v, want 15 each", ra, rb)
	}
	la, _ := net.StreamLoss(a)
	if math.Abs(la-0.85) > 1e-6 {
		t.Errorf("loss = %v, want 0.85", la)
	}
}

func TestDemandCappedFlowLeavesCapacityToOthers(t *testing.T) {
	_, net := lineNet(t, 30)
	small, err := net.AddStream("small", "a", "b", 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := net.AddStream("big", "a", "b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := net.StreamRate(small)
	rb, _ := net.StreamRate(big)
	if math.Abs(rs-5) > 1e-6 {
		t.Errorf("small rate = %v, want its demand 5", rs)
	}
	if math.Abs(rb-25) > 1e-6 {
		t.Errorf("big rate = %v, want the remaining 25", rb)
	}
}

func TestMultiHopFlowConstrainedByBottleneck(t *testing.T) {
	// a-b at 100, b-c at 100, but a second flow loads b-c.
	_, net := lineNet(t, 100)
	long, err := net.AddStream("long", "a", "c", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("short", "b", "c", 1000); err != nil {
		t.Fatal(err)
	}
	rl, _ := net.StreamRate(long)
	if math.Abs(rl-50) > 1e-6 {
		t.Errorf("long rate = %v, want 50 (fair share of b-c)", rl)
	}
}

func TestColocatedStreamUsesLocalBus(t *testing.T) {
	_, net := lineNet(t, 10)
	id, err := net.AddStream("local", "a", "a", 500)
	if err != nil {
		t.Fatal(err)
	}
	rate, _ := net.StreamRate(id)
	if rate != 500 {
		t.Errorf("co-located rate = %v, want full demand", rate)
	}
	ls, err := net.LinkStats("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if ls.AllocatedMbps != 0 {
		t.Errorf("co-located stream leaked onto the mesh: %v", ls.AllocatedMbps)
	}
}

func TestTransferCompletesAtExpectedTime(t *testing.T) {
	eng, net := lineNet(t, 8) // 8 Mbps = 1 MB/s
	var done time.Duration
	_, err := net.AddTransfer("t", "a", "b", 2e6, 0, func(r TransferResult) {
		done = r.Finished
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	want := 2 * time.Second // 2 MB at 1 MB/s
	if d := (done - want).Abs(); d > 50*time.Millisecond {
		t.Errorf("completed at %v, want ≈%v", done, want)
	}
}

func TestTransferPacing(t *testing.T) {
	eng, net := lineNet(t, 100)
	var done time.Duration
	_, err := net.AddTransfer("t", "a", "b", 1e6, 8, func(r TransferResult) {
		done = r.Finished
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := time.Second // 1 MB at 8 Mbps cap despite 100 Mbps link
	if d := (done - want).Abs(); d > 50*time.Millisecond {
		t.Errorf("completed at %v, want ≈%v", done, want)
	}
}

func TestTransferSlowsUnderContention(t *testing.T) {
	eng, net := lineNet(t, 8)
	if _, err := net.AddStream("bg", "a", "b", 4); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	if _, err := net.AddTransfer("t", "a", "b", 1e6, 0, func(r TransferResult) {
		done = r.Finished
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// The unbounded transfer gets 8-4=4 Mbps (the capped stream keeps its
	// demand): 8 Mbit / 4 Mbps = 2 s.
	want := 2 * time.Second
	if d := (done - want).Abs(); d > 100*time.Millisecond {
		t.Errorf("completed at %v, want ≈%v", done, want)
	}
}

func TestTransferRespondsToCapacityChange(t *testing.T) {
	// Capacity drops from 8 to 2 Mbps at t=1s: a 2 MB transfer needs
	// 1 s at 8 Mbps (1 Mbit carried... recompute): carried 8 Mbit in 1 s,
	// remaining 8 Mbit at 2 Mbps = 4 s more → total ≈5 s.
	topo := mesh.NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	tr := trace.StepTrace("a-b", time.Second, time.Hour, []trace.Level{
		{From: 0, Mbps: 8},
		{From: time.Second, Mbps: 2},
	})
	topo.MustAddLink("a", "b", tr, time.Millisecond)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()

	var done time.Duration
	if _, err := net.AddTransfer("t", "a", "b", 2e6, 0, func(r TransferResult) {
		done = r.Finished
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := 5 * time.Second
	if d := (done - want).Abs(); d > 200*time.Millisecond {
		t.Errorf("completed at %v, want ≈%v", done, want)
	}
}

func TestCancelTransfer(t *testing.T) {
	eng, net := lineNet(t, 8)
	called := false
	id, err := net.AddTransfer("t", "a", "b", 1e9, 0, func(TransferResult) { called = true })
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CancelTransfer(id); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("cancelled transfer invoked its callback")
	}
	if _, transfers := net.ActiveFlows(); transfers != 0 {
		t.Errorf("transfers = %d after cancel", transfers)
	}
}

func TestRemoveStreamErrors(t *testing.T) {
	_, net := lineNet(t, 8)
	if err := net.RemoveStream(FlowID(999)); err == nil {
		t.Error("removing unknown stream: want error")
	}
	id, err := net.AddStream("t", "a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveStream(id); err != nil {
		t.Fatal(err)
	}
	if err := net.RemoveStream(id); err == nil {
		t.Error("double remove: want error")
	}
}

func TestBacklogGrowsUnderOverloadAndDrains(t *testing.T) {
	topo := mesh.NewTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	tr := trace.Constant("a-b", time.Second, 10, 3600)
	topo.MustAddLink("a", "b", tr, time.Millisecond)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()

	id, err := net.AddStream("hot", "a", "b", 20) // 2x overload
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	q1, err := net.QueueDelay("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if q1 <= 0 {
		t.Fatal("backlog did not grow under 2x overload")
	}
	// Drop demand to zero: backlog must drain.
	if err := net.SetStreamDemand(id, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	q2, err := net.QueueDelay("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if q2 > 0 {
		t.Errorf("backlog did not drain: %v", q2)
	}
}

func TestLinkStatsAndAccounting(t *testing.T) {
	eng, net := lineNet(t, 10)
	if _, err := net.AddStream("app/x->y", "a", "b", 4); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.FlowRateByTag("app/x->y"); math.Abs(got-4) > 1e-6 {
		t.Errorf("FlowRateByTag = %v", got)
	}
	if got := net.FlowDemandByTag("app/x->y"); math.Abs(got-4) > 1e-6 {
		t.Errorf("FlowDemandByTag = %v", got)
	}
	mb := net.BytesByTag()["app/x->y"]
	want := 4.0 * 10 / 8 // Mbps × s / 8 = MB
	if math.Abs(mb-want) > 0.6 {
		t.Errorf("carried %v MB, want ≈%v", mb, want)
	}
	stats, err := net.LinkStats("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.AllocatedMbps-4) > 1e-6 || stats.CapacityMbps != 10 {
		t.Errorf("stats = %+v", stats)
	}
	avail, err := net.LinkAvailableMbps("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avail-6) > 1e-6 {
		t.Errorf("available = %v", avail)
	}
}

// TestAllLinkStatsMatchesPerLink pins the sweep to the per-direction read:
// on a congested lattice with streams, an unfinished transfer and unsettled
// in-flight bytes, every entry must be bit-equal to LinkStats(from, to),
// twice in a row (reads leave the per-pass sums untouched).
func TestAllLinkStatsMatchesPerLink(t *testing.T) {
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 5, Cols: 5, Seed: 3, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(9)
	net := New(eng, topo)
	defer net.Start()()
	nn := mesh.GridNodeName
	for i := 0; i < 40; i++ {
		src, dst := nn(i%5, (i/5)%5), nn((i*3+1)%5, (i*7+2)%5)
		if _, err := net.AddStream("s", src, dst, 0.7+float64(i)*1.3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.AddTransfer("t", nn(0, 0), nn(4, 4), 1e12, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(7500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if eng.Now() <= net.lastAdvance {
		t.Fatal("no unsettled interval: the in-flight terms are not exercised")
	}
	for round := 0; round < 2; round++ {
		all := net.AllLinkStats()
		if len(all) != len(net.linkOrder) {
			t.Fatalf("AllLinkStats returned %d directions, want %d", len(all), len(net.linkOrder))
		}
		loaded := 0
		for _, got := range all {
			want, err := net.LinkStats(got.From, got.To)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("round %d %s->%s: sweep %+v != per-link %+v", round, got.From, got.To, got, want)
			}
			if got.AllocatedMbps > 0 {
				loaded++
			}
		}
		if loaded < 10 {
			t.Fatalf("only %d loaded directions: the net is not loaded enough to pin summation order", loaded)
		}
	}
}

func TestProberMatchesStats(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.AddStream("s", "a", "b", 4); err != nil {
		t.Fatal(err)
	}
	p := net.Prober()
	id := mesh.MakeLinkID("a", "b")
	cap, err := p.ProbeCapacity(id)
	if err != nil {
		t.Fatal(err)
	}
	if cap != 10 {
		t.Errorf("ProbeCapacity = %v", cap)
	}
	spare, err := p.ProbeSpare(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spare-6) > 1e-6 {
		t.Errorf("ProbeSpare = %v", spare)
	}
	if _, err := p.ProbeCapacity(mesh.MakeLinkID("x", "y")); err == nil {
		t.Error("probe unknown link: want error")
	}
}

func TestPathAllocatedMbps(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.AddStream("s", "a", "b", 4); err != nil {
		t.Fatal(err)
	}
	got, err := net.PathAllocatedMbps("a", "c", 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 1e-6 {
		t.Errorf("PathAllocatedMbps = %v, want min spare 6", got)
	}
	local, err := net.PathAllocatedMbps("a", "a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if local != 100 {
		t.Errorf("co-located = %v, want demand", local)
	}
}

// TestMaxMinInvariants property-checks the allocator: allocations never
// exceed demand, never exceed capacity on any link, and are work-conserving
// at the bottleneck.
func TestMaxMinInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		topo := mesh.Line([]string{"a", "b", "c", "d"}, 50, time.Millisecond, time.Hour)
		eng := sim.NewEngine(seed)
		net := New(eng, topo)
		net.Start()
		nodes := []string{"a", "b", "c", "d"}
		rng := eng.Rand()
		ids := make([]FlowID, 0, n)
		for i := 0; i < n; i++ {
			src := nodes[rng.Intn(4)]
			dst := nodes[rng.Intn(4)]
			id, err := net.AddStream("s", src, dst, float64(rng.Intn(100)+1))
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		// Demand cap respected.
		for _, id := range ids {
			rate, err := net.StreamRate(id)
			if err != nil {
				return false
			}
			loss, err := net.StreamLoss(id)
			if err != nil {
				return false
			}
			if rate < -1e-9 || loss < -1e-9 || loss > 1+1e-9 {
				return false
			}
			s, _ := net.slotOf(id)
			f := net.flow(s)
			if f.rateBps > f.demandBps+1e-3 {
				return false
			}
		}
		// Capacity respected per link.
		for _, ls := range net.AllLinkStats() {
			if ls.AllocatedMbps > ls.CapacityMbps+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMaxMinWorkConserving property-checks that when total demand exceeds a
// single shared link's capacity, the allocator hands out exactly the
// capacity (work conservation), and when demand fits, everyone gets their
// demand.
func TestMaxMinWorkConserving(t *testing.T) {
	f := func(seed int64, nRaw, capRaw uint8) bool {
		n := int(nRaw%6) + 1
		capMbps := float64(capRaw%80) + 10
		topo := mesh.Line([]string{"a", "b"}, capMbps, time.Millisecond, time.Hour)
		eng := sim.NewEngine(seed)
		net := New(eng, topo)
		net.Start()
		rng := eng.Rand()
		var totalDemand float64
		ids := make([]FlowID, n)
		for i := 0; i < n; i++ {
			d := float64(rng.Intn(40) + 1)
			totalDemand += d
			id, err := net.AddStream("s", "a", "b", d)
			if err != nil {
				return false
			}
			ids[i] = id
		}
		var totalAlloc float64
		for _, id := range ids {
			r, err := net.StreamRate(id)
			if err != nil {
				return false
			}
			totalAlloc += r
		}
		want := totalDemand
		if totalDemand > capMbps {
			want = capMbps
		}
		return math.Abs(totalAlloc-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMaxMinFairnessOrder property-checks that a flow with strictly smaller
// demand never receives less than a flow with larger demand on the same
// path.
func TestMaxMinFairnessOrder(t *testing.T) {
	f := func(seed int64, smallRaw, bigRaw, capRaw uint8) bool {
		small := float64(smallRaw%30) + 1
		big := small + float64(bigRaw%30) + 1
		capMbps := float64(capRaw%60) + 5
		topo := mesh.Line([]string{"a", "b"}, capMbps, time.Millisecond, time.Hour)
		eng := sim.NewEngine(seed)
		net := New(eng, topo)
		net.Start()
		smallID, err := net.AddStream("small", "a", "b", small)
		if err != nil {
			return false
		}
		bigID, err := net.AddStream("big", "a", "b", big)
		if err != nil {
			return false
		}
		rs, _ := net.StreamRate(smallID)
		rb, _ := net.StreamRate(bigID)
		return rs <= rb+1e-9 && rs <= small+1e-9 && rb <= big+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInvalidAmountsRejected pins the max-min repro behind demand
// validation: on one 10 Mbps link, streams of 1, NaN, 0.5, 2 and 0.25 Mbps
// once left the 0.25 Mbps stream 2.25 Mbps, and a -3 Mbps stream got 1.8
// Mbps. NaN, infinite and negative demands, transfer sizes and rate caps are
// now errors, and the valid streams each get their demand.
func TestInvalidAmountsRejected(t *testing.T) {
	_, net := lineNet(t, 10)
	want := map[FlowID]float64{}
	for _, mbps := range []float64{1, math.NaN(), 0.5, 2, 0.25} {
		id, err := net.AddStream("s", "a", "b", mbps)
		if math.IsNaN(mbps) {
			if err == nil {
				t.Errorf("AddStream accepted a NaN demand")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want[id] = mbps
	}
	for _, mbps := range []float64{-3, math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		if _, err := net.AddStream("s", "a", "b", mbps); err == nil {
			t.Errorf("AddStream accepted a %v Mbps demand", mbps)
		}
	}
	for id, mbps := range want {
		for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
			if err := net.SetStreamDemand(id, bad); err == nil {
				t.Errorf("SetStreamDemand(%d, %v) accepted", id, bad)
			}
		}
		if got, err := net.StreamRate(id); err != nil || got != mbps {
			t.Errorf("stream %d rate %v (%v), want its demand %v", id, got, err, mbps)
		}
	}
	for _, tc := range []struct{ bytes, capMbps float64 }{
		{math.NaN(), 0}, {math.Inf(1), 0}, {-1, 0}, {1e6, math.NaN()}, {1e6, -2},
	} {
		if _, err := net.AddTransfer("x", "a", "b", tc.bytes, tc.capMbps, nil); err == nil {
			t.Errorf("AddTransfer(%v bytes, cap %v) accepted", tc.bytes, tc.capMbps)
		}
	}
	id, err := net.AddTransfer("x", "a", "b", 1e6, math.Inf(1), nil)
	if err != nil {
		t.Fatalf("an infinite rate cap must mean unbounded: %v", err)
	}
	if got, err := net.StreamRate(id); err != nil || got != 10-3.75 {
		t.Errorf("uncapped transfer rate %v (%v), want the 6.25 Mbps the streams leave", got, err)
	}
}

func BenchmarkReallocate20Streams(b *testing.B) {
	topo := mesh.FullMesh([]string{"a", "b", "c", "d", "e"}, 25, time.Millisecond, time.Hour)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	nodes := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 20; i++ {
		src := nodes[i%5]
		dst := nodes[(i+1+i/5)%5]
		if _, err := net.AddStream("s", src, dst, float64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.reallocate()
	}
}

// TestShedFlowsByTagPrefixBoundaryAware pins the tag-collision regression:
// shedding "app1" must not also shed sibling applications whose names merely
// start with the same characters ("app10", "app1x").
func TestShedFlowsByTagPrefixBoundaryAware(t *testing.T) {
	_, net := lineNet(t, 1000)
	mk := func(tag string) FlowID {
		id, err := net.AddStream(tag, "a", "b", 5)
		if err != nil {
			t.Fatalf("AddStream(%q): %v", tag, err)
		}
		return id
	}
	app1Edge := mk("app1/a->b")
	app1Bare := mk("app1")
	app10 := mk("app10/a->b")
	app1x := mk("app1x/a->b")

	if shed := net.ShedFlowsByTagPrefix("app1"); shed != 2 {
		t.Fatalf("ShedFlowsByTagPrefix(\"app1\") shed %d flows, want 2 (app1 and app1/...)", shed)
	}
	if _, err := net.StreamRate(app1Edge); err == nil {
		t.Error("app1/a->b survived shedding app1")
	}
	if _, err := net.StreamRate(app1Bare); err == nil {
		t.Error("bare app1 tag survived shedding app1")
	}
	if _, err := net.StreamRate(app10); err != nil {
		t.Errorf("app10 flow was shed by the app1 prefix: %v", err)
	}
	if _, err := net.StreamRate(app1x); err != nil {
		t.Errorf("app1x flow was shed by the app1 prefix: %v", err)
	}
}

// TestShedFlowsByTagPrefixTrailingSlash pins that an explicit trailing
// separator behaves as before the boundary fix: it matches the same "app1/…"
// flows and still never touches siblings.
func TestShedFlowsByTagPrefixTrailingSlash(t *testing.T) {
	_, net := lineNet(t, 1000)
	if _, err := net.AddStream("app1/a->b", "a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("app10/a->b", "a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if shed := net.ShedFlowsByTagPrefix("app1/"); shed != 1 {
		t.Errorf("ShedFlowsByTagPrefix(\"app1/\") shed %d flows, want 1", shed)
	}
}

func TestTagMatchesPrefix(t *testing.T) {
	tests := []struct {
		tag, prefix string
		want        bool
	}{
		{"app1/a->b", "app1", true},
		{"app1", "app1", true},
		{"app10/a->b", "app1", false},
		{"app1x/a->b", "app1", false},
		{"app1/a->b", "app1/", true},
		{"app10/a->b", "app1/", false},
		{"app1/a->b", "app1/a->b", true},
		{"app1", "app1/", false},
		{"other", "app1", false},
	}
	for _, tt := range tests {
		if got := tagMatchesPrefix(tt.tag, tt.prefix); got != tt.want {
			t.Errorf("tagMatchesPrefix(%q, %q) = %v, want %v", tt.tag, tt.prefix, got, tt.want)
		}
	}
}
