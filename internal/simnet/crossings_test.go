package simnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// scanAllocBps is the reference a direction's cached allocation must equal:
// the flowOrder rescan link reads ran before allocations were cached per
// pass, summing every live flow crossing ls in ascending FlowID order.
func scanAllocBps(net *Network, ls *linkState) float64 {
	var alloc float64
	for _, f := range net.flowOrder {
		if f.gone {
			continue
		}
		for _, l := range f.linkPath {
			if l == ls {
				alloc += f.rateBps
				break
			}
		}
	}
	return alloc
}

// scanSpareMbps is a direction's spare capacity from the rescan.
func scanSpareMbps(net *Network, ls *linkState) float64 {
	v := ls.capacityBps/1e6 - scanAllocBps(net, ls)/1e6
	if v < 0 {
		v = 0
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCachedReads flushes, then checks every cached link read against the
// rescan: each direction's allocBps, ProbeSpare of every link, and
// PathAllocatedMbps across every direction's endpoints (multi-hop once a
// link is down). It also checks the kept demand order (checkDemandOrder).
func checkCachedReads(t testing.TB, net *Network) {
	t.Helper()
	net.flush()
	for _, ls := range net.linkOrder {
		if want := scanAllocBps(net, ls); !sameBits(ls.allocBps, want) {
			t.Errorf("%v %s->%s: cached allocation %v, rescan %v", net.eng.Now(), ls.hop.from, ls.hop.to, ls.allocBps, want)
		}
	}
	p := net.Prober()
	for _, l := range net.topo.Links() {
		got, err := p.ProbeSpare(l.ID)
		if err != nil {
			continue // unavailable or lossy: no value to compare
		}
		want := scanSpareMbps(net, net.links[dhop{from: l.ID.A, to: l.ID.B}])
		if rev := scanSpareMbps(net, net.links[dhop{from: l.ID.B, to: l.ID.A}]); rev < want {
			want = rev
		}
		if !sameBits(got, want) {
			t.Errorf("%v ProbeSpare(%s) = %v, rescan %v", net.eng.Now(), l.ID, got, want)
		}
	}
	for _, ls := range net.linkOrder {
		src, dst := ls.hop.from, ls.hop.to
		got, err := net.PathAllocatedMbps(src, dst, LocalMbps)
		hops, rerr := net.route(src, dst)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("PathAllocatedMbps(%s, %s) error %v, route error %v", src, dst, err, rerr)
		}
		if err != nil {
			continue
		}
		want := float64(LocalMbps)
		for _, h := range hops {
			if s := scanSpareMbps(net, h); s < want {
				want = s
			}
		}
		if !sameBits(got, want) {
			t.Errorf("%v PathAllocatedMbps(%s, %s) = %v, rescan %v", net.eng.Now(), src, dst, got, want)
		}
	}
	checkDemandOrder(t, net)
}

// refRoute is the path reads' route before the read memo: a fresh WalkRoute
// per call, each hop's link state looked up by name.
func refRoute(net *Network, src, dst string) ([]*linkState, error) {
	var hops []*linkState
	if src == dst {
		return hops, nil
	}
	err := net.topo.WalkRoute(src, dst, func(from, to string, _ *mesh.Link) {
		if ls, ok := net.links[dhop{from: from, to: to}]; ok {
			hops = append(hops, ls)
		}
	})
	return hops, err
}

// refPathAllocatedMbps, refPathQueueDelay and refPathLatencyOf are the three
// path reads as they were before the read memo: each resolves its route anew.
func refPathAllocatedMbps(net *Network, src, dst string, demandMbps float64) (float64, error) {
	net.flush()
	hops, err := refRoute(net, src, dst)
	if err != nil {
		return 0, err
	}
	if len(hops) == 0 {
		return min(demandMbps, LocalMbps), nil
	}
	rate := demandMbps
	for _, ls := range hops {
		if avail := spareMbps(ls); avail < rate {
			rate = avail
		}
	}
	return rate, nil
}

func refPathQueueDelay(net *Network, src, dst string) (time.Duration, error) {
	net.flush()
	hops, err := refRoute(net, src, dst)
	if err != nil {
		return 0, err
	}
	now := net.eng.Now()
	var total time.Duration
	for _, ls := range hops {
		backlog := net.backlogAt(ls, now)
		if backlog > 0 && ls.capacityBps > 0 {
			total += time.Duration(backlog / ls.capacityBps * float64(time.Second))
		}
	}
	return total, nil
}

func refPathLatencyOf(net *Network, src, dst string) (time.Duration, error) {
	return net.topo.PathLatency(src, dst)
}

// sameErr reports whether two read errors agree: both nil, or the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkPathReads compares the memoized path reads with the references for
// every ordered pair of names, values bit for bit and errors by text.
func checkPathReads(t testing.TB, net *Network, names []string) {
	t.Helper()
	for _, src := range names {
		for _, dst := range names {
			got, err := net.PathAllocatedMbps(src, dst, 17)
			want, rerr := refPathAllocatedMbps(net, src, dst, 17)
			if !sameBits(got, want) || !sameErr(err, rerr) {
				t.Errorf("%v PathAllocatedMbps(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, got, err, want, rerr)
			}
			q, err := net.PathQueueDelay(src, dst)
			rq, rerr := refPathQueueDelay(net, src, dst)
			if q != rq || !sameErr(err, rerr) {
				t.Errorf("%v PathQueueDelay(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, q, err, rq, rerr)
			}
			l, err := net.PathLatencyOf(src, dst)
			rl, rerr := refPathLatencyOf(net, src, dst)
			if l != rl || !sameErr(err, rerr) {
				t.Errorf("%v PathLatencyOf(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, l, err, rl, rerr)
			}
		}
	}
}

// checkDemandOrder checks that the demand order kept across passes is
// exactly the last pass's active set sorted by (demand, FlowID).
func checkDemandOrder(t testing.TB, net *Network) {
	t.Helper()
	order := net.byDemand
	if len(order) != len(net.activeScratch) {
		t.Fatalf("%v: demand order holds %d flows, the pass had %d active", net.eng.Now(), len(order), len(net.activeScratch))
	}
	in := make(map[*flow]bool, len(order))
	for i, f := range order {
		if !f.inOrder {
			t.Fatalf("%v: flow %d in the demand order is not marked in order", net.eng.Now(), f.id)
		}
		in[f] = true
		if i == 0 {
			continue
		}
		if p := order[i-1]; p.demandBps > f.demandBps || p.demandBps == f.demandBps && p.id >= f.id {
			t.Fatalf("%v: demand order not strictly sorted at %d: (%v, %d) then (%v, %d)", net.eng.Now(), i, p.demandBps, p.id, f.demandBps, f.id)
		}
	}
	for _, f := range net.activeScratch {
		if !in[f] {
			t.Fatalf("%v: active flow %d missing from the demand order", net.eng.Now(), f.id)
		}
	}
}

// checkTagRates compares FlowRateByTag with a flowOrder scan by tag.
func checkTagRates(t testing.TB, net *Network, tags []string) {
	t.Helper()
	for _, tag := range tags {
		var bps float64
		for _, f := range net.flowOrder {
			if !f.gone && f.tag == tag {
				bps += f.rateBps
			}
		}
		if got := net.FlowRateByTag(tag); !sameBits(got, bps/1e6) {
			t.Errorf("%v FlowRateByTag(%q) = %v, scan %v", net.eng.Now(), tag, got, bps/1e6)
		}
	}
}

// FuzzFlowChurnMatchesRescan decodes bytes into flow churn on a grid of 24,
// 62 or 120 directed links (3×3, 4×5, 6×6: one, two or four arg-min
// blocks) — streams and transfers added, removed, re-demanded and cancelled,
// link directions throttled to whole Mbps (so fair shares tie demands
// exactly), links and nodes flapped through ApplyTopologyState, time
// advanced — and after every operation, and inside every transfer callback,
// checks the per-pass caches against rescans of the flow set. Zero-byte
// transfers finish inside the pass that first sees them, and failed ones call
// back from inside a reroute: the two places a flow leaves its directions
// without a pass being requested. After every operation the memoized path
// reads of every pair of nodes (and an unknown name) must also match their
// memo-free references, and every rate and bottleneck flag must match the
// reference pass (refPass: a scan of every link per round and FlowID
// re-sorted batches).
//
//	go test -run='^$' -fuzz=FuzzFlowChurnMatchesRescan -fuzztime=10s ./internal/simnet
func FuzzFlowChurnMatchesRescan(f *testing.F) {
	// The corpus: the byte streams of the deferred-pass script's seeds, on
	// each grid (the first byte picks it).
	for _, seed := range []int64{3, 11, 29} {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		for g := range byte(len(churnGrids)) {
			f.Add(append([]byte{g}, b...))
		}
	}
	// A fair share that equals a demand, in a batch collected out of FlowID
	// order: on the 3×3 grid, r000c000 -> r000c001 throttled to 10 Mbps
	// (taking effect at the 1 s tick) carries streams of 1 and 3 Mbps; the
	// first is raised to 5 Mbps and must freeze at the share of 5.
	f.Add([]byte{
		0,        // 3×3 grid
		9, 0, 18, // throttle the first link, forward, to 10 Mbps
		7, 60, // run 1.2 s
		0, 0, 0, 3, 0, // stream g0 r000c000 -> r000c001, 1 Mbps
		0, 1, 0, 3, 2, // stream g1 r000c000 -> r000c001, 3 Mbps
		4, 0, 4, // the first stream to 5 Mbps
	})
	f.Fuzz(replayChurn)
}

// churnGrids are the lattices replayChurn draws from: their linkOrders fill
// one arg-min block, one and most of a second, and four.
var churnGrids = []struct{ rows, cols int }{{3, 3}, {4, 5}, {6, 6}}

// replayChurn runs one decoded churn script with the checks above.
func replayChurn(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := churnGrids[next()%len(churnGrids)]
	topo, err := mesh.Grid(mesh.GridOptions{Rows: g.rows, Cols: g.cols, Seed: 5, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	defer net.Start()()
	links := topo.Links()
	tags := []string{"g0", "g1", "g2", "g3"}

	node := func() string { b := next(); return mesh.GridNodeName(b%g.rows, b/g.rows%g.cols) }
	names := append(topo.Nodes(), "ghost")
	var streams, transfers []FlowID
	down := map[mesh.LinkID]bool{}
	nodeDown := map[string]bool{}
	var done func(TransferResult)
	addTransfer := func(tag, src, dst string, bytes float64) {
		if id, err := net.AddTransfer(tag, src, dst, bytes, 0, done); err == nil {
			transfers = append(transfers, id)
		}
	}
	done = func(r TransferResult) {
		checkCachedReads(t, net)
		checkReferencePass(t, net)
		if !r.Failed && r.ID%2 == 0 {
			addTransfer(r.Tag, mesh.GridNodeName(int(r.ID)%g.rows, 0), mesh.GridNodeName(g.rows-1, int(r.ID)%g.cols), 2e5)
		}
	}
	for len(data) > 0 {
		switch op := next() % 11; {
		case op < 3:
			id, err := net.AddStream(tags[next()%4], node(), node(), 1+float64(next()%32))
			if err == nil {
				streams = append(streams, id)
			}
		case op == 3 && len(streams) > 0:
			i := next() % len(streams)
			if err := net.RemoveStream(streams[i]); err != nil {
				t.Fatal(err)
			}
			streams = append(streams[:i], streams[i+1:]...)
		case op == 4 && len(streams) > 0:
			if err := net.SetStreamDemand(streams[next()%len(streams)], 1+float64(next()%32)); err != nil {
				t.Fatal(err)
			}
		case op < 7:
			addTransfer(tags[next()%4], node(), node(), float64(next()%4)*1e6) // a quarter send nothing
		case op == 7:
			if err := eng.Run(eng.Now() + time.Duration(next())*20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case op == 8 && len(transfers) > 0:
			_ = net.CancelTransfer(transfers[next()%len(transfers)]) // finished ones are unknown
		case op == 9:
			// Observed at the next sampling tick, like any trace change.
			id, b := links[next()%len(links)].ID, next()
			from, to := id.A, id.B
			if b%2 == 1 {
				from, to = to, from
			}
			mbps := float64(1 + b/2%16)
			if err := topo.SetDirectedCapacity(from, to, trace.Constant("throttle", time.Second, mbps, 600)); err != nil {
				t.Fatal(err)
			}
		default:
			if b := next(); b%4 == 0 {
				name := node()
				nodeDown[name] = !nodeDown[name]
				if err := topo.SetNodeUp(name, !nodeDown[name]); err != nil {
					t.Fatal(err)
				}
			} else {
				id := links[b/4%len(links)].ID
				down[id] = !down[id]
				if err := topo.SetLinkUp(id.A, id.B, !down[id]); err != nil {
					t.Fatal(err)
				}
			}
			net.ApplyTopologyState()
		}
		checkCachedReads(t, net)
		checkReferencePass(t, net)
		checkTagRates(t, net, tags)
		checkPathReads(t, net, names)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestStaleCrossingsResynced pins the case the per-pass allocation cache
// must not miss: a zero-byte transfer finishes inside the pass that first
// sees it, with no further pass requested, so the reads in its callback and
// after it must drop it from every direction it crossed.
func TestStaleCrossingsResynced(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.AddStream("s", "a", "c", 3); err != nil {
		t.Fatal(err)
	}
	var inCallback float64
	if _, err := net.AddTransfer("t", "a", "c", 0, 0, func(TransferResult) {
		var err error
		if inCallback, err = net.PathAllocatedMbps("a", "c", 100); err != nil {
			t.Error(err)
		}
		checkCachedReads(t, net)
	}); err != nil {
		t.Fatal(err)
	}
	checkCachedReads(t, net)
	if inCallback != 7 {
		t.Errorf("spare a->c inside the callback = %v, want 7 (the finished transfer holds nothing)", inCallback)
	}
	s, err := net.LinkStats("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if s.AllocatedMbps != 3 {
		t.Errorf("a->b allocated %v Mbps after the transfer finished, want 3", s.AllocatedMbps)
	}
}
