package simnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
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

// FuzzFlowChurnMatchesRescan decodes bytes into flow churn on a 3x3 grid —
// streams and transfers added, removed, re-demanded and cancelled, links
// flapped through ApplyTopologyState, time advanced — and after every
// operation, and inside every transfer callback, checks the per-pass caches
// against rescans of the flow set. Zero-byte transfers finish inside the pass
// that first sees them, and failed ones call back from inside a reroute: the
// two places a flow leaves its directions without a pass being requested.
//
//	go test -run='^$' -fuzz=FuzzFlowChurnMatchesRescan -fuzztime=10s ./internal/simnet
func FuzzFlowChurnMatchesRescan(f *testing.F) {
	// The corpus: the byte streams of the deferred-pass script's seeds.
	for _, seed := range []int64{3, 11, 29} {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(replayChurn)
}

// replayChurn runs one decoded churn script with the checks above.
func replayChurn(t *testing.T, data []byte) {
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 3, Cols: 3, Seed: 5, Duration: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	defer net.Start()()
	links := topo.Links()
	tags := []string{"g0", "g1", "g2", "g3"}

	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	node := func() string { b := next(); return mesh.GridNodeName(b%3, b/3%3) }
	var streams, transfers []FlowID
	down := map[mesh.LinkID]bool{}
	var done func(TransferResult)
	addTransfer := func(tag, src, dst string, bytes float64) {
		if id, err := net.AddTransfer(tag, src, dst, bytes, 0, done); err == nil {
			transfers = append(transfers, id)
		}
	}
	done = func(r TransferResult) {
		checkCachedReads(t, net)
		if !r.Failed && r.ID%2 == 0 {
			addTransfer(r.Tag, mesh.GridNodeName(int(r.ID)%3, 0), mesh.GridNodeName(2, int(r.ID)%3), 2e5)
		}
	}
	for len(data) > 0 {
		switch op := next() % 10; {
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
		default:
			id := links[next()%len(links)].ID
			down[id] = !down[id]
			if err := topo.SetLinkUp(id.A, id.B, !down[id]); err != nil {
				t.Fatal(err)
			}
			net.ApplyTopologyState()
		}
		checkCachedReads(t, net)
		checkTagRates(t, net, tags)
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
