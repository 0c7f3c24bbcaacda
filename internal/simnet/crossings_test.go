package simnet

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// flowsAt returns the records of the flows in slots.
func flowsAt(net *Network, slots []int32) []*flow {
	out := make([]*flow, len(slots))
	for i, s := range slots {
		out[i] = net.flow(s)
	}
	return out
}

// liveFlows returns every live flow, ascending FlowID.
func liveFlows(net *Network) []*flow {
	var out []*flow
	for _, f := range flowsAt(net, net.flowOrder) {
		if !f.gone {
			out = append(out, f)
		}
	}
	return out
}

// hopStates returns the link states along f's path, in hop order.
func hopStates(net *Network, f *flow) []*linkState {
	var out []*linkState
	for _, l := range net.linkPath(f) {
		out = append(out, net.linkOrder[l])
	}
	return out
}

// scanAllocBps is the reference a direction's cached allocation must equal:
// the flowOrder rescan link reads ran before allocations were cached per
// pass, summing every live flow crossing ls in ascending FlowID order.
func scanAllocBps(net *Network, ls *linkState) float64 {
	var alloc float64
	for _, f := range liveFlows(net) {
		if slices.Contains(net.linkPath(f), ls.idx) {
			alloc += f.rateBps
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
			if s := scanSpareMbps(net, net.linkOrder[h]); s < want {
				want = s
			}
		}
		if !sameBits(got, want) {
			t.Errorf("%v PathAllocatedMbps(%s, %s) = %v, rescan %v", net.eng.Now(), src, dst, got, want)
		}
	}
	checkDemandOrder(t, net)
}

// refPathReads holds the three path reads as they were before the read
// memo: PathAllocatedMbps, PathQueueDelay and PathLatencyOf, each with its
// error.
type refPathReads struct {
	alloc              float64
	queue, latency     time.Duration
	allocErr, queueErr error
	latencyErr         error
}

// readRefPath computes refPathReads from one fresh route walk, each hop's
// link state looked up by name, so a pair costs one walk per operation.
// Like the memoized reads, it flushes first. Co-located endpoints read the
// node-local bus and no queue without checking their names; the latency is
// the topology's PathLatency: the same walk's summed link latencies.
func readRefPath(net *Network, src, dst string, demandMbps float64) refPathReads {
	net.flush()
	var r refPathReads
	var hops []*linkState
	err := net.topo.WalkRoute(src, dst, func(from, to string, l *mesh.Link) {
		r.latency += l.LatencyOneWay
		if ls, ok := net.links[dhop{from: from, to: to}]; ok {
			hops = append(hops, ls)
		}
	})
	r.latencyErr = err
	if src == dst {
		r.alloc = min(demandMbps, LocalMbps)
		return r
	}
	if err != nil {
		r.allocErr, r.queueErr = err, err
		return r
	}
	r.alloc = demandMbps
	now := net.eng.Now()
	for _, ls := range hops {
		if avail := spareMbps(ls); avail < r.alloc {
			r.alloc = avail
		}
		backlog := net.backlogAt(ls, now)
		if backlog > 0 && ls.capacityBps > 0 {
			r.queue += time.Duration(backlog / ls.capacityBps * float64(time.Second))
		}
	}
	return r
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
			ref := readRefPath(net, src, dst, 17)
			got, err := net.PathAllocatedMbps(src, dst, 17)
			if !sameBits(got, ref.alloc) || !sameErr(err, ref.allocErr) {
				t.Errorf("%v PathAllocatedMbps(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, got, err, ref.alloc, ref.allocErr)
			}
			q, err := net.PathQueueDelay(src, dst)
			if q != ref.queue || !sameErr(err, ref.queueErr) {
				t.Errorf("%v PathQueueDelay(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, q, err, ref.queue, ref.queueErr)
			}
			l, err := net.PathLatencyOf(src, dst)
			if l != ref.latency || !sameErr(err, ref.latencyErr) {
				t.Errorf("%v PathLatencyOf(%s, %s) = %v, %v; reference %v, %v", net.eng.Now(), src, dst, l, err, ref.latency, ref.latencyErr)
			}
		}
	}
}

// checkDemandOrder checks that the demand order kept across builds is
// exactly the last build's active positions sorted by (demand, FlowID), that
// each position names its flow, and that the flow side's demands, paths and
// crossing lists describe the active flows as they stand.
func checkDemandOrder(t testing.TB, net *Network) {
	t.Helper()
	d := &net.fill
	order := d.order
	if len(order) != len(d.flows) {
		t.Fatalf("%v: demand order holds %d positions, the build had %d active", net.eng.Now(), len(order), len(d.flows))
	}
	active := flowsAt(net, d.flows)
	seen := make([]bool, len(active))
	for i, p := range order {
		f := active[p]
		if seen[p] || !f.inOrder || f.pos != p {
			t.Fatalf("%v: position %d (flow %d) in the demand order: repeated %v, in order %v, pos %d", net.eng.Now(), p, f.id, seen[p], f.inOrder, f.pos)
		}
		seen[p] = true
		if i == 0 {
			continue
		}
		if q := active[order[i-1]]; q.demandBps > f.demandBps || q.demandBps == f.demandBps && q.id >= f.id {
			t.Fatalf("%v: demand order not strictly sorted at %d: (%v, %d) then (%v, %d)", net.eng.Now(), i, q.demandBps, q.id, f.demandBps, f.id)
		}
	}
	crossings := make([][]int32, len(net.linkOrder))
	for p, f := range active {
		if p > 0 && active[p-1].id >= f.id {
			t.Fatalf("%v: active flows not in FlowID order at position %d", net.eng.Now(), p)
		}
		if r := d.fl[p]; !sameBits(r.demand, f.demandBps) || !sameBits(r.rate, f.rateBps) {
			t.Fatalf("%v: flow %d: dense demand %v and rate %v, the flow's %v and %v", net.eng.Now(), f.id, r.demand, r.rate, f.demandBps, f.rateBps)
		}
		path := d.paths[d.fl[p].path:d.fl[p+1].path]
		if d.fl[p].path != f.path || int32(len(path)) != f.hops {
			t.Fatalf("%v: flow %d: dense path of %d hops at %d, the flow's %d at %d", net.eng.Now(), f.id, len(path), d.fl[p].path, f.hops, f.path)
		}
		for _, l := range path {
			crossings[l] = append(crossings[l], int32(p))
		}
	}
	for l := range net.linkOrder {
		if got := d.crossing(int32(l)); !slices.Equal(got, crossings[l]) {
			t.Fatalf("%v: link %d crossing list %v, the paths give %v", net.eng.Now(), l, got, crossings[l])
		}
	}
}

// checkTagRates compares FlowRateByTag with a flowOrder scan by tag.
func checkTagRates(t testing.TB, net *Network, tags []string) {
	t.Helper()
	for _, tag := range tags {
		var bps float64
		for _, f := range liveFlows(net) {
			if net.tags.name(f.tag) == tag {
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
// co-located ones among them, link directions throttled to whole Mbps (so
// fair shares tie demands exactly), links and nodes flapped through
// ApplyTopologyState, time advanced — and after every operation, and inside
// every transfer callback, checks the per-pass caches against rescans of the
// flow set. Zero-byte transfers finish inside the pass that first sees them,
// which must request the pass that drops them, and failed ones call back from
// inside a reroute, the one place a flow leaves its directions before a pass
// is requested. After every operation no removed flow may remain in the last
// full pass's active set, the memoized path reads of every pair of nodes (and
// an unknown name) must match their memo-free references, every tag's bytes
// and rate and every direction's carried bytes must match carryRef's
// integral of each flow's rate, and every rate and bottleneck flag must
// match the reference pass (refPass: a scan of every link per round and
// FlowID re-sorted batches). A twin network built with
// SetFullRecompute(true) replays the same script, rebuilding its flow side on every pass and flushing inside its transfer callbacks as
// the network's checks do: until the network absorbs a pass, its
// digestNetwork and transfer results must equal the network's after every
// operation and inside every callback, so local passes and capacity-only
// passes that reuse the flow side are checked against the from-scratch full
// passes they stand for; after it, the
// network must still complete the same transfers with the same results, up
// to completionSlack in their times (see checkTwin), so a pass absorbed
// that should have run is caught too, until a completion lands within
// completionSlack of an operation boundary.
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
	// Local passes beside a routed stream and a routed transfer: a
	// co-located stream is added, re-demanded and removed, and a co-located
	// transfer runs to completion, each with no routed flow changing.
	f.Add([]byte{
		0,             // 3×3 grid
		0, 0, 0, 8, 9, // stream g0 r000c000 -> r002c002, 10 Mbps
		5, 1, 0, 8, 2, // transfer g1 r000c000 -> r002c002, 2 MB
		11, 4, 0, 5, // co-located stream g0 at r001c001, 6 Mbps
		7, 5, // run 0.1 s
		4, 1, 20, // the co-located stream to 21 Mbps
		11, 4, 1, 3, // co-located transfer g0 at r001c001, 3 MB
		7, 5, // run 0.1 s
		3, 1, // remove the co-located stream
		7, 100, // run 2 s
	})
	// Link flaps: the epoch refresh of every direction's availability, and
	// change-point prediction for links coming back.
	f.Add([]byte{
		6,             // 3×3 grid
		0, 0, 0, 8, 9, // stream g0 r000c000 -> r002c002, 10 Mbps
		5, 1, 0, 8, 2, // transfer g1 r000c000 -> r002c002, 2 MB
		7, 30, // run 0.6 s
		10, 1, // flap links[0] down
		7, 60, // run 1.2 s
		10, 1, // and up
		10, 9, // flap links[2] down
		7, 100, // run 2 s
		10, 9, // and up
		7, 100, // run 2 s
	})
	// Two transfers finishing at one instant, each of whose callbacks starts
	// another: the twin must run the second completion nested in the first
	// callback, as the network under test does when its callback's checks
	// flush, or the two spawned transfers take their ids in opposite orders
	// (g0 and g3 swap ID 31 at 8.40 s on the 6×6 grid).
	r := rand.New(rand.NewSource(500))
	b := make([]byte, 500)
	for range 3 {
		r.Read(b)
	}
	f.Add(b)
	f.Fuzz(replayChurn)
}

// TestFlowChurnRandomScripts replays seeded random scripts of 40 to 640
// bytes with every check of FuzzFlowChurnMatchesRescan, so each tier-1 run
// covers churn beyond the corpus without a fuzzing session.
func TestFlowChurnRandomScripts(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := range 30 {
		b := make([]byte, 40+r.Intn(601))
		r.Read(b)
		t.Run(fmt.Sprint(i), func(t *testing.T) { replayChurn(t, b) })
	}
}

// churnGrids are the lattices replayChurn draws from: their linkOrders fill
// one arg-min block, one and most of a second, and four.
var churnGrids = []struct{ rows, cols int }{{3, 3}, {4, 5}, {6, 6}}

// churnSide is one network replayChurn drives, over its own copy of the grid
// and its own engine: the network under test, or its full-recompute twin.
type churnSide struct {
	topo               *mesh.Topology
	eng                *sim.Engine
	net                *Network
	streams, transfers []FlowID
	// callbacks records each transfer callback's result and the network
	// digest taken inside it, since the last operation.
	callbacks []churnCallback
}

type churnCallback struct {
	result   TransferResult
	digest   [sha256.Size]byte // zero once a check has seen an absorbed pass
	absorbed bool              // the network had absorbed a pass by then
}

// churnMaxOps and churnMaxSim cap a decoded script: replayChurn stops after
// churnMaxOps operations, or before the first one that would start at or
// past churnMaxSim of simulated time. The operations it replays keep every
// check. Every corpus seed ends before either cap (the longest runs 136
// operations over 28.9 s); a fuzzed input that grows past them is cut there,
// so no single input costs much more than a second of checks.
const (
	churnMaxOps = 150
	churnMaxSim = 30 * time.Second
)

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
	first := next()
	g := churnGrids[first%len(churnGrids)]
	sides := make([]*churnSide, 2) // the network under test, then its twin while in lockstep
	for i := range sides {
		topo, err := mesh.Grid(mesh.GridOptions{Rows: g.rows, Cols: g.cols, Seed: 5, Duration: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(1)
		s := &churnSide{topo: topo, eng: eng, net: New(eng, topo)}
		s.net.SetFullRecompute(i == 1)
		defer s.net.Start()()
		sides[i] = s
	}
	net := sides[0].net
	carried := newCarryRef(net)
	both := func(fn func(s *churnSide)) {
		for _, s := range sides {
			fn(s)
		}
	}
	links := sides[0].topo.Links()
	tags := []string{"g0", "g1", "g2", "g3"}

	node := func() string { b := next(); return mesh.GridNodeName(b%g.rows, b/g.rows%g.cols) }
	names := append(sides[0].topo.Nodes(), "ghost")
	down := map[mesh.LinkID]bool{}
	nodeDown := map[string]bool{}
	digests := true // callbacks take digests until a check sees an absorbed pass
	var addTransfer func(s *churnSide, tag, src, dst string, bytes float64)
	addTransfer = func(s *churnSide, tag, src, dst string, bytes float64) {
		id, err := s.net.AddTransfer(tag, src, dst, bytes, 0, func(r TransferResult) {
			if len(sides) > 1 {
				c := churnCallback{result: r, absorbed: s.net.alloc.SkippedPasses > 0}
				if digests {
					c.digest = digestNetwork(s.net)
				}
				s.callbacks = append(s.callbacks, c)
			}
			// Both sides flush here, so a callback's nested pass runs at the
			// same point on each and spawned transfers get the same ids.
			if s.net == net {
				checkCachedReads(t, net)
				checkReferencePass(t, net)
			} else {
				s.net.flush()
			}
			if !r.Failed && r.ID%2 == 0 {
				addTransfer(s, r.Tag, mesh.GridNodeName(int(r.ID)%g.rows, 0), mesh.GridNodeName(g.rows-1, int(r.ID)%g.cols), 2e5)
			}
		})
		if err == nil {
			s.transfers = append(s.transfers, id)
		}
	}
	addStream := func(s *churnSide, tag, src, dst string, mbps float64) {
		if id, err := s.net.AddStream(tag, src, dst, mbps); err == nil {
			s.streams = append(s.streams, id)
		}
	}
	for ops := 0; len(data) > 0 && ops < churnMaxOps && sides[0].eng.Now() < churnMaxSim; ops++ {
		streams, transfers := sides[0].streams, sides[0].transfers
		switch op := next() % 12; {
		case op < 3:
			tag, src, dst, mbps := tags[next()%4], node(), node(), 1+float64(next()%32)
			both(func(s *churnSide) { addStream(s, tag, src, dst, mbps) })
		case op == 3 && len(streams) > 0:
			i := next() % len(streams)
			both(func(s *churnSide) {
				if err := s.net.RemoveStream(s.streams[i]); err != nil {
					t.Fatal(err)
				}
				s.streams = append(s.streams[:i], s.streams[i+1:]...)
			})
		case op == 4 && len(streams) > 0:
			i, mbps := next()%len(streams), 1+float64(next()%32)
			both(func(s *churnSide) {
				if err := s.net.SetStreamDemand(s.streams[i], mbps); err != nil {
					t.Fatal(err)
				}
			})
		case op < 7:
			tag, src, dst, bytes := tags[next()%4], node(), node(), float64(next()%4)*1e6 // a quarter send nothing
			both(func(s *churnSide) { addTransfer(s, tag, src, dst, bytes) })
		case op == 7:
			until := sides[0].eng.Now() + time.Duration(next())*20*time.Millisecond
			both(func(s *churnSide) {
				if err := s.eng.Run(until); err != nil {
					t.Fatal(err)
				}
			})
		case op == 8 && len(transfers) > 0:
			i := next() % len(transfers)
			both(func(s *churnSide) { _ = s.net.CancelTransfer(s.transfers[i]) }) // finished ones are unknown
		case op == 9:
			// Observed at the next sampling tick, like any trace change.
			id, b := links[next()%len(links)].ID, next()
			from, to := id.A, id.B
			if b%2 == 1 {
				from, to = to, from
			}
			tr := trace.Constant("throttle", time.Second, float64(1+b/2%16), 600)
			both(func(s *churnSide) {
				if err := s.topo.SetDirectedCapacity(from, to, tr); err != nil {
					t.Fatal(err)
				}
			})
		case op == 11:
			// Co-located churn: only the local pass sees it.
			src, b := node(), next()
			if b%2 == 0 {
				mbps := 1 + float64(next()%32)
				both(func(s *churnSide) { addStream(s, tags[b/2%4], src, src, mbps) })
			} else {
				bytes := float64(next()%4) * 1e6
				both(func(s *churnSide) { addTransfer(s, tags[b/2%4], src, src, bytes) })
			}
		default:
			if b := next(); b%4 == 0 {
				name := node()
				nodeDown[name] = !nodeDown[name]
				both(func(s *churnSide) {
					if err := s.topo.SetNodeUp(name, !nodeDown[name]); err != nil {
						t.Fatal(err)
					}
				})
			} else {
				id := links[b/4%len(links)].ID
				down[id] = !down[id]
				both(func(s *churnSide) {
					if err := s.topo.SetLinkUp(id.A, id.B, !down[id]); err != nil {
						t.Fatal(err)
					}
				})
			}
			both(func(s *churnSide) { s.net.ApplyTopologyState() })
		}
		if len(sides) > 1 && !checkTwin(t, sides[0], sides[1]) {
			sides = sides[:1]
		}
		digests = net.alloc.SkippedPasses == 0
		checkCachedReads(t, net)
		checkNoRemovedActive(t, net)
		checkReferencePass(t, net)
		checkTagRates(t, net, tags)
		carried.check(t)
		checkPathReads(t, net, names)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// checkNoRemovedActive flushes, then checks that no routed change awaits a
// pass and that the last build's active set holds no removed flow: a routed
// flow that left requested the pass that drops it and hands its share to
// the rest.
func checkNoRemovedActive(t testing.TB, net *Network) {
	t.Helper()
	net.flush()
	if net.flowsDirty {
		t.Fatalf("%v: a routed flow changed without requesting a pass", net.eng.Now())
	}
	for _, f := range flowsAt(net, net.fill.flows) {
		if f.gone {
			t.Fatalf("%v: the last full pass rates removed flow %d", net.eng.Now(), f.id)
		}
	}
}

// completionSlack bounds how far a transfer's start and finish may stray
// from its full-recompute twin's once the network has absorbed a pass: ETA
// rounding moves a completion by a nanosecond, and a transfer a callback
// starts inherits its caller's drift.
const completionSlack = time.Microsecond

// checkTwin compares the network under test with its full-recompute twin,
// in every transfer callback due since the last check, and now, and reports
// whether the twin can still be driven in lockstep. Until the network
// absorbs a pass the two must be bit-equal: each callback's result and
// network digest, and the digest now. An absorbed pass settles nothing
// where a full pass settles every flow and link, so after it the backlogs
// and carried bits part from the twin's in their last bits, and so may a
// completion time by a nanosecond of ETA rounding. From then on the network
// must still complete the transfers the twin completes, in the same order,
// with equal results but for start and finish times within completionSlack.
// Two completions within completionSlack of each other may fire in either
// order, and one within completionSlack of now on either side of this
// operation boundary; after such a tie the two networks' transfer ids and
// the script's transfer indices may name different transfers, so the twin
// leaves the comparison there.
func checkTwin(t testing.TB, s, twin *churnSide) bool {
	t.Helper()
	defer func() { s.callbacks, twin.callbacks = s.callbacks[:0], twin.callbacks[:0] }()
	s.net.flush() // run each side's requested pass: its callbacks are due now
	twin.net.flush()
	absorbed := s.net.alloc.SkippedPasses > 0
	if !absorbed && len(s.callbacks) != len(twin.callbacks) {
		t.Fatalf("%v: %d transfer callbacks, full-recompute twin %d", s.eng.Now(), len(s.callbacks), len(twin.callbacks))
	}
	near := func(a, b time.Duration) bool { return a-b <= completionSlack && b-a <= completionSlack }
	matched := min(len(s.callbacks), len(twin.callbacks))
	for i, c := range s.callbacks[:matched] {
		want := twin.callbacks[i]
		if !c.absorbed {
			if c != want {
				t.Fatalf("%v: transfer callback %d (%+v) differs from the full-recompute twin's (%+v)", s.eng.Now(), i, c.result, want.result)
			}
			continue
		}
		got := c.result
		if got.ID != want.result.ID && near(got.Finished, want.result.Finished) {
			return false
		}
		if near(got.Started, want.result.Started) && near(got.Finished, want.result.Finished) {
			got.Started, got.Finished = want.result.Started, want.result.Finished
		}
		if got != want.result {
			t.Fatalf("%v: transfer callback %d (%+v) differs from the full-recompute twin's (%+v) beyond %v",
				s.eng.Now(), i, c.result, want.result, completionSlack)
		}
	}
	if len(s.callbacks) != len(twin.callbacks) {
		unmatched, on := s.callbacks[matched:], "the network"
		if len(twin.callbacks) > matched {
			unmatched, on = twin.callbacks[matched:], "the full-recompute twin"
		}
		for _, c := range unmatched {
			if !near(c.result.Finished, s.eng.Now()) {
				t.Fatalf("%v: transfer callback %+v on %s only, more than %v before now", s.eng.Now(), c.result, on, completionSlack)
			}
		}
		return false
	}
	if !absorbed && digestNetwork(s.net) != digestNetwork(twin.net) {
		t.Fatalf("%v: network digest differs from the full-recompute twin's", s.eng.Now())
	}
	return true
}

// TestStaleCrossingsResynced pins the case the per-pass allocation cache
// must not miss: a zero-byte transfer finishes inside the pass that first
// sees it. That pass requests the one that drops it, so the reads in its
// callback and after it must see no trace of it: not in any direction's
// crossings, and not in the stream's rate, which it held down to an even
// share of the line while it was live.
func TestStaleCrossingsResynced(t *testing.T) {
	for _, c := range []struct{ demand, spare float64 }{{3, 7}, {8, 2}} {
		eng, net := lineNet(t, 10)
		s, err := net.AddStream("s", "a", "c", c.demand)
		if err != nil {
			t.Fatal(err)
		}
		inCallback := -1.0
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
		if inCallback != c.spare {
			t.Errorf("%v Mbps stream: spare a->c inside the callback = %v, want %v (the finished transfer holds nothing)", c.demand, inCallback, c.spare)
		}
		if err := eng.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if r, err := net.StreamRate(s); err != nil || r != c.demand {
			t.Errorf("%v Mbps stream reads %v (err %v) after the transfer finished", c.demand, r, err)
		}
		ls, err := net.LinkStats("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if ls.AllocatedMbps != c.demand {
			t.Errorf("a->b allocated %v Mbps after the transfer finished, want %v", ls.AllocatedMbps, c.demand)
		}
	}
}

// TestReentrantPassMatchesFullRecompute drives completion callbacks that read
// the network mid-pass, each time with several transfers still live: the read
// runs a nested pass, which reschedules every live transfer and refills the
// scratch the outer pass iterates, so the outer pass must leave the
// schedule as the nested one left it. Every transfer's result must match the
// same script under SetFullRecompute(true), and under a script whose
// callbacks do not read (so nothing nests).
func TestReentrantPassMatchesFullRecompute(t *testing.T) {
	run := func(fullOnly, read bool) []TransferResult {
		eng, net := lineNet(t, 10)
		net.SetFullRecompute(fullOnly)
		var results []TransferResult
		record := func(r TransferResult) { results = append(results, r) }
		var probe func(TransferResult)
		probe = func(r TransferResult) {
			record(r)
			if !read {
				return
			}
			before := net.reschedules
			if _, err := net.PathAllocatedMbps("a", "c", 100); err != nil {
				t.Error(err)
			}
			if net.reschedules == before {
				t.Errorf("%v: the callback's read ran no nested pass", eng.Now())
			}
			// The nested pass's schedule is final: the outer pass must not
			// touch a completion event after the callback returns.
			rearms := net.rearms
			eng.At(eng.Now(), func() {
				if net.rearms != rearms {
					t.Errorf("%v: %d completion events rescheduled after the nested pass", eng.Now(), net.rearms-rearms)
				}
			})
		}
		add := func(tag, src, dst string, bytes float64, cb func(TransferResult)) {
			if _, err := net.AddTransfer(tag, src, dst, bytes, 0, cb); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.AddStream("s", "a", "c", 6); err != nil {
			t.Fatal(err)
		}
		add("t1", "a", "c", 1e6, func(r TransferResult) {
			record(r)
			add("z2", "a", "b", 0, probe) // nests again, t2 and t3 still live
		})
		add("t2", "a", "c", 2e6, record)
		add("z1", "a", "c", 0, probe)
		add("t3", "b", "c", 1.5e6, record)
		eng.At(2*time.Second, func() { add("t4", "a", "b", 1e6, record) })
		if err := eng.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		return results
	}
	want := run(true, true)
	if len(want) != 6 {
		t.Fatalf("full recompute finished %d transfers, want 6", len(want))
	}
	for _, c := range []struct {
		name     string
		fullOnly bool
		read     bool
	}{{"incremental", false, true}, {"no reads", false, false}} {
		got := run(c.fullOnly, c.read)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, full recompute %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: result %d = %+v, full recompute %+v", c.name, i, got[i], want[i])
			}
		}
	}
}
