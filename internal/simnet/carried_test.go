package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"bass/internal/mesh"
	"bass/internal/sim"
)

// carryRef is the reference for the network's lazy byte accounting. At
// every dispatch boundary, and wherever check runs, it integrates each flow
// live at its last sample over the time since, at the rate it read then:
// the flow's tag gains rate × dt (a transfer's clipped to what it has left
// to send) and every direction on its path the unclipped rate × dt. This is
// the eager sweep the network ran at every advance before streams folded
// their bits per rate change and directions accrued allocBps × dt. Rates
// only change in passes, which run at the virtual time of the mutation that
// asked for them, before the engine moves the clock on, so the rates a
// boundary reads hold until the next.
type carryRef struct {
	net   *Network
	at    time.Duration       // the last sample's instant
	live  []*refFlow          // the flows live at the last sample, ascending FlowID
	byID  map[FlowID]*refFlow // the same flows by id
	gen   uint64              // the last sample's stamp
	tags  map[string]float64  // bits carried per tag
	links []float64           // bits carried per direction, by linkOrder position
}

type refFlow struct {
	tag  string
	rate float64
	left float64 // bits still to send: a transfer's, +Inf for a stream
	path []int32 // linkOrder positions
	gen  uint64
}

// newCarryRef starts the reference now; it samples at every dispatch
// boundary after the network's own flush.
func newCarryRef(net *Network) *carryRef {
	r := &carryRef{
		net:   net,
		at:    net.eng.Now(),
		byID:  map[FlowID]*refFlow{},
		tags:  map[string]float64{},
		links: make([]float64, len(net.linkOrder)),
	}
	net.eng.BeforeDispatch(r.sample)
	return r
}

// sample integrates up to now at the recorded rates, then records the live
// flows' current rates and paths.
func (r *carryRef) sample() {
	now := r.net.eng.Now()
	if dt := (now - r.at).Seconds(); dt > 0 {
		for _, f := range r.live {
			bits := f.rate * dt
			for _, l := range f.path {
				r.links[l] += bits
			}
			bits = min(bits, f.left)
			f.left -= bits
			r.tags[f.tag] += bits
		}
	}
	r.at = now
	r.gen++
	r.live = r.live[:0]
	for _, f := range liveFlows(r.net) {
		rf := r.byID[f.id]
		if rf == nil {
			rf = &refFlow{tag: r.net.tags.name(f.tag), left: math.Inf(1)}
			if f.kind == kindTransfer {
				rf.left = r.net.xfers.at(f.xfer).totalBits
			}
			r.byID[f.id] = rf
		}
		rf.rate, rf.gen = f.rateBps, r.gen
		rf.path = append(rf.path[:0], r.net.linkPath(f)...)
		r.live = append(r.live, rf)
	}
	for id, rf := range r.byID {
		if rf.gen != r.gen {
			delete(r.byID, id)
		}
	}
}

// nearRel reports whether got is within 1e-9 of want, relative.
func nearRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// check flushes, samples, and compares BytesByTag, TagRate and every
// direction's CarriedMB with the integrals, within 1e-9 relative.
// BytesByTag must hold every tag that carried something and every live
// flow's tag, and nothing else but zeros.
func (r *carryRef) check(t testing.TB) {
	t.Helper()
	net := r.net
	net.flush()
	r.sample()
	now := net.eng.Now()
	live := map[string]bool{}
	for _, f := range r.live {
		live[f.tag] = true
	}
	got := net.BytesByTag()
	for tag, bits := range r.tags {
		mb, ok := got[tag]
		if !ok {
			if bits > 0 || live[tag] {
				t.Errorf("%v BytesByTag has no %q; the integral carried %v bits", now, tag, bits)
			}
			continue
		}
		if !nearRel(mb*8*1e6, bits) {
			t.Errorf("%v BytesByTag[%q] = %v bits, the integral %v", now, tag, mb*8*1e6, bits)
		}
		if now > 0 {
			if rate, want := net.TagRate(tag), bits/now.Seconds()/1e6; !nearRel(rate, want) {
				t.Errorf("%v TagRate(%q) = %v Mbps, the integral %v", now, tag, rate, want)
			}
		}
	}
	for tag, mb := range got {
		if _, ok := r.tags[tag]; !ok && (mb != 0 || !live[tag]) {
			t.Errorf("%v BytesByTag[%q] = %v MB for a tag that carried nothing", now, tag, mb)
		}
	}
	for l, s := range net.AllLinkStats() {
		if !nearRel(s.CarriedMB*8*1e6, r.links[l]) {
			t.Errorf("%v %s->%s carried %v bits, the integral %v", now, s.From, s.To, s.CarriedMB*8*1e6, r.links[l])
		}
	}
}

// TestLazyAccountingMatchesIntegral replays a seeded script on a 4x4 grid
// whose link traces move rates on their own: streams (some co-located) are
// added, re-demanded and removed, transfers (some capped, some co-located,
// some empty) start, finish and are cancelled, and nodes and links flap
// through ApplyTopologyState, parking streams and failing transfers. At
// every dispatch boundary and at the end, the tag and link byte counts must
// match carryRef's integrals.
func TestLazyAccountingMatchesIntegral(t *testing.T) {
	const horizon = 60 * time.Second
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 4, Cols: 4, Seed: 7, Duration: 2 * horizon})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(7)
	net := New(eng, topo)
	defer net.Start()()
	ref := newCarryRef(net)
	var parks, removals, demands, completions, failures, folded int
	eng.BeforeDispatch(func() {
		ref.check(t)
		parks += net.ParkedFlows()
		for _, f := range liveFlows(net) {
			if f.kind == kindStream && f.carriedBits > 0 {
				folded++
			}
		}
	})

	rng := rand.New(rand.NewSource(63))
	node := func() string { return mesh.GridNodeName(rng.Intn(4), rng.Intn(4)) }
	tag := func() string { return fmt.Sprintf("app%d", rng.Intn(6)) }
	var streams, transfers []FlowID
	nodeDown := map[string]bool{}
	linkDown := map[mesh.LinkID]bool{}
	links := topo.Links()
	done := func(r TransferResult) {
		if r.Failed {
			failures++
		} else {
			completions++
		}
	}
	handler := func() {
		for ops := 1 + rng.Intn(4); ops > 0; ops-- {
			switch op := rng.Intn(14); {
			case op < 4:
				src, dst := node(), node()
				if rng.Intn(6) == 0 {
					dst = src
				}
				if id, err := net.AddStream(tag(), src, dst, 1+rng.Float64()*20); err == nil {
					streams = append(streams, id)
				}
			case op == 4 && len(streams) > 0:
				i := rng.Intn(len(streams))
				if err := net.RemoveStream(streams[i]); err != nil {
					t.Fatal(err)
				}
				streams = append(streams[:i], streams[i+1:]...)
				removals++
			case op == 5 && len(streams) > 0:
				if err := net.SetStreamDemand(streams[rng.Intn(len(streams))], 1+rng.Float64()*20); err != nil {
					t.Fatal(err)
				}
				demands++
			case op < 10:
				src, dst := node(), node()
				if rng.Intn(6) == 0 {
					dst = src
				}
				capMbps := 0.0
				if rng.Intn(2) == 0 {
					capMbps = 2 + float64(rng.Intn(18))
				}
				if id, err := net.AddTransfer(tag(), src, dst, float64(rng.Intn(4))*1e6, capMbps, done); err == nil {
					transfers = append(transfers, id)
				}
			case op == 10 && len(transfers) > 0:
				_ = net.CancelTransfer(transfers[rng.Intn(len(transfers))]) // finished ones are unknown
			case op == 11:
				name := node()
				nodeDown[name] = !nodeDown[name]
				if err := topo.SetNodeUp(name, !nodeDown[name]); err != nil {
					t.Fatal(err)
				}
				net.ApplyTopologyState()
			default:
				id := links[rng.Intn(len(links))].ID
				linkDown[id] = !linkDown[id]
				if err := topo.SetLinkUp(id.A, id.B, !linkDown[id]); err != nil {
					t.Fatal(err)
				}
				net.ApplyTopologyState()
			}
		}
	}
	for i := 0; i < 240; i++ {
		eng.At(time.Duration(rng.Intn(int(horizon/(250*time.Millisecond))))*250*time.Millisecond, handler)
	}
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	ref.check(t)
	if parks == 0 || removals == 0 || demands == 0 || completions == 0 || failures == 0 || folded == 0 {
		t.Errorf("script parked %d stream-boundaries, removed %d streams, re-demanded %d, completed %d and failed %d transfers, and saw %d stream-boundaries with folded bits; want all > 0",
			parks, removals, demands, completions, failures, folded)
	}
}

// TestAdvanceVisitsTransfersOnly pins the work an advance does: with 200
// streams and 3 transfers live, each advance visits the 3 transfers, and a
// link read between advances reads no crossing list.
func TestAdvanceVisitsTransfersOnly(t *testing.T) {
	const streams, transfers, advances = 200, 3, 10
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 4, Cols: 4, Seed: 3, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(3)
	net := New(eng, topo)
	rng := rand.New(rand.NewSource(3))
	node := func() string { return mesh.GridNodeName(rng.Intn(4), rng.Intn(4)) }
	for i := 0; i < streams; i++ {
		if _, err := net.AddStream(fmt.Sprint("s", i%20), node(), node(), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < transfers; i++ {
		if _, err := net.AddTransfer("t", mesh.GridNodeName(0, i), mesh.GridNodeName(3, i), 1e12, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	net.flush()
	before := net.sweptFlows
	for i := 1; i <= advances; i++ {
		eng.At(time.Duration(i)*100*time.Millisecond, net.advanceProgress)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.sweptFlows - before; got != transfers*advances {
		t.Errorf("%d advances visited %d flows, want %d (the transfers only)", advances, got, transfers*advances)
	}

	// Past the last advance, with a crossing list emptied under it: a read
	// that scanned one would slice out of range.
	eng.At(1500*time.Millisecond, func() {})
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if net.lastAdvance >= eng.Now() {
		t.Fatalf("last advance at %v, now %v: the read must fall between advances", net.lastAdvance, eng.Now())
	}
	cross, swept := net.fill.cross, net.sweptFlows
	net.fill.cross = nil
	var carried float64
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("AllLinkStats read a crossing list: %v", p)
			}
		}()
		for _, s := range net.AllLinkStats() {
			carried += s.CarriedMB
		}
	}()
	net.fill.cross = cross
	if net.sweptFlows != swept {
		t.Errorf("AllLinkStats swept %d flows", net.sweptFlows-swept)
	}
	if carried <= 0 {
		t.Errorf("links carried %v MB in all, want > 0", carried)
	}
}

// TestFlowRecordSize keeps the flow record at 104 bytes or less and free of
// Go pointers: a city-scale network holds 100k of them in pages the garbage
// collector never scans. A transfer's side record, which holds its
// callbacks, stays at 56 bytes.
func TestFlowRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(flow{}); size > 104 {
		t.Errorf("flow record is %d bytes, want at most 104", size)
	}
	ft := reflect.TypeOf(flow{})
	for i := range ft.NumField() {
		switch fd := ft.Field(i); fd.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Int32, reflect.Uint64, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("flow field %s is a %v: the record must hold no Go pointer", fd.Name, fd.Type)
		}
	}
	if size := unsafe.Sizeof(transfer{}); size > 56 {
		t.Errorf("transfer record is %d bytes, want at most 56", size)
	}
}
