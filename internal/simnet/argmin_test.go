package simnet

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"
)

// refPass is the water-filling pass as one linear scan of every link per
// round, demand-limited batches re-sorted by FlowID and bottleneck rounds
// frozen by a scan of the active list, with its own scratch state: the
// reference the blocked arg-min and the scan-or-sort batches must match.
type refPass struct {
	paths     map[*flow][]*linkState
	residual  map[*linkState]float64
	iterCount map[*linkState]int
	frozen    map[*flow]bool
	rate      map[*flow]float64
	// bottleneck marks every link that was an arg-min in some round.
	bottleneck map[*linkState]bool
}

// runRefPass water-fills active (ascending FlowID) over the network's links
// at their current capacities, touching no network state.
func runRefPass(net *Network, active []*flow) *refPass {
	links := net.linkOrder
	p := &refPass{
		paths:      map[*flow][]*linkState{},
		residual:   map[*linkState]float64{},
		iterCount:  map[*linkState]int{},
		frozen:     map[*flow]bool{},
		rate:       map[*flow]float64{},
		bottleneck: map[*linkState]bool{},
	}
	for _, ls := range links {
		p.residual[ls] = ls.capacityBps
	}
	for _, f := range active {
		p.paths[f] = hopStates(net, f)
		for _, ls := range p.paths[f] {
			p.iterCount[ls]++
		}
	}
	byDemand := slices.Clone(active)
	slices.SortFunc(byDemand, func(a, b *flow) int {
		if c := cmp.Compare(a.demandBps, b.demandBps); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	cursor, remaining := 0, len(active)
	for remaining > 0 {
		minShare := math.Inf(1)
		var bottleneck *linkState
		for _, ls := range links {
			if p.iterCount[ls] <= 0 {
				continue
			}
			if share := p.residual[ls] / float64(p.iterCount[ls]); share < minShare {
				minShare, bottleneck = share, ls
			}
		}
		if bottleneck != nil {
			p.bottleneck[bottleneck] = true
		}
		var batch []*flow
		for cursor < len(byDemand) && byDemand[cursor].demandBps <= minShare {
			if f := byDemand[cursor]; !p.frozen[f] {
				batch = append(batch, f)
			}
			cursor++
		}
		if len(batch) > 0 {
			slices.SortFunc(batch, func(a, b *flow) int { return cmp.Compare(a.id, b.id) })
			for _, f := range batch {
				p.freeze(f, f.demandBps)
			}
			remaining -= len(batch)
			continue
		}
		for _, f := range active {
			if p.frozen[f] {
				continue
			}
			if bottleneck == nil {
				p.freeze(f, f.demandBps)
				remaining--
			} else if slices.Contains(p.paths[f], bottleneck) {
				p.freeze(f, minShare)
				remaining--
			}
		}
	}
	return p
}

// freeze is fillState.freeze's float sequence on the reference's own state.
func (p *refPass) freeze(f *flow, rate float64) {
	if rate < 0 {
		rate = 0
	}
	p.rate[f] = rate
	p.frozen[f] = true
	for _, ls := range p.paths[f] {
		p.residual[ls] -= rate
		if p.residual[ls] < 0 {
			p.residual[ls] = 0
		}
		p.iterCount[ls]--
	}
}

// checkReferencePass flushes, then checks every rate of the last full pass's
// active flows and every link's bottleneck flag bit for bit against the
// reference pass over the same flows at today's capacities. An absorbed
// pass must reproduce a rerun exactly, so capacity changes since the pass
// do not matter, with one exception the check skips: inside the failure
// callback of a reroute or a shed, a routed flow has left or moved before
// the pass that follows (flowsDirty is still set after the flush), so the
// rates describe a flow set no rerun can see. Outside callbacks every such
// change has run its pass (checkNoRemovedActive).
func checkReferencePass(t testing.TB, net *Network) {
	t.Helper()
	net.flush()
	if net.flowsDirty {
		return
	}
	active := flowsAt(net, net.fill.flows)
	ref := runRefPass(net, active)
	for _, f := range active {
		if !sameBits(f.rateBps, ref.rate[f]) {
			t.Errorf("%v flow %d: rate %v, reference pass %v", net.eng.Now(), f.id, f.rateBps, ref.rate[f])
		}
	}
	for _, ls := range net.linkOrder {
		if ls.bottleneck != ref.bottleneck[ls] {
			t.Errorf("%v %s->%s: bottleneck %v, reference pass %v", net.eng.Now(), ls.hop.from, ls.hop.to, ls.bottleneck, ref.bottleneck[ls])
		}
	}
}

// TestBlockedArgMinVisits counts work instead of timing it: on a 16×16 grid
// (960 directed links, 30 blocks) carrying 2,560 tiered near-local streams
// for 10 s, the blocked arg-min must read at most a fifth of the links a
// full scan per round would, and its passes must match the reference. The
// tiers run at 4× so the grid is congested, as city-flows' 100k streams
// congest its 1,024 nodes: most rounds then freeze a few flows on one
// bottleneck, the regime the blocks are for.
func TestBlockedArgMinVisits(t *testing.T) {
	const (
		side    = 16
		streams = 2560
		seed    = 42
		horizon = 10 * time.Second
	)
	eng, net := gridNet(t, side, seed, horizon)
	stop := net.Start()
	defer stop()
	installGridStreams(t, net, side, streams, seed, 4)
	checkReferencePass(t, net)
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	checkReferencePass(t, net)
	full := net.argMinRounds * uint64(len(net.linkOrder))
	t.Logf("%d rounds, %d arg-min visits, %d for a full scan per round", net.argMinRounds, net.argMinVisits, full)
	if net.argMinRounds == 0 || net.argMinVisits > full/5 {
		t.Errorf("arg-min read %d links and block minima over %d rounds, want at most %d (a fifth of a full scan per round)",
			net.argMinVisits, net.argMinRounds, full/5)
	}
}
