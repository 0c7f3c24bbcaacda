package simnet

import (
	"math"
	"math/bits"
	"slices"
)

// fillState is the full pass's dense view of the network: the routed flows
// that take part in water-filling (the active set: live, neither parked nor
// co-located), numbered 0…n−1 in FlowID order, and every directed link by
// its position in linkOrder (linkState.idx). The water-fill runs on these
// flat slices alone; it touches a flow struct only to write its rate back.
//
// The flow side — the active list, the paths, the crossing lists, each
// direction's stream-demand sum and the demand order — is a function of the
// flow set alone, no capacity enters it. buildFlowSide rebuilds it when a
// routed flow joined, left, changed demand, parked or rerouted since the
// last build (Network.flowsDirty), or on every pass under SetFullRecompute;
// a capacity-only full pass reuses it as it stands.
type fillState struct {
	flows []*flow // the active flows, ascending FlowID: position p's flow
	// fl holds each position's fill record, plus one past the last whose
	// path offset ends the last path.
	fl    []fillFlow
	paths []int32 // every active path's link positions, in hop order, end to end
	// order is the active positions by ascending demand, then position
	// (FlowID). It is kept across builds, so a build sorts only the flows
	// that joined the active set or changed demand (see sortByDemand).
	order []int32

	// links holds each direction's fill record, plus one past the last whose
	// offset ends the last crossing list; cross holds the lists, each in
	// ascending flow position.
	links     []fillLink
	cross     []int32
	demandSum []float64 // stream demand routed over each direction, as of the build

	// blocks cuts the links into arg-min blocks of argBlockLinks (see
	// blockedArgMin).
	blocks []fillBlock

	// Build and round scratch, reused across passes.
	remap []int32 // previous position → position in this build, or -1
	// batch is a round's demand-limited freezes; during a build, before
	// the round loop, the positions new to the demand order.
	batch []int32
}

// fillFlow is an active flow's record.
type fillFlow struct {
	demand float64 // the flow's demandBps, as of the build
	// rate is the last pass's allocation, which the flow's rateBps copies.
	rate   float64
	path   int32 // the path starts at paths[path] and ends at the next record's
	frozen bool  // water-filling scratch
}

// fillLink is a direction's record.
type fillLink struct {
	residual float64 // water-filling scratch: capacity not yet handed out
	// count is water-filling scratch, the unfrozen flows crossing the
	// direction; during a build, the write cursor of its crossing list.
	count int32
	cross int32 // the crossing list starts at cross[cross] and ends at the next record's
}

// fillBlock is one run of argBlockLinks directions with its cached arg-min:
// the least fair share and the first direction with it (-1 when none is
// constrained). A freeze marks the blocks of the links it touched dirty.
type fillBlock struct {
	min   float64
	link  int32
	dirty bool
}

// newFillState sizes the per-link slices for links directed links; the flow
// side starts empty, which is exact for a network without flows.
func newFillState(links int) fillState {
	return fillState{
		fl:        make([]fillFlow, 1),
		links:     make([]fillLink, links+1),
		demandSum: make([]float64, links),
		blocks:    make([]fillBlock, (links+argBlockLinks-1)/argBlockLinks),
	}
}

// crossing returns the positions of the active flows crossing link l.
func (d *fillState) crossing(l int32) []int32 {
	return d.cross[d.links[l].cross:d.links[l+1].cross]
}

// resized returns s with length n, reusing its storage when it fits.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// buildFlowSide renumbers the active set from flowOrder and rebuilds the
// flow side from it. The same walk drops flowOrder's tombstones and rates
// every parked flow at zero and every co-located flow on the bus: a full
// pass needs that, and between passes it restates the rates those flows
// already hold. Stream demand is summed per direction in FlowID order, as
// the pass has always added it. Each direction's flowCount is the length of
// its crossing list, so the lists are laid out before the walk and filled in
// FlowID order during it, and every slice is sized once: a city-scale
// install grows nothing by doubling.
func (n *Network) buildFlowSide() {
	d := &n.fill
	n.flowBuilds++
	prev := len(d.flows)
	remap := resized(d.remap, prev)
	for i := range remap {
		remap[i] = -1
	}
	links := d.links
	var hops int32
	for l, ls := range n.linkOrder {
		links[l].cross = hops
		links[l].count = hops
		hops += int32(ls.flowCount)
	}
	links[len(n.linkOrder)].cross = hops
	cross, paths := resized(d.cross, int(hops)), resized(d.paths, int(hops))
	live := len(n.flowOrder) - n.deadFlows // at least the active count
	flows, fl := slices.Grow(d.flows[:0], live), slices.Grow(d.fl[:0], live+1)
	fresh, demandSum := d.batch[:0], d.demandSum
	clear(demandSum)
	var at int32
	w := 0 // flowOrder's write cursor: the live flows walked so far
	for i, f := range n.flowOrder {
		if f.gone {
			continue
		}
		if w < i {
			n.flowOrder[w] = f
		}
		w++
		if f.parked {
			// Stranded by a fault: holds no links (linkPath is empty, which
			// would otherwise read as co-location) and carries nothing.
			n.setRate(f, 0)
			continue
		}
		if len(f.linkPath) == 0 {
			n.setRate(f, busRate(f))
			continue
		}
		p := int32(len(flows))
		if f.inOrder {
			remap[f.pos] = p
		} else {
			f.inOrder = true
			fresh = append(fresh, p)
		}
		f.pos = p
		flows = append(flows, f)
		fl = append(fl, fillFlow{demand: f.demandBps, rate: f.rateBps, path: at})
		stream := f.kind == kindStream
		for _, ls := range f.linkPath {
			l := ls.idx
			paths[at] = l
			at++
			k := &links[l]
			cross[k.count] = p
			k.count++
			if stream {
				demandSum[l] += f.demandBps
			}
		}
	}
	fl = append(fl, fillFlow{path: at})
	clear(n.flowOrder[w:])
	n.flowOrder, n.deadFlows = n.flowOrder[:w], 0
	if len(flows) < prev {
		clear(flows[len(flows):prev]) // drop references to flows that left
	}
	d.flows, d.fl, d.paths, d.cross = flows, fl, paths, cross

	kept := d.order[:0]
	for _, q := range d.order {
		if p := remap[q]; p >= 0 {
			kept = append(kept, p)
		}
	}
	d.remap = remap
	d.order = d.sortByDemand(kept, fresh)
	d.batch = fresh
}

// byDemandAsc orders positions by ascending demand, then position, which is
// FlowID order. The tie-break changes no freeze (see waterFill); it makes
// the kept order a function of the active set alone, and a batch of one
// demand comes out in FlowID order, needing no sort.
func (d *fillState) byDemandAsc(a, b int32) int {
	switch da, db := d.fl[a].demand, d.fl[b].demand; {
	case da < db:
		return -1
	case da > db:
		return 1
	}
	return int(a) - int(b)
}

// sortByDemand returns the demand order of this build: kept, the previous
// order with the flows that left the active set or changed demand dropped
// (so still sorted), merged from the back with the sorted fresh positions.
// When the fresh ones outnumber the kept (a bulk install), one sort of every
// position is cheaper.
func (d *fillState) sortByDemand(kept, fresh []int32) []int32 {
	cmp := func(a, b int32) int { return d.byDemandAsc(a, b) }
	if len(fresh) > len(kept) {
		order := resized(kept, len(d.flows))
		for p := range order {
			order[p] = int32(p)
		}
		slices.SortFunc(order, cmp)
		return order
	}
	slices.SortFunc(fresh, cmp)
	i, j := len(kept)-1, len(fresh)-1
	merged := slices.Grow(kept, len(fresh))[:len(kept)+len(fresh)]
	for w := len(merged) - 1; j >= 0; w-- {
		if i >= 0 && d.byDemandAsc(kept[i], fresh[j]) > 0 {
			merged[w] = kept[i]
			i--
		} else {
			merged[w] = fresh[j]
			j--
		}
	}
	return merged
}

// freeze pins flow p's rate for the rest of the pass and withdraws it from
// every link it crosses, marking their arg-min blocks for a rescan.
func (d *fillState) freeze(p int32, rate float64) {
	if rate < 0 {
		rate = 0
	}
	fl, links, blocks := d.fl, d.links, d.blocks
	fl[p].rate, fl[p].frozen = rate, true
	for _, l := range d.paths[fl[p].path:fl[p+1].path] {
		k := &links[l]
		left := k.residual - rate
		if left < 0 {
			left = 0
		}
		k.residual = left
		k.count--
		blocks[uint32(l)/argBlockLinks].dirty = true
	}
}

// blockedArgMin finds the constrained link with the least fair share, the
// first in linkOrder on a tie, or -1 when no link is constrained. Only the
// link shares a freeze changed can move, so it rescans just the dirty
// blocks, then takes the first block minimum strictly below those before it:
// a block's minimum is its first least-share link, so that is the first
// least-share link in linkOrder, as one strict-< scan of every link would
// pick.
func (n *Network) blockedArgMin() (float64, int32) {
	d := &n.fill
	n.argMinRounds++
	n.argMinVisits += uint64(len(d.blocks))
	minShare, bottleneck := math.Inf(1), int32(-1)
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.dirty {
			b.dirty = false
			b.min, b.link = math.Inf(1), -1
			lo := i * argBlockLinks
			run := d.links[lo:min(lo+argBlockLinks, len(d.links)-1)]
			for j := range run {
				k := &run[j]
				if k.count <= 0 {
					continue
				}
				if share := k.residual / float64(k.count); share < b.min {
					b.min, b.link = share, int32(lo+j)
				}
			}
			n.argMinVisits += uint64(len(run))
		}
		if b.min < minShare {
			minShare, bottleneck = b.min, b.link
		}
	}
	return minShare, bottleneck
}

// waterFill is the progressive-filling round loop with demand caps over the
// active set, from the residuals and counts fullReallocate loaded. It ends by
// writing every active flow's rate back to its struct.
//
// Each round costs what its freezes touch, not the size of the pass, without
// changing a single freeze or float operation:
//
//   - the arg-min rescans only the link blocks the last round's freezes
//     dirtied (blockedArgMin);
//   - the demand order with a monotone cursor. A flow freezes demand-limited
//     in the first round whose min share reaches its demand, so every flow
//     past the cursor has demand above every share seen so far and flows
//     behind it are already frozen: each round's batch is exactly the
//     unfrozen active flows with demand at most the share, counted in
//     amortized O(1). The batch freezes in FlowID order, which is position
//     order. A batch of k flows the cursor did not collect in that order
//     already is sorted when k log k is below the active count, and
//     otherwise re-collected by one scan of the positions, so a round costs
//     O(min(k log k, |active|)). Tie order among equal demands never
//     matters: the cursor always takes a whole equal-demand run or none of
//     it;
//   - the crossing lists. A bottleneck round freezes straight off the
//     bottleneck's own list — the same flows, in the same order, a scan of
//     the active list for flows crossing it would select.
func (n *Network) waterFill() {
	d := &n.fill
	active := d.fl[:len(d.flows)]
	for p := range active {
		active[p].frozen = false
	}
	for i := range d.blocks {
		d.blocks[i].dirty = true
	}
	remaining, cursor := len(active), 0
	batch := d.batch[:0]
	for remaining > 0 {
		minShare, bottleneck := n.blockedArgMin()
		// Record every arg-min link, applied or not: its share bounded this
		// iteration's demand comparisons, so the incremental path must treat
		// it as binding.
		if bottleneck >= 0 {
			n.linkOrder[bottleneck].bottleneck = true
		}
		// Freeze demand-limited flows first, in FlowID order.
		batch = batch[:0]
		sorted := true // the batch is already in FlowID order
		for cursor < len(d.order) && active[d.order[cursor]].demand <= minShare {
			if p := d.order[cursor]; !active[p].frozen {
				sorted = sorted && (len(batch) == 0 || batch[len(batch)-1] < p)
				batch = append(batch, p)
			}
			cursor++
		}
		if k := len(batch); k > 0 {
			switch {
			case sorted:
			case k*bits.Len(uint(k)) < len(active):
				slices.Sort(batch)
			default:
				batch = batch[:0]
				for p := range active {
					if f := &active[p]; !f.frozen && f.demand <= minShare {
						if batch = append(batch, int32(p)); len(batch) == k {
							break
						}
					}
				}
			}
			for _, p := range batch {
				d.freeze(p, active[p].demand)
			}
			remaining -= k
			continue
		}
		if bottleneck < 0 {
			// No constrained links remain; all remaining flows get demand.
			for p := range active {
				if !active[p].frozen {
					d.freeze(int32(p), active[p].demand)
					remaining--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		// An arg-min link has unfrozen flows (count > 0); a round that
		// freezes none would spin forever, so it can only be a stale share.
		before := remaining
		for _, p := range d.crossing(bottleneck) {
			if !active[p].frozen {
				d.freeze(p, minShare)
				remaining--
			}
		}
		if remaining == before {
			ls := n.linkOrder[bottleneck]
			panic("simnet: water-filling bottleneck " + ls.hop.from + "->" + ls.hop.to + " has no unfrozen flow")
		}
	}
	d.batch = batch
	for p, f := range d.flows {
		n.setRate(f, active[p].rate)
	}
}

// sumAllocations sets each direction's allocBps from its crossing list, in
// FlowID order.
func (n *Network) sumAllocations() {
	d := &n.fill
	for l, ls := range n.linkOrder {
		var bps float64
		for _, p := range d.crossing(int32(l)) {
			bps += d.fl[p].rate
		}
		ls.allocBps = bps
	}
}
