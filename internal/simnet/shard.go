// Sharded execution: the mesh is partitioned into regions and the network's
// per-link work — capacity observation, change-point prediction, the full-pass
// link reset, and the water-filling arg-min scans — fans out across a bounded
// worker pool, one task per shard. Flows whose paths cross a region boundary
// traverse gateway links; the shard owning a gateway link accounts the
// crossing flow's demand as a virtual source/sink at its edge, and the
// water-filling round loop is the fixed point at which every shard's view of
// those boundary flows agrees.
//
// The sharded driver is bit-identical to the single-shard driver by
// construction, not by tolerance. Per-link phases are embarrassingly parallel
// (each link's arithmetic is link-local) and reduce order-independently (min
// of minima). The one phase whose result feeds float arithmetic — the
// water-filling arg-min — reduces lexicographically: each shard reports the
// min fair share over its own constrained links tagged with the link's global
// linkOrder index, and the global winner is the minimum (share, index) pair —
// exactly the first-in-linkOrder strict-< winner the serial scan picks. Every
// per-flow float operation (demand accumulation, progress advancement, freeze
// application) runs in shared sequential code in global FlowID order, so the
// two drivers execute literally the same float sequence.
//
// Serial fallback (nil pool) runs the same shard tasks in shard order, which
// is why results do not depend on whether a pool is attached yet.
package simnet

import (
	"math"
	"runtime"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

// shard owns a disjoint subset of the network's directed links (both
// directions of a link always land together, since they share a trace).
type shard struct {
	links   []*linkState // owned links, in global linkOrder order
	linkIdx []int        // global linkOrder index of each owned link

	// Per-phase outputs, read by the sequential reduce step.
	minShare   float64
	minLink    *linkState
	minIdx     int
	dirtyDelta int
	nextEvent  time.Duration
	hasNext    bool
}

// sharding is the Network's parallel-execution state, nil when unsharded.
type sharding struct {
	part   *mesh.Partition
	shards []*shard
	pool   *sim.Pool

	// Inputs to the prebuilt phase closures, set before each pool.Run. The
	// pool's channel/WaitGroup handoff orders these writes before worker
	// reads and the workers' writes before the reduce that follows.
	now      time.Duration
	refresh  bool
	nLinks   int // directed-link count, gates the arg-min dispatch
	scanFns  []func()
	obsFns   []func()
	evFns    []func()
	resetFns []func()
}

// SetShards partitions the mesh into k regions keyed by the engine seed and
// runs per-link and per-flow allocator phases shard-parallel behind a bounded
// worker pool. k = 1 restores single-shard execution. Must be called before
// Start; the sharded and single-shard drivers produce byte-identical output
// for equal (topology, workload, seed) triples — the package's differential
// tests pin this.
func (n *Network) SetShards(k int) error {
	if n.started {
		panic("simnet: SetShards after Start")
	}
	if k <= 1 {
		n.sh = nil
		return nil
	}
	part, err := mesh.PartitionTopology(n.topo, k, n.eng.Seed())
	if err != nil {
		return err
	}
	sh := &sharding{part: part, shards: make([]*shard, k), nLinks: len(n.linkOrder)}
	for i := range sh.shards {
		sh.shards[i] = &shard{}
	}
	for i, ls := range n.linkOrder {
		r := part.Region(ls.lid.A)
		s := sh.shards[r]
		s.links = append(s.links, ls)
		s.linkIdx = append(s.linkIdx, i)
	}
	for i := range sh.shards {
		s := sh.shards[i]
		sh.scanFns = append(sh.scanFns, func() { s.scanMinShare() })
		sh.obsFns = append(sh.obsFns, func() { s.observe(n, sh) })
		sh.evFns = append(sh.evFns, func() { s.scanNextEvent(n, sh.now) })
		sh.resetFns = append(sh.resetFns, func() { s.resetLinks(n, sh.now) })
	}
	n.sh = sh
	return nil
}

// Shards reports the configured shard count (1 when unsharded).
func (n *Network) Shards() int {
	if n.sh == nil {
		return 1
	}
	return len(n.sh.shards)
}

// startPool attaches the worker pool at Start time (one worker per shard,
// capped at the machine's parallelism) and returns its shutdown func. Before
// Start — and after stop — the nil pool runs shard tasks serially, which is
// bit-identical by the construction above.
func (n *Network) startPool() func() {
	if n.sh == nil {
		return func() {}
	}
	workers := len(n.sh.shards)
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	n.sh.pool = sim.NewPool(workers)
	return func() {
		if n.sh.pool != nil {
			n.sh.pool.Close()
			n.sh.pool = nil
		}
	}
}

// Batch runs fn, then flushes the pending reallocation. Every mutation
// already defers its pass to the next read or dispatch boundary, so Batch
// adds nothing but the flush; it remains for callers that install a
// workload outside any event and want the rates settled on return.
func (n *Network) Batch(fn func()) {
	fn()
	n.flush()
}

// observe is observeCapacities over one shard's links; dirty transitions are
// counted locally and folded into Network.dirtyCount by the reduce step.
func (s *shard) observe(n *Network, sh *sharding) {
	s.dirtyDelta = 0
	for _, ls := range s.links {
		if sh.refresh {
			ls.avail = n.topo.LinkAvailable(ls.lid)
		}
		newCap := 0.0
		if ls.avail {
			newCap = ls.link.CapacityDir(ls.fwd).AtBps(sh.now)
		}
		if newCap == ls.capacityBps {
			continue
		}
		n.settleBacklog(ls, sh.now)
		if !ls.dirty {
			ls.dirty = true
			s.dirtyDelta++
		}
		if newCap < ls.capacityBps {
			ls.shrunk = true
		}
		ls.capacityBps = newCap
	}
}

// observeCapacitiesSharded is the parallel form of observeCapacities: the
// per-link sampling arithmetic is link-local, so fan-out cannot change it.
func (n *Network) observeCapacitiesSharded(now time.Duration) {
	sh := n.sh
	sh.refresh = false
	if ep := n.topo.AvailabilityEpoch(); ep != n.lastAvailEpoch {
		n.lastAvailEpoch = ep
		sh.refresh = true
	}
	sh.now = now
	sh.pool.Run(sh.obsFns)
	for _, s := range sh.shards {
		n.dirtyCount += s.dirtyDelta
	}
}

// scanNextEvent is linkNextEvent over one shard's links, folding the local
// minimum next-event tick.
func (s *shard) scanNextEvent(n *Network, now time.Duration) {
	s.hasNext = false
	for _, ls := range s.links {
		if !ls.avail {
			continue
		}
		t, ok := n.linkNextEvent(ls, now)
		if ok && (!s.hasNext || t < s.nextEvent) {
			s.nextEvent = t
			s.hasNext = true
		}
	}
}

// nextCapacityEventSharded parallelises the change-point walk. Minimum of
// per-shard minima equals the serial minimum. Change-point indices are
// (re)built serially first: a mid-run trace swap resets a trace's lazy index,
// and both directions of a link share one trace, so the build must not race
// between workers. BuildChangeIndex on an indexed trace is a branch.
func (n *Network) nextCapacityEventSharded(now time.Duration) (time.Duration, bool) {
	sh := n.sh
	for _, ls := range n.linkOrder {
		ls.link.CapacityDir(ls.fwd).BuildChangeIndex()
	}
	sh.now = now
	sh.pool.Run(sh.evFns)
	var best time.Duration
	found := false
	for _, s := range sh.shards {
		if s.hasNext && (!found || s.nextEvent < best) {
			best = s.nextEvent
			found = true
		}
	}
	return best, found
}

// resetLinks is the full-pass prelude over one shard's links: settle the
// backlog integral, then reset allocation scratch.
func (s *shard) resetLinks(n *Network, now time.Duration) {
	for _, ls := range s.links {
		n.settleBacklog(ls, now)
		ls.residual = ls.capacityBps
		ls.iterCount = 0
		ls.demandBps = 0
		ls.bottleneck = false
		ls.dirty = false
		ls.shrunk = false
		ls.flows = ls.flows[:0]
	}
}

// scanMinShare computes the shard-local water-filling arg-min with a
// first-in-linkOrder tie-break (strict <, links visited in global order).
func (s *shard) scanMinShare() {
	s.minShare = math.Inf(1)
	s.minLink = nil
	s.minIdx = -1
	for i, ls := range s.links {
		if ls.iterCount <= 0 {
			continue
		}
		if share := ls.residual / float64(ls.iterCount); share < s.minShare {
			s.minShare = share
			s.minLink = ls
			s.minIdx = s.linkIdx[i]
		}
	}
}

// shardScanFloor is the directed-link count below which the sharded arg-min
// scans serially instead of dispatching to the pool: waking parked workers
// costs more than a small scan, and the lexicographic reduce picks the same
// winner either way, so the gate is pure scheduling — it cannot change
// output. Var, not const, so tests can force the parallel path on small
// meshes.
var shardScanFloor = 16384

// argMin is the sharded water-filling arg-min: per-shard scans in parallel,
// then a sequential lexicographic (share, global link index) reduce — the
// same winner as serialArgMin's first-in-linkOrder strict-< scan. It is the
// only piece of the round loop that differs from the single-shard driver; see
// the package comment for the identity argument.
func (sh *sharding) argMin() (float64, *linkState) {
	if sh.nLinks < shardScanFloor {
		for _, fn := range sh.scanFns {
			fn()
		}
	} else {
		sh.pool.Run(sh.scanFns)
	}
	minShare := math.Inf(1)
	minIdx := -1
	var bottleneck *linkState
	for _, s := range sh.shards {
		if s.minLink == nil {
			continue
		}
		if bottleneck == nil || s.minShare < minShare ||
			(s.minShare == minShare && s.minIdx < minIdx) {
			minShare = s.minShare
			minIdx = s.minIdx
			bottleneck = s.minLink
		}
	}
	return minShare, bottleneck
}
