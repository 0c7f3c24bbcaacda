// Sharded execution: linkOrder is cut into k contiguous runs, and the
// network's per-link phases — capacity observation, change-point prediction
// and the full-pass link reset — run one task per run behind a bounded worker
// pool. An unsharded network is one run over all of linkOrder with a nil
// pool, which runs the task on the caller, so every phase has one loop body
// whatever the shard count.
//
// The sharded driver is bit-identical to the single-shard driver by
// construction, not by tolerance. Each phase's arithmetic is link-local, and
// each reduces in a way that ignores order: a sum of dirty counts, or a
// minimum of next-event ticks. So any cut gives the single-shard result bit
// for bit. The two directions of a link may land in different runs; they
// share only a trace, which is immutable once built. Everything else —
// demand accumulation, the water-filling rounds, progress and freezes — runs
// sequentially in global FlowID order in both drivers.
package simnet

import (
	"fmt"
	"runtime"
	"time"

	"bass/internal/sim"
)

// shard is one contiguous run of linkOrder with its per-phase outputs, which
// the sequential reduce after each phase reads.
type shard struct {
	links      []*linkState
	dirtyDelta int
	moved      bool // observeLinks changed some capacity
	nextEvent  time.Duration
	hasNext    bool
}

// linkPhases is the per-link phase fan-out: one prebuilt task per shard and
// phase, and the phase inputs they read. The pool's channel/WaitGroup handoff
// orders the input writes before worker reads, and the workers' writes before
// the reduce that follows.
type linkPhases struct {
	shards  []shard
	pool    *sim.Pool // nil when unsharded or not started: tasks run in order
	now     time.Duration
	refresh bool // the availability epoch moved: re-read every link's avail

	observe, nextEvent, reset []func()
}

// cutShards cuts linkOrder into k contiguous runs, 1 ≤ k ≤ len(linkOrder)
// (or k = 1 on a mesh without links), and prebuilds each phase's tasks.
func (n *Network) cutShards(k int) {
	n.phases = linkPhases{shards: make([]shard, k)}
	p := &n.phases
	for i := range p.shards {
		s := &p.shards[i]
		s.links = n.linkOrder[i*len(n.linkOrder)/k : (i+1)*len(n.linkOrder)/k]
		p.observe = append(p.observe, func() { n.observeLinks(s) })
		p.nextEvent = append(p.nextEvent, func() { n.nextLinkEvent(s) })
		p.reset = append(p.reset, func() { n.resetLinks(s) })
	}
}

// SetShards cuts the network's directed links into k contiguous runs and runs
// the per-link phases one task per run behind a bounded worker pool. k ≤ 1
// means one shard; k may not exceed the number of directed links. Must be
// called before Start. Output is byte-identical at every shard count — the
// package's differential tests pin this.
func (n *Network) SetShards(k int) error {
	if n.started {
		panic("simnet: SetShards after Start")
	}
	k = max(k, 1)
	if k > max(len(n.linkOrder), 1) {
		return fmt.Errorf("simnet: %d shards for %d directed links", k, len(n.linkOrder))
	}
	n.cutShards(k)
	return nil
}

// Shards reports the configured shard count (1 when unsharded).
func (n *Network) Shards() int { return len(n.phases.shards) }

// startPool attaches the worker pool at Start time (one worker per shard,
// capped at the machine's parallelism) and returns its shutdown func. Before
// Start — and after stop — the nil pool runs shard tasks serially, which is
// bit-identical by the construction above.
func (n *Network) startPool() func() {
	p := &n.phases
	if len(p.shards) <= 1 {
		return func() {}
	}
	p.pool = sim.NewPool(min(len(p.shards), runtime.GOMAXPROCS(0)))
	return func() {
		p.pool.Close()
		p.pool = nil
	}
}

// observeLinks samples each link of one shard at phases.now, settling the
// backlog of each link whose observed capacity moves before overwriting it.
// Dirty transitions are counted locally and folded into Network.dirtyCount by
// observeCapacities.
func (n *Network) observeLinks(s *shard) {
	now, refresh := n.phases.now, n.phases.refresh
	s.dirtyDelta = 0
	s.moved = false
	for _, ls := range s.links {
		if refresh {
			ls.avail = n.topo.LinkAvailable(ls.lid)
		}
		newCap := 0.0
		if ls.avail {
			newCap = ls.link.CapacityDir(ls.fwd).AtBps(now)
		}
		if newCap == ls.capacityBps {
			continue
		}
		n.settleBacklog(ls, now)
		s.moved = true
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

// nextLinkEvent folds one shard's earliest next-event tick after
// phases.now. Links that are down stay pinned at zero until
// ApplyTopologyState revives them.
func (n *Network) nextLinkEvent(s *shard) {
	now := n.phases.now
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

// resetLinks is the full-pass prelude over one shard's links: settle the
// backlog integral at phases.now, then load the direction's stream demand
// from the fill's flow side and its residual and count for the round loop
// (each shard writes only its own run of the fill's per-link records).
func (n *Network) resetLinks(s *shard) {
	now := n.phases.now
	d := &n.fill
	for _, ls := range s.links {
		n.settleBacklog(ls, now)
		l := ls.idx
		ls.demandBps = d.demandSum[l]
		ls.bottleneck = false
		ls.dirty = false
		ls.shrunk = false
		k := &d.links[l]
		k.residual = ls.capacityBps
		k.count = d.links[l+1].cross - k.cross
	}
}
