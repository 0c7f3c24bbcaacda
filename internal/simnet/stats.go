package simnet

import (
	"fmt"
	"time"
)

// LinkStats is a point-in-time view of one link direction.
type LinkStats struct {
	// From/To identify the direction.
	From, To      string
	CapacityMbps  float64
	DemandMbps    float64 // offered stream demand routed over the direction
	AllocatedMbps float64 // sum of current flow allocations over the direction
	BacklogKB     float64
	CarriedMB     float64 // cumulative
}

// LinkStats returns the current stats of the from→to direction.
func (n *Network) LinkStats(from, to string) (LinkStats, error) {
	n.flush()
	ls, ok := n.links[dhop{from: from, to: to}]
	if !ok {
		return LinkStats{}, fmt.Errorf("simnet: no link %s-%s", from, to)
	}
	return n.statsOf(ls), nil
}

// liveBits reports the bits a live flow holds that its tag has not been
// credited yet: a stream's whole carried total, or a transfer's progress
// since the last settle, clipped to what it has left to send.
func (n *Network) liveBits(f *flow, now time.Duration) float64 {
	if f.kind == kindStream {
		return streamBits(f, now)
	}
	dt := (now - n.lastAdvance).Seconds()
	if dt <= 0 {
		return 0
	}
	return min(f.rateBps*dt, n.xfers.at(f.xfer).remainingBits)
}

// statsOf builds a pure point-in-time view after a flush, in O(1): the
// allocation is the pass's cached sum, carried bytes are the settled count
// plus allocBps × dt since the last settle, and the backlog its closed form,
// without settling anything.
func (n *Network) statsOf(ls *linkState) LinkStats {
	var inflight float64
	if dt := (n.eng.Now() - n.lastAdvance).Seconds(); dt > 0 {
		inflight = ls.allocBps * dt
	}
	return LinkStats{
		From:          ls.hop.from,
		To:            ls.hop.to,
		CapacityMbps:  ls.capacityBps / 1e6,
		DemandMbps:    ls.demandBps / 1e6,
		AllocatedMbps: ls.allocBps / 1e6,
		BacklogKB:     n.backlogAt(ls, n.eng.Now()) / 8 / 1e3,
		CarriedMB:     (ls.carriedBits + inflight) / 8 / 1e6,
	}
}

// spareMbps is a direction's unallocated capacity, floored at zero.
func spareMbps(ls *linkState) float64 {
	v := ls.capacityBps/1e6 - ls.allocBps/1e6
	if v < 0 {
		v = 0
	}
	return v
}

// AllLinkStats returns stats for every link direction, sorted. Each entry
// is LinkStats(from, to) for its direction.
func (n *Network) AllLinkStats() []LinkStats {
	n.flush()
	out := make([]LinkStats, 0, len(n.linkOrder))
	for _, ls := range n.linkOrder {
		out = append(out, n.statsOf(ls))
	}
	return out
}

// LinkAvailableMbps reports capacity minus current allocations on the
// from→to direction — the spare capacity headroom probing measures.
func (n *Network) LinkAvailableMbps(from, to string) (float64, error) {
	s, err := n.LinkStats(from, to)
	if err != nil {
		return 0, err
	}
	avail := s.CapacityMbps - s.AllocatedMbps
	if avail < 0 {
		avail = 0
	}
	return avail, nil
}

// QueueDelay estimates the queueing delay a new arrival experiences on the
// from→to direction: the time to drain the current backlog at the current
// capacity.
func (n *Network) QueueDelay(from, to string) (time.Duration, error) {
	n.flush()
	ls, ok := n.links[dhop{from: from, to: to}]
	if !ok {
		return 0, fmt.Errorf("simnet: no link %s-%s", from, to)
	}
	backlog := n.backlogAt(ls, n.eng.Now())
	if backlog <= 0 || ls.capacityBps <= 0 {
		return 0, nil
	}
	return time.Duration(backlog / ls.capacityBps * float64(time.Second)), nil
}

// PathQueueDelay sums queueing delays along the routed path src→dst.
func (n *Network) PathQueueDelay(src, dst string) (time.Duration, error) {
	n.flush()
	if src == dst {
		return 0, nil
	}
	p, err := n.path(src, dst)
	if err != nil {
		return 0, err
	}
	now := n.eng.Now()
	var total time.Duration
	for _, l := range p.hops {
		ls := n.linkOrder[l]
		backlog := n.backlogAt(ls, now)
		if backlog > 0 && ls.capacityBps > 0 {
			total += time.Duration(backlog / ls.capacityBps * float64(time.Second))
		}
	}
	return total, nil
}

// PathAllocatedMbps estimates the rate a new flow of the given demand would
// receive between src and dst given the current allocations: the minimum
// spare capacity along the directed path, capped by demand. Co-located pairs
// see the node-local bus.
func (n *Network) PathAllocatedMbps(src, dst string, demandMbps float64) (float64, error) {
	n.flush()
	if src == dst {
		return min(demandMbps, LocalMbps), nil
	}
	p, err := n.path(src, dst)
	if err != nil {
		return 0, err
	}
	rate := demandMbps
	for _, l := range p.hops {
		if avail := spareMbps(n.linkOrder[l]); avail < rate {
			rate = avail
		}
	}
	return rate, nil
}

// PathLatencyOf sums one-way propagation latency along the routed path.
func (n *Network) PathLatencyOf(src, dst string) (time.Duration, error) {
	p, err := n.path(src, dst)
	if err != nil {
		return 0, err
	}
	return p.latency, nil
}

// BytesByTag returns cumulative megabytes carried per accounting tag,
// including progress accrued since the last settle: every tag that has been
// credited, and every live flow's, whose bits it adds in FlowID order.
func (n *Network) BytesByTag() map[string]float64 {
	n.flush()
	now := n.eng.Now()
	out := make(map[string]float64, n.tags.names.n)
	for t := range n.tags.names.n {
		if ts := n.tagStates.at(t); ts.seen {
			out[n.tags.name(t)] = ts.bits / 8 / 1e6
		}
	}
	for _, s := range n.flowOrder {
		if f := n.flow(s); !f.gone {
			out[n.tags.name(f.tag)] += n.liveBits(f, now) / 8 / 1e6
		}
	}
	return out
}

// TagRate reports a tag's cumulative average rate in Mbps since start.
func (n *Network) TagRate(tag string) float64 {
	n.flush()
	elapsed := n.eng.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	t, ok := n.tags.find(tag)
	if !ok {
		return 0
	}
	ts := n.tagStates.at(t)
	bits := ts.bits
	for s := ts.head; s >= 0; s = n.flow(s).tagNext {
		bits += n.liveBits(n.flow(s), n.eng.Now())
	}
	return bits / elapsed / 1e6 // bits per second → Mbps
}

// ActiveFlows reports the number of active streams and transfers.
func (n *Network) ActiveFlows() (streams, transfers int) {
	n.flush()
	for _, s := range n.flowOrder {
		f := n.flow(s)
		if f.gone {
			continue
		}
		if f.kind == kindStream {
			streams++
		} else {
			transfers++
		}
	}
	return streams, transfers
}

// FlowRateByTag sums current allocations (Mbps) across flows with the tag.
// Served from the per-tag index in ascending FlowID order — the same
// summation order as the full-scan form it replaced, so results are
// bit-identical. Like every read it flushes a pending pass first, and it
// writes nothing otherwise.
func (n *Network) FlowRateByTag(tag string) float64 {
	n.flush()
	var bps float64
	if t, ok := n.tags.find(tag); ok {
		for s := n.tagStates.at(t).head; s >= 0; s = n.flow(s).tagNext {
			bps += n.flow(s).rateBps
		}
	}
	return bps / 1e6
}

// FlowDemandByTag sums current demands (Mbps) across flows with the tag.
func (n *Network) FlowDemandByTag(tag string) float64 {
	n.flush()
	var bps float64
	if t, ok := n.tags.find(tag); ok {
		for s := n.tagStates.at(t).head; s >= 0; s = n.flow(s).tagNext {
			if d := n.flow(s).demandBps; d < unboundedBps {
				bps += d
			}
		}
	}
	return bps / 1e6
}
