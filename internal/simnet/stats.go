package simnet

import (
	"fmt"
	"time"

	"bass/internal/mesh"
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

// ID returns the undirected link the direction belongs to.
func (s LinkStats) ID() mesh.LinkID { return mesh.MakeLinkID(s.From, s.To) }

// UtilizationFrac reports allocated/capacity (0 when capacity is 0).
func (s LinkStats) UtilizationFrac() float64 {
	if s.CapacityMbps <= 0 {
		return 0
	}
	return s.AllocatedMbps / s.CapacityMbps
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

// inflightBits reports the bits a flow has carried since the last settle —
// the component the anchored accounting has not yet credited to the
// cumulative counters.
func (n *Network) inflightBits(f *flow, dt float64) float64 {
	carried := f.rateBps * dt
	if f.kind == KindTransfer && carried > f.remainingBits {
		carried = f.remainingBits
	}
	return carried
}

// statsOf builds a pure point-in-time view after a flush: the allocation is
// the pass's cached sum, and carried bytes and backlog are read from their
// anchors plus the closed-form in-flight component, summed over the
// direction's crossing list in ascending FlowID order, without settling
// anything.
func (n *Network) statsOf(ls *linkState) LinkStats {
	var inflight float64
	if dt := (n.eng.Now() - n.lastAdvance).Seconds(); dt > 0 {
		for _, f := range ls.flows {
			inflight += n.inflightBits(f, dt)
		}
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

// LinkCapacityMbps reports the current (trace-sampled) capacity of the
// from→to direction.
func (n *Network) LinkCapacityMbps(from, to string) (float64, error) {
	s, err := n.LinkStats(from, to)
	if err != nil {
		return 0, err
	}
	return s.CapacityMbps, nil
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
	hops, err := n.route(src, dst)
	if err != nil {
		return 0, err
	}
	now := n.eng.Now()
	var total time.Duration
	for _, ls := range hops {
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
	hops, err := n.route(src, dst)
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

// PathLatencyOf sums one-way propagation latency along the routed path.
func (n *Network) PathLatencyOf(src, dst string) (time.Duration, error) {
	return n.topo.PathLatency(src, dst)
}

// BytesByTag returns cumulative megabytes carried per accounting tag,
// including progress accrued since the last settle.
func (n *Network) BytesByTag() map[string]float64 {
	n.flush()
	dt := (n.eng.Now() - n.lastAdvance).Seconds()
	out := make(map[string]float64, len(n.tags))
	for tag, ts := range n.tags {
		if ts.seen {
			out[tag] = ts.bits / 8 / 1e6
		}
	}
	if dt > 0 {
		for _, f := range n.flowOrder {
			if f.gone {
				continue
			}
			out[f.tag] += n.inflightBits(f, dt) / 8 / 1e6
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
	var bits float64
	if ts := n.tags[tag]; ts != nil {
		bits = ts.bits
	}
	if dt := (n.eng.Now() - n.lastAdvance).Seconds(); dt > 0 {
		for _, f := range n.tagFlows(tag) {
			bits += n.inflightBits(f, dt)
		}
	}
	return bits / elapsed / 1e6 // bits per second → Mbps
}

// ActiveFlows reports the number of active streams and transfers.
func (n *Network) ActiveFlows() (streams, transfers int) {
	n.flush()
	for _, f := range n.flowOrder {
		if f.gone {
			continue
		}
		if f.kind == KindStream {
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
// writes nothing otherwise. Concurrent readers (the parallel evaluation
// phase queries many tags at once) are safe because no pass is pending when
// they fan out: the engine flushes at every dispatch boundary, and the
// control tick mutates nothing before its fan-out, so each reader's flush is
// a read of two false flags.
func (n *Network) FlowRateByTag(tag string) float64 {
	n.flush()
	var bps float64
	for _, f := range n.tagFlows(tag) {
		bps += f.rateBps
	}
	return bps / 1e6
}

// tagFlows returns the live flows with the tag, ascending FlowID.
func (n *Network) tagFlows(tag string) []*flow {
	if ts := n.tags[tag]; ts != nil {
		return ts.flows
	}
	return nil
}

// FlowDemandByTag sums current demands (Mbps) across flows with the tag.
func (n *Network) FlowDemandByTag(tag string) float64 {
	n.flush()
	var bps float64
	for _, f := range n.tagFlows(tag) {
		if f.demandBps >= unboundedBps {
			continue
		}
		bps += f.demandBps
	}
	return bps / 1e6
}
