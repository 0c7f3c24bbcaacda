package simnet

import (
	"errors"
	"fmt"

	"bass/internal/mesh"
)

// Typed probe failures. Probes of an unavailable link (down, or with a down
// endpoint) fail as a real prober's TCP connection would; probes of a lossy
// link time out while the data plane keeps working. Monitors distinguish the
// two only by persistence — which is exactly why the failure detector demands
// K consecutive failures before declaring anything dead.
var (
	// ErrLinkUnreachable reports a probe across a link that is down or has a
	// crashed endpoint.
	ErrLinkUnreachable = errors.New("simnet: link unreachable")
	// ErrProbeTimeout reports a probe lost to measurement-plane packet loss.
	ErrProbeTimeout = errors.New("simnet: probe timeout")
)

// Prober adapts the simulated network to the netmon.Prober interface
// (structurally — no import needed). Probes measure both directions of the
// link and report the bottleneck one, matching the conservative view a
// monitor needs for placement decisions. A full-capacity probe observes the
// link's current trace-driven capacity, as flooding the real link would; a
// spare probe observes capacity minus current allocations, as a rate-limited
// headroom probe would.
type Prober struct {
	n *Network
}

// Prober returns the probing adapter for this network.
func (n *Network) Prober() *Prober { return &Prober{n: n} }

func (p *Prober) directions(id mesh.LinkID) (*linkState, *linkState, error) {
	fwd, ok1 := p.n.links[dhop{from: id.A, to: id.B}]
	rev, ok2 := p.n.links[dhop{from: id.B, to: id.A}]
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("simnet: probe unknown link %s", id)
	}
	if !p.n.topo.LinkAvailable(id) {
		return nil, nil, fmt.Errorf("probe %s: %w", id, ErrLinkUnreachable)
	}
	if p.n.probeLoss[id] {
		return nil, nil, fmt.Errorf("probe %s: %w", id, ErrProbeTimeout)
	}
	return fwd, rev, nil
}

// ProbeCapacity reports the link's current full capacity in Mbps (the
// bottleneck of its two directions).
func (p *Prober) ProbeCapacity(id mesh.LinkID) (float64, error) {
	fwd, rev, err := p.directions(id)
	if err != nil {
		return 0, err
	}
	capMbps := fwd.capacityBps / 1e6
	if rev.capacityBps/1e6 < capMbps {
		capMbps = rev.capacityBps / 1e6
	}
	return capMbps, nil
}

// ProbeSpare reports the link's unallocated capacity in Mbps (the bottleneck
// of its two directions).
func (p *Prober) ProbeSpare(id mesh.LinkID) (float64, error) {
	p.n.flush()
	fwd, rev, err := p.directions(id)
	if err != nil {
		return 0, err
	}
	return linkSpare(fwd, rev), nil
}

// ProbeSpareAll probes the spare capacity of every link in one sweep,
// visiting links in the topology's sorted order, as netmon.Prober requires.
// It only reads: each direction's allocation is the sum the last pass cached
// (kept current by the flush), and the spare arithmetic is ProbeSpare's, so
// reported values are bit-identical to N individual probes.
func (p *Prober) ProbeSpareAll(visit func(id mesh.LinkID, spareMbps float64, err error)) {
	n := p.n
	n.flush()
	for _, l := range n.topo.Links() {
		id := l.ID
		fwd, ok1 := n.links[dhop{from: id.A, to: id.B}]
		rev, ok2 := n.links[dhop{from: id.B, to: id.A}]
		switch {
		case !ok1 || !ok2:
			visit(id, 0, fmt.Errorf("simnet: probe unknown link %s", id))
		case !n.topo.LinkAvailable(id):
			visit(id, 0, fmt.Errorf("probe %s: %w", id, ErrLinkUnreachable))
		case n.probeLoss[id]:
			visit(id, 0, fmt.Errorf("probe %s: %w", id, ErrProbeTimeout))
		default:
			visit(id, linkSpare(fwd, rev), nil)
		}
	}
}

// linkSpare is the bottleneck of a link's two directions' spare capacity.
func linkSpare(fwd, rev *linkState) float64 {
	sf, sr := spareMbps(fwd), spareMbps(rev)
	if sr < sf {
		return sr
	}
	return sf
}
