package netmon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bass/internal/mesh"
)

// ErrPathUnavailable is returned by cached path queries whose underlying
// route lookup failed: an endpoint is unknown or down, or no path survives
// the current availability state. The oracle normalises the route layer's
// sentinel errors to this one so cached and uncached misses are
// indistinguishable to callers (which only branch on nil-ness).
var ErrPathUnavailable = errors.New("netmon: path unavailable")

// PathMetrics is the monitor's combined view of one routed node pair: the
// bottleneck cached capacity and spare capacity along the path, computed in a
// single route walk. Networked is false for co-located pairs (no network
// involved); both metrics are then zero.
type PathMetrics struct {
	CapacityMbps float64
	SpareMbps    float64
	Networked    bool
}

// PathRequest names one (src, dst) pair of a batch path query.
type PathRequest struct {
	Src, Dst string
}

// PathResult is one batch entry's outcome.
type PathResult struct {
	Metrics PathMetrics
	Err     error
}

// Entry states. A zero entry has version 0, which never matches a live
// generation (generations start at 1), so "empty" needs no explicit state.
const (
	pathNetworked uint8 = iota + 1
	pathLocal
	pathErr
)

// pathEntry is one memoised (src, dst) result in the oracle's flat
// node-index-keyed table.
type pathEntry struct {
	version   uint64
	capMbps   float64
	spareMbps float64
	state     uint8
}

// pathOracle memoises (src, dst) → bottleneck path metrics in a flat
// n×n node-index-keyed table. Entries are validated against a generation
// counter instead of being cleared: any probe that refreshes a link view,
// any topology availability flip (routes change), and any capacity-trace
// swap (OnCapacityChange) bumps the generation, invalidating every entry in
// O(1). The entry table itself is allocated lazily on first use, so monitors
// that never issue path queries (bassd agents, unit fixtures) pay only the
// index map.
//
// Concurrency: the controller's parallel evaluation phase issues path
// queries from pool workers while probes — the only writers of link views
// and the generation — run strictly in the serial phases before it. The
// RWMutex therefore only arbitrates concurrent entry fills; a duplicate fill
// writes identical bytes. Cached values are pure functions of (generation,
// link views, availability epoch), which is what keeps parallel evaluation
// byte-identical to serial.
type pathOracle struct {
	mu      sync.RWMutex
	idx     map[string]int
	n       int
	entries []pathEntry
	version uint64 // current generation; entries match or are stale
	epoch   uint64 // topo availability epoch folded into version so far

	hits   uint64
	misses uint64
}

func newPathOracle(nodes []string) *pathOracle {
	idx := make(map[string]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	return &pathOracle{idx: idx, n: len(nodes), version: 1}
}

// bump invalidates every cached entry.
func (o *pathOracle) bump() {
	o.mu.Lock()
	o.version++
	o.mu.Unlock()
}

// syncEpoch folds the topology's availability epoch into the generation:
// route shapes changed, so every cached bottleneck is suspect.
func (o *pathOracle) syncEpoch(epoch uint64) {
	o.mu.RLock()
	same := o.epoch == epoch
	o.mu.RUnlock()
	if same {
		return
	}
	o.mu.Lock()
	if o.epoch != epoch {
		o.epoch = epoch
		o.version++
	}
	o.mu.Unlock()
}

// slot maps a node pair to its table index, reporting whether both nodes are
// known to the oracle.
func (o *pathOracle) slot(src, dst string) (int, bool) {
	i, ok := o.idx[src]
	if !ok {
		return 0, false
	}
	j, ok := o.idx[dst]
	if !ok {
		return 0, false
	}
	return i*o.n + j, true
}

// lookup returns the cached result for slot if its generation is current.
// The boolean reports a hit; ver is the generation a subsequent fill must
// still match.
func (o *pathOracle) lookup(slot int) (pathEntry, uint64, bool) {
	o.mu.RLock()
	ver := o.version
	var e pathEntry
	hit := false
	if o.entries != nil {
		e = o.entries[slot]
		hit = e.version == ver
	}
	o.mu.RUnlock()
	if hit {
		atomic.AddUint64(&o.hits, 1)
	} else {
		atomic.AddUint64(&o.misses, 1)
	}
	return e, ver, hit
}

// fill stores a computed result unless the generation moved underneath the
// computation (a probe landed mid-fill), in which case the stale value is
// discarded rather than poisoning the new generation.
func (o *pathOracle) fill(slot int, ver uint64, e pathEntry) {
	o.mu.Lock()
	if o.version == ver {
		if o.entries == nil {
			o.entries = make([]pathEntry, o.n*o.n)
		}
		e.version = ver
		o.entries[slot] = e
	}
	o.mu.Unlock()
}

// result converts a cached entry back into the public shape.
func (e pathEntry) result() (PathMetrics, error) {
	switch e.state {
	case pathNetworked:
		return PathMetrics{CapacityMbps: e.capMbps, SpareMbps: e.spareMbps, Networked: true}, nil
	case pathLocal:
		return PathMetrics{}, nil
	default:
		return PathMetrics{}, ErrPathUnavailable
	}
}

// entryFrom converts a freshly computed result into its cached shape.
func entryFrom(pm PathMetrics, err error) pathEntry {
	switch {
	case err != nil:
		return pathEntry{state: pathErr}
	case pm.Networked:
		return pathEntry{state: pathNetworked, capMbps: pm.CapacityMbps, spareMbps: pm.SpareMbps}
	default:
		return pathEntry{state: pathLocal}
	}
}

// OracleStats reports the path oracle's hit accounting. Reads are not
// synchronised with in-flight queries; call it from the same serial context
// that drives the monitor.
type OracleStats struct {
	Hits, Misses uint64
}

// OracleStats exposes cache effectiveness for benchmarks and experiments.
func (m *Monitor) OracleStats() OracleStats {
	return OracleStats{
		Hits:   atomic.LoadUint64(&m.oracle.hits),
		Misses: atomic.LoadUint64(&m.oracle.misses),
	}
}

// PathMetrics reports the bottleneck capacity AND spare capacity between two
// nodes in one lookup — one route walk on a miss, a flat-slot read on a hit.
// Errors from cached queries are normalised to ErrPathUnavailable.
func (m *Monitor) PathMetrics(src, dst string) (PathMetrics, error) {
	o := m.oracle
	slot, ok := o.slot(src, dst)
	if !ok {
		return m.pathMetricsUncached(src, dst)
	}
	o.syncEpoch(m.topo.AvailabilityEpoch())
	e, ver, hit := o.lookup(slot)
	if hit {
		return e.result()
	}
	pm, err := m.pathMetricsUncached(src, dst)
	if err != nil {
		err = ErrPathUnavailable
	}
	o.fill(slot, ver, entryFrom(pm, err))
	return pm, err
}

// PathMetricsBatch resolves every request into out (resliced and returned),
// amortising the epoch sync and lock traffic across the batch — the shape
// the control cycle wants: one call per application, one entry per deployed
// edge.
func (m *Monitor) PathMetricsBatch(reqs []PathRequest, out []PathResult) []PathResult {
	out = out[:0]
	for _, r := range reqs {
		pm, err := m.PathMetrics(r.Src, r.Dst)
		out = append(out, PathResult{Metrics: pm, Err: err})
	}
	return out
}

// pathMetricsUncached walks the routed path once, taking the bottleneck of
// both cached metrics simultaneously.
func (m *Monitor) pathMetricsUncached(src, dst string) (PathMetrics, error) {
	pm := PathMetrics{CapacityMbps: -1, SpareMbps: -1}
	var unknown error
	err := m.topo.WalkRoute(src, dst, func(_, _ string, l *mesh.Link) {
		v, ok := m.views[l.ID]
		if !ok {
			if unknown == nil {
				unknown = fmt.Errorf("%w: %s", ErrUnknownLink, l.ID)
			}
			return
		}
		pm.Networked = true
		if pm.CapacityMbps < 0 || v.CapacityMbps < pm.CapacityMbps {
			pm.CapacityMbps = v.CapacityMbps
		}
		if pm.SpareMbps < 0 || v.SpareMbps < pm.SpareMbps {
			pm.SpareMbps = v.SpareMbps
		}
	})
	if err == nil {
		err = unknown
	}
	if err != nil || !pm.Networked {
		return PathMetrics{}, err
	}
	return pm, nil
}
