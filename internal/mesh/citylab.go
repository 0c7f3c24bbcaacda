package mesh

import (
	"time"

	"bass/internal/trace"
)

// CityLab node names. Node0 hosts the control plane (k3s server + BASS
// extensions); nodes 1-4 are workers, matching the paper's 5-node subset of
// the CityLab topology (Fig 15a).
const (
	CityLabControl = "node0"
	CityLabNode1   = "node1"
	CityLabNode2   = "node2"
	CityLabNode3   = "node3"
	CityLabNode4   = "node4"
)

// CityLabLinkSpec describes one link of the emulated CityLab subset. The
// paper's Fig 15(a) shows measured half-hour average bandwidths but does not
// tabulate them; these values are chosen to be consistent with every number
// the text does give: the node3-node4 link is 25 Mbps (Fig 8), links carry
// roughly 8-25 Mbps (Fig 2 characterises links of ~19.9 and ~7.62 Mbps), and
// node2's connectivity is the weakest (its participants see 240 Kbps video in
// Fig 15b).
type CityLabLinkSpec struct {
	A, B      string
	MeanMbps  float64
	StdFrac   float64
	LatencyMS float64
	// DipsPerHour is the shadowing-episode rate; the control node's uplink
	// is sited with the gateway and rarely shadows.
	DipsPerHour float64
}

// CityLabLinks returns the link specs of the emulated 5-node subset.
func CityLabLinks() []CityLabLinkSpec {
	return []CityLabLinkSpec{
		{A: CityLabControl, B: CityLabNode1, MeanMbps: 50, StdFrac: 0.05, LatencyMS: 2, DipsPerHour: 0.2},
		{A: CityLabNode1, B: CityLabNode2, MeanMbps: 12, StdFrac: 0.22, LatencyMS: 4, DipsPerHour: 5},
		{A: CityLabNode1, B: CityLabNode3, MeanMbps: 19.9, StdFrac: 0.10, LatencyMS: 3, DipsPerHour: 4},
		{A: CityLabNode1, B: CityLabNode4, MeanMbps: 14, StdFrac: 0.15, LatencyMS: 4, DipsPerHour: 4},
		{A: CityLabNode2, B: CityLabNode3, MeanMbps: 7.62, StdFrac: 0.27, LatencyMS: 5, DipsPerHour: 6},
		{A: CityLabNode3, B: CityLabNode4, MeanMbps: 25, StdFrac: 0.12, LatencyMS: 3, DipsPerHour: 4},
	}
}

// CityLabOptions tunes CityLab topology construction.
type CityLabOptions struct {
	// Seed seeds the per-link trace generators (link index is mixed in).
	Seed int64
	// Duration is the trace length (default 20 min, the paper's run length).
	Duration time.Duration
}

// CityLab builds the emulated 5-node CityLab subset with trace-driven link
// capacities.
func CityLab(opts CityLabOptions) (*Topology, error) {
	if opts.Duration == 0 {
		opts.Duration = 20 * time.Minute
	}
	t := NewTopology()
	for _, n := range []string{CityLabControl, CityLabNode1, CityLabNode2, CityLabNode3, CityLabNode4} {
		t.AddNode(n)
	}
	for i, spec := range CityLabLinks() {
		cfg := trace.GenConfig{
			MeanMbps:       spec.MeanMbps,
			StdFrac:        spec.StdFrac,
			Theta:          0.05,
			DipRatePerHour: spec.DipsPerHour,
			DipDepth:       0.4,
			// The paper observes that fluctuations needing migration happen
			// "in the order of minutes" (§6.3.4): shadowing episodes last
			// minutes, not seconds.
			DipMeanDuration: 3 * time.Minute,
			Duration:        opts.Duration,
			Seed:            opts.Seed + int64(i)*7919,
		}
		tr, err := trace.Generate(MakeLinkID(spec.A, spec.B).String(), cfg)
		if err != nil {
			return nil, err
		}
		latency := time.Duration(spec.LatencyMS * float64(time.Millisecond))
		if err := t.AddLink(spec.A, spec.B, tr, latency); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustCityLab is CityLab that panics on error, for tests and examples.
func MustCityLab(opts CityLabOptions) *Topology {
	t, err := CityLab(opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Line builds a simple chain topology n0-n1-...-n(k-1) with constant-capacity
// links, handy for unit tests and the 3-node microbenchmark setups (Fig 3).
func Line(names []string, mbps float64, latency time.Duration, dur time.Duration) *Topology {
	t := NewTopology()
	for _, n := range names {
		t.AddNode(n)
	}
	n := int(dur / time.Second)
	if n < 1 {
		n = 1
	}
	for i := 0; i+1 < len(names); i++ {
		id := MakeLinkID(names[i], names[i+1])
		t.MustAddLink(names[i], names[i+1], trace.Constant(id.String(), time.Second, mbps, n), latency)
	}
	return t
}

// FullMesh builds a complete graph over names with constant-capacity links,
// matching the paper's microbenchmark clusters on a bridged LAN (§6.2.1).
func FullMesh(names []string, mbps float64, latency time.Duration, dur time.Duration) *Topology {
	t := NewTopology()
	for _, n := range names {
		t.AddNode(n)
	}
	n := int(dur / time.Second)
	if n < 1 {
		n = 1
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			id := MakeLinkID(names[i], names[j])
			t.MustAddLink(names[i], names[j], trace.Constant(id.String(), time.Second, mbps, n), latency)
		}
	}
	return t
}
