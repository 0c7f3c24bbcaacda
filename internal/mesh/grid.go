package mesh

import (
	"fmt"
	"math/rand"
	"time"

	"bass/internal/trace"
)

// The grid's fixed link parameters.
const (
	// gridMeanMbps is the average link capacity (the CityLab node3-node4
	// class); gridJitterFrac spreads per-link means and step levels around
	// it.
	gridMeanMbps   = 25
	gridJitterFrac = 0.3
	// gridLatency is the per-hop one-way latency.
	gridLatency = 3 * time.Millisecond
)

// GridOptions parameterises City-scale grid construction.
type GridOptions struct {
	// Rows and Cols set the lattice dimensions (Rows*Cols nodes).
	Rows, Cols int
	// Seed keys every per-link capacity trace (link index is mixed in).
	Seed int64
	// Duration is the trace horizon (default 10 min).
	Duration time.Duration
	// ChangesPerLink is the number of capacity steps each link takes over
	// the horizon (default 6): enough churn that most 1-second grid ticks
	// carry at least one capacity event at city scale.
	ChangesPerLink int
}

func (o GridOptions) withDefaults() GridOptions {
	if o.Duration == 0 {
		o.Duration = 10 * time.Minute
	}
	if o.ChangesPerLink == 0 {
		o.ChangesPerLink = 6
	}
	return o
}

// GridNodeName names the lattice node at (row, col); zero-padded so node
// order is identical under lexicographic and row-major sort.
func GridNodeName(row, col int) string { return fmt.Sprintf("r%03dc%03d", row, col) }

// Grid builds a Rows×Cols lattice mesh — the city-scale stand-in for a
// community network laid out street by street — with right/down neighbour
// links whose capacities follow seeded step traces. Construction is fully
// deterministic in (options, seed).
func Grid(opts GridOptions) (*Topology, error) {
	opts = opts.withDefaults()
	if opts.Rows < 1 || opts.Cols < 1 {
		return nil, fmt.Errorf("mesh: grid dimensions %dx%d out of range", opts.Rows, opts.Cols)
	}
	t := NewTopology()
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			t.AddNode(GridNodeName(r, c))
		}
	}
	link := 0
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			if c+1 < opts.Cols {
				if err := addGridLink(t, opts, GridNodeName(r, c), GridNodeName(r, c+1), link); err != nil {
					return nil, err
				}
				link++
			}
			if r+1 < opts.Rows {
				if err := addGridLink(t, opts, GridNodeName(r, c), GridNodeName(r+1, c), link); err != nil {
					return nil, err
				}
				link++
			}
		}
	}
	return t, nil
}

// addGridLink attaches one step-trace link. Each link gets its own RNG
// stream (seed mixed with the link index by a large prime, the same recipe
// CityLab uses), so adding links never perturbs earlier traces.
func addGridLink(t *Topology, opts GridOptions, a, b string, idx int) error {
	rng := rand.New(rand.NewSource(opts.Seed + int64(idx)*7919))
	level := func() float64 {
		v := gridMeanMbps * (1 + gridJitterFrac*(2*rng.Float64()-1))
		if v < 1 {
			v = 1
		}
		return v
	}
	levels := make([]trace.Level, 0, opts.ChangesPerLink+1)
	levels = append(levels, trace.Level{From: 0, Mbps: level()})
	horizon := int(opts.Duration / time.Second)
	for i := 0; i < opts.ChangesPerLink && horizon > 1; i++ {
		at := time.Duration(1+rng.Intn(horizon-1)) * time.Second
		levels = append(levels, trace.Level{From: at, Mbps: level()})
	}
	tr := trace.StepTrace(MakeLinkID(a, b).String(), time.Second, opts.Duration, levels)
	return t.AddLink(a, b, tr, gridLatency)
}
