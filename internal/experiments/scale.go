package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/simnet"
)

// ScaleOptions sizes a city-scale simnet run: a Rows×Cols street grid with
// seeded step traces carrying a mixed-tier stream population. The workload is
// a pure function of the options, so equal options yield byte-identical
// simulation trajectories at every shard count — the property
// TestScaleRateChecksumIdenticalSharded pins.
type ScaleOptions struct {
	Nodes   int           // grid node target (rounded up to Rows×Cols)
	Flows   int           // concurrent streams
	Shards  int           // 0/1 = single-shard
	Horizon time.Duration // simulated duration (default 60 s)
	Seed    int64
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	if o.Nodes == 0 {
		o.Nodes = 200
	}
	if o.Flows == 0 {
		o.Flows = 5000
	}
	if o.Horizon == 0 {
		o.Horizon = time.Minute
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// gridDims is the squarest rows×cols cover of a node target.
func gridDims(nodes int) (rows, cols int) {
	rows = 1
	for rows*rows < nodes {
		rows++
	}
	cols = (nodes + rows - 1) / rows
	return rows, cols
}

// ScaleResult reports one scale run: sizing, simulator throughput, and a
// rate checksum that pins cross-shard determinism.
type ScaleResult struct {
	Nodes, Links, Flows, Shards int

	SimSec  float64 // simulated seconds
	WallSec float64 // host seconds
	Events  uint64  // engine events executed

	// EventsPerSec is engine events per host second; RealTimeFactor is
	// simulated time over host time (>1 = faster than real time) — the
	// headline number the ROADMAP's city-scale goal is stated in.
	EventsPerSec   float64
	RealTimeFactor float64
	// AllocsPerEvent is heap allocations per engine event over the Run,
	// measured with runtime.MemStats (workload setup excluded).
	AllocsPerEvent float64

	FullPasses, SkippedPasses uint64

	// RateChecksum is the sum of all stream rates at the horizon, in Mbps,
	// summed in FlowID order. Bit-identical across shard counts.
	RateChecksum float64
}

// RunScale builds the grid, installs the flow population in one Batch, and
// runs the horizon under trace-driven capacity churn, measuring wall-clock
// and allocations around the Run only.
//
// The flow population models a community mesh: demands come in three tiers
// (0.25 Mbps telemetry 80%, 2 Mbps audio/video 15%, 8 Mbps bulk feeds 5%)
// and 90% of pairs are near-local (endpoints within two grid steps), the
// rest city-crossing. The aggregate oversubscribes links by ~1.4×, so
// water-filling faces real contention every pass.
func RunScale(opts ScaleOptions) (ScaleResult, error) {
	opts = opts.withDefaults()
	rows, cols := gridDims(opts.Nodes)
	topo, err := mesh.Grid(mesh.GridOptions{
		Rows:     rows,
		Cols:     cols,
		Seed:     opts.Seed,
		Duration: opts.Horizon + time.Minute, // headroom past the horizon: no trace wrap
	})
	if err != nil {
		return ScaleResult{}, err
	}
	eng := sim.NewEngine(opts.Seed)
	net := simnet.New(eng, topo)
	if err := net.SetShards(opts.Shards); err != nil {
		return ScaleResult{}, err
	}
	stop := net.Start()
	defer stop()

	rng := rand.New(rand.NewSource(opts.Seed * 7))
	node := func(r, c int) string { return mesh.GridNodeName(r, c) }
	ids := make([]simnet.FlowID, 0, opts.Flows)
	var addErr error
	net.Batch(func() {
		for i := 0; i < opts.Flows; i++ {
			sr, sc := rng.Intn(rows), rng.Intn(cols)
			var dr, dc int
			if rng.Float64() < 0.9 {
				// Near-local: within two grid steps of the source.
				dr = clamp(sr+rng.Intn(5)-2, rows)
				dc = clamp(sc+rng.Intn(5)-2, cols)
			} else {
				dr, dc = rng.Intn(rows), rng.Intn(cols)
			}
			if dr == sr && dc == sc {
				dc = clamp(dc+1, cols) // co-located pairs skip the network; keep it loaded
				if dc == sc {
					dr = clamp(dr+1, rows)
				}
			}
			var mbps float64
			switch p := rng.Float64(); {
			case p < 0.80:
				mbps = 0.25
			case p < 0.95:
				mbps = 2
			default:
				mbps = 8
			}
			id, err := net.AddStream(fmt.Sprintf("scale/%d", i), node(sr, sc), node(dr, dc), mbps)
			if err != nil {
				addErr = err
				return
			}
			ids = append(ids, id)
		}
	})
	if addErr != nil {
		return ScaleResult{}, addErr
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	baseEvents := eng.Executed()
	start := time.Now()
	if err := eng.Run(opts.Horizon); err != nil {
		return ScaleResult{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	checksum := 0.0
	for _, id := range ids {
		r, err := net.StreamRate(id)
		if err != nil {
			return ScaleResult{}, err
		}
		checksum += r
	}
	events := eng.Executed() - baseEvents
	res := ScaleResult{
		Nodes:          rows * cols,
		Links:          len(topo.Links()),
		Flows:          len(ids),
		Shards:         net.Shards(),
		SimSec:         opts.Horizon.Seconds(),
		WallSec:        wall,
		Events:         events,
		RealTimeFactor: opts.Horizon.Seconds() / wall,
		FullPasses:     net.AllocStats().FullPasses,
		SkippedPasses:  net.AllocStats().SkippedPasses,
		RateChecksum:   checksum,
	}
	if wall > 0 {
		res.EventsPerSec = float64(events) / wall
	}
	if events > 0 {
		res.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
	}
	return res, nil
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Table renders one scale run.
func (r ScaleResult) Table() Table {
	return Table{
		Title:  fmt.Sprintf("Scale: %d-node grid, %d flows, %d shard(s)", r.Nodes, r.Flows, r.Shards),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"links", fmt.Sprintf("%d", r.Links)},
			{"sim seconds", f(r.SimSec)},
			{"wall seconds", f(r.WallSec)},
			{"real-time factor", f(r.RealTimeFactor)},
			{"engine events", fmt.Sprintf("%d", r.Events)},
			{"events/sec", f(r.EventsPerSec)},
			{"allocs/event", f(r.AllocsPerEvent)},
			{"full passes", fmt.Sprintf("%d", r.FullPasses)},
			{"absorbed passes", fmt.Sprintf("%d", r.SkippedPasses)},
			{"rate checksum (Mbps)", fmt.Sprintf("%.6f", r.RateChecksum)},
		},
	}
}

func init() {
	register("scale", func(p Params) ([]Table, error) {
		opts := ScaleOptions{Nodes: 200, Flows: 5000, Horizon: time.Minute, Seed: p.Seed, Shards: p.ShardCount()}
		if p.Quick {
			opts.Nodes, opts.Flows, opts.Horizon = 48, 400, 15*time.Second
		}
		r, err := RunScale(opts)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
}
