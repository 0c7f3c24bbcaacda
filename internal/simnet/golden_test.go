package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

// gridPopulation drives the city-grid stream population on a 6×6 lattice at
// seed 42 for 10 s and returns the sum of every stream's horizon rate, summed
// in FlowID order, and the SHA-256 of each rate's bits in that order followed
// by the AllocStats counters. The population models a community mesh: demands in
// three tiers (0.25 Mbps telemetry 80 %, 2 Mbps audio/video 15 %, 8 Mbps bulk
// 5 %), 90 % of pairs near-local (endpoints within two grid steps), the rest
// city-crossing, all 150 streams installed in one Batch.
func gridPopulation(t *testing.T, setup func(*Network)) (checksum float64, digest string) {
	t.Helper()
	const (
		side    = 6
		streams = 150
		seed    = 42
		horizon = 10 * time.Second
	)
	topo, err := mesh.Grid(mesh.GridOptions{Rows: side, Cols: side, Seed: seed, Duration: horizon + time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	net := New(eng, topo)
	setup(net)
	stop := net.Start()
	defer stop()

	edge := func(v int) int { return min(max(v, 0), side-1) }
	rng := rand.New(rand.NewSource(seed * 7))
	ids := make([]FlowID, 0, streams)
	net.Batch(func() {
		for i := 0; i < streams; i++ {
			sr, sc := rng.Intn(side), rng.Intn(side)
			var dr, dc int
			if rng.Float64() < 0.9 {
				dr, dc = edge(sr+rng.Intn(5)-2), edge(sc+rng.Intn(5)-2)
			} else {
				dr, dc = rng.Intn(side), rng.Intn(side)
			}
			if dr == sr && dc == sc {
				dc = edge(dc + 1) // co-located pairs skip the network; keep it loaded
				if dc == sc {
					dr = edge(dr + 1)
				}
			}
			mbps := 8.0
			switch p := rng.Float64(); {
			case p < 0.80:
				mbps = 0.25
			case p < 0.95:
				mbps = 2
			}
			id, err := net.AddStream(fmt.Sprintf("scale/%d", i), mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc), mbps)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	})
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	for _, id := range ids {
		r, err := net.StreamRate(id)
		if err != nil {
			t.Fatal(err)
		}
		checksum += r
		binary.Write(h, binary.LittleEndian, math.Float64bits(r))
	}
	binary.Write(h, binary.LittleEndian, net.AllocStats())
	return checksum, fmt.Sprintf("%x", h.Sum(nil))
}

// TestGridPopulationGolden pins the city-grid population's horizon rates:
// the event-driven driver, the per-second polling driver and a 4-way sharded
// network must all land on the same literals. The digest covers AllocStats
// too: all three run 11 full passes and absorb no reallocation request.
func TestGridPopulationGolden(t *testing.T) {
	const (
		wantChecksum = 128.5
		wantDigest   = "54c7e1ccfc72918ec172bab68294a0eb3a4e613e5ba07f324e8682cb83e2d328"
	)
	for _, tc := range []struct {
		name  string
		setup func(*Network)
	}{
		{"event-driven", func(*Network) {}},
		{"polling", func(n *Network) { n.SetPolling(true) }},
		{"shards4", func(n *Network) {
			if err := n.SetShards(4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checksum, digest := gridPopulation(t, tc.setup)
			if checksum != wantChecksum {
				t.Errorf("rate checksum %v, want %v", checksum, wantChecksum)
			}
			if digest != wantDigest {
				t.Errorf("rate digest %s, want golden %s", digest, wantDigest)
			}
		})
	}
}
