package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// scenarioGrid is the scenario's substrate: a 6x6 lattice with seeded step
// traces, small enough to drive through faults quickly.
func scenarioGrid(t *testing.T, horizon time.Duration) *mesh.Topology {
	t.Helper()
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 6, Cols: 6, Seed: 17, Duration: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// driveShardedScenario runs a cross-region workload with faults under the
// event-driven or polling driver and returns per-second rate samples,
// queue-delay samples, transfer finishes, and alloc stats.
func driveShardedScenario(t *testing.T, polling bool) (samples, backlogs []float64, finishes []time.Duration, stats AllocStats) {
	t.Helper()
	const horizon = 2 * time.Minute
	topo := scenarioGrid(t, horizon)
	eng := sim.NewEngine(23)
	net := New(eng, topo)
	net.SetPolling(polling)
	stop := net.Start()
	defer stop()

	nn := mesh.GridNodeName
	// Corner-to-corner and edge flows, so paths cross the whole lattice.
	s1, err := net.AddStream("s1", nn(0, 0), nn(5, 5), 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("s2", nn(0, 5), nn(5, 0), 18); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("s3", nn(2, 2), nn(2, 3), 9); err != nil {
		t.Fatal(err)
	}
	done := func(r TransferResult) { finishes = append(finishes, r.Finished) }
	if _, err := net.AddTransfer("t1", nn(5, 0), nn(0, 5), 80e6, 0, done); err != nil {
		t.Fatal(err)
	}
	eng.At(12*time.Second, func() {
		if _, err := net.AddTransfer("t2", nn(0, 0), nn(3, 3), 40e6, 15, done); err != nil {
			t.Fatal(err)
		}
	})
	// Node crash and recovery in the middle of the lattice.
	eng.At(30*time.Second, func() {
		if err := topo.SetNodeUp(nn(2, 2), false); err != nil {
			t.Fatal(err)
		}
		net.ApplyTopologyState()
	})
	eng.At(50*time.Second, func() {
		if err := topo.SetNodeUp(nn(2, 2), true); err != nil {
			t.Fatal(err)
		}
		net.ApplyTopologyState()
	})
	// Mid-run trace swap: the event chain must pick up the swapped
	// trace's change-points. Off-grid on purpose: a swap landing
	// exactly on a sampling tick is observed at that tick by polling but at
	// the next tick by the event chain (gridAfter is strictly-after), a
	// pre-existing driver boundary ambiguity outside the equivalence domain.
	eng.At(65*time.Second+500*time.Millisecond, func() {
		if err := topo.SetCapacity(nn(0, 0), nn(0, 1), trace.StepTrace("swap", time.Second, horizon, []trace.Level{
			{From: 0, Mbps: 6},
			{From: 80 * time.Second, Mbps: 50},
		})); err != nil {
			t.Fatal(err)
		}
	})
	// Link flap mid-lattice.
	eng.At(90*time.Second, func() {
		if err := topo.SetLinkUp(nn(2, 3), nn(3, 3), false); err != nil {
			t.Fatal(err)
		}
		net.ApplyTopologyState()
	})
	eng.At(100*time.Second, func() {
		if err := topo.SetLinkUp(nn(2, 3), nn(3, 3), true); err != nil {
			t.Fatal(err)
		}
		net.ApplyTopologyState()
	})

	eng.Every(time.Second, func() {
		r, err := net.StreamRate(s1)
		if err != nil {
			r = -1
		}
		samples = append(samples, r)
		d, err := net.QueueDelay(nn(0, 0), nn(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		backlogs = append(backlogs, d.Seconds())
	})
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return samples, backlogs, finishes, net.AllocStats()
}

// scenarioDigest is the SHA-256 of one run of driveShardedScenario: every
// rate sample's and backlog sample's bits, every transfer finish time and the
// alloc stats, in that order.
func scenarioDigest(samples, backlogs []float64, finishes []time.Duration, stats AllocStats) string {
	h := sha256.New()
	for i := range samples {
		binary.Write(h, binary.LittleEndian, [2]uint64{math.Float64bits(samples[i]), math.Float64bits(backlogs[i])})
	}
	for _, f := range finishes {
		binary.Write(h, binary.LittleEndian, int64(f))
	}
	binary.Write(h, binary.LittleEndian, [3]uint64{stats.FullPasses, stats.SkippedPasses, stats.LocalPasses})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The scenario's goldens: scenarioDigest of the run, event-driven and
// polling, captured when the per-link phases could still run cut into
// shards and every shard count matched them. Polling requests a pass every
// second, so it absorbs more passes than the event chain; every sample,
// backlog and finish agrees between the two.
const (
	shardedEventGolden   = "3c83daa3db5e4ebb3309b650e01519d506e521054d83fa5148d9a8b2edc12668"
	shardedPollingGolden = "1dc435be1747e70cbb5ba70970a88ded283ec7750dbfe00a5b1c386153906333"
)

// TestShardedMatchesSingleShard pins the event-driven run of the scenario to
// the single-shard driver's golden: the same rate samples, closed-form
// backlogs, transfer finish times and allocation work, bit for bit.
func TestShardedMatchesSingleShard(t *testing.T) {
	s, b, f, stats := driveShardedScenario(t, false)
	if len(f) == 0 {
		t.Error("scenario completed no transfers; finish equivalence vacuous")
	}
	if got := scenarioDigest(s, b, f, stats); got != shardedEventGolden {
		t.Errorf("event-driven digest %s (stats %+v), want golden %s", got, stats, shardedEventGolden)
	}
}

// TestShardedPollingMatchesEventDriven closes the driver matrix: the polling
// run matches its own golden and the event-driven run sample for sample.
func TestShardedPollingMatchesEventDriven(t *testing.T) {
	evS, evB, evF, _ := driveShardedScenario(t, false)
	poS, poB, poF, poStats := driveShardedScenario(t, true)
	if got := scenarioDigest(poS, poB, poF, poStats); got != shardedPollingGolden {
		t.Errorf("polling digest %s (stats %+v), want golden %s", got, poStats, shardedPollingGolden)
	}
	if len(evS) != len(poS) || len(evF) != len(poF) {
		t.Fatalf("counts differ: %d/%d vs %d/%d", len(evS), len(evF), len(poS), len(poF))
	}
	for i := range evS {
		if evS[i] != poS[i] || evB[i] != poB[i] {
			t.Fatalf("sample %d: event (%v, %v) != polling (%v, %v)", i, evS[i], evB[i], poS[i], poB[i])
		}
	}
	for i := range evF {
		if evF[i] != poF[i] {
			t.Fatalf("finish %d: %v != %v", i, evF[i], poF[i])
		}
	}
}
