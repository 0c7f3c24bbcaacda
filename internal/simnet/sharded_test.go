package simnet

import (
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// shardGrid is the differential-test substrate: a 6x6 lattice with seeded
// step traces, big enough that a 4-way cut splits flows' paths across runs,
// small enough to drive through faults quickly.
// shardGridLinks is shardGrid's directed-link count, the most shards
// SetShards accepts on it.
const shardGridLinks = 120

func shardGrid(t *testing.T, horizon time.Duration) *mesh.Topology {
	t.Helper()
	topo, err := mesh.Grid(mesh.GridOptions{Rows: 6, Cols: 6, Seed: 17, Duration: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// driveShardedScenario runs a cross-region workload with faults under the
// given shard count and returns per-second rate samples, queue-delay samples,
// transfer finishes, and alloc stats. shards == 1 is the single-shard
// reference driver.
func driveShardedScenario(t *testing.T, shards int, polling bool) (samples, backlogs []float64, finishes []time.Duration, stats AllocStats) {
	t.Helper()
	const horizon = 2 * time.Minute
	topo := shardGrid(t, horizon)
	eng := sim.NewEngine(23)
	net := New(eng, topo)
	net.SetPolling(polling)
	if err := net.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	stop := net.Start()
	defer stop()

	nn := mesh.GridNodeName
	// Corner-to-corner and edge flows so paths cross shard boundaries.
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
	// Mid-run trace swap: the sharded event chain must pick up the swapped
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

// TestShardedMatchesSingleShard is the tentpole gate: 4-way sharded
// execution must be bit-identical to the single-shard driver — same rate
// samples, same closed-form backlogs, same transfer finish times, same
// allocation work.
func TestShardedMatchesSingleShard(t *testing.T) {
	oneS, oneB, oneF, oneStats := driveShardedScenario(t, 1, false)
	shS, shB, shF, shStats := driveShardedScenario(t, 4, false)

	if len(oneS) != len(shS) {
		t.Fatalf("sample counts differ: 1-shard %d vs 4-shard %d", len(oneS), len(shS))
	}
	for i := range oneS {
		if oneS[i] != shS[i] {
			t.Fatalf("rate sample %d: 1-shard %v != 4-shard %v", i, oneS[i], shS[i])
		}
		if oneB[i] != shB[i] {
			t.Fatalf("backlog sample %d: 1-shard %v != 4-shard %v", i, oneB[i], shB[i])
		}
	}
	if len(oneF) != len(shF) {
		t.Fatalf("finish counts differ: %d vs %d", len(oneF), len(shF))
	}
	for i := range oneF {
		if oneF[i] != shF[i] {
			t.Fatalf("finish %d: 1-shard %v != 4-shard %v", i, oneF[i], shF[i])
		}
	}
	if oneStats != shStats {
		t.Errorf("alloc stats differ: 1-shard %+v vs 4-shard %+v", oneStats, shStats)
	}
	if len(oneF) == 0 {
		t.Error("scenario completed no transfers; finish equivalence vacuous")
	}
}

// TestShardedPollingMatchesEventDriven closes the driver matrix: sharding
// composed with the polling driver must still match sharded event-driven.
func TestShardedPollingMatchesEventDriven(t *testing.T) {
	evS, evB, evF, _ := driveShardedScenario(t, 4, false)
	poS, poB, poF, _ := driveShardedScenario(t, 4, true)
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

// TestShardedMaxShards: one shard per directed link — the degenerate cut,
// where the two directions of every link land in different runs — must still
// match the reference.
func TestShardedMaxShards(t *testing.T) {
	oneS, _, oneF, _ := driveShardedScenario(t, 1, false)
	shS, _, shF, _ := driveShardedScenario(t, shardGridLinks, false)
	for i := range oneS {
		if oneS[i] != shS[i] {
			t.Fatalf("rate sample %d: 1-shard %v != %d-shard %v", i, oneS[i], shardGridLinks, shS[i])
		}
	}
	if len(oneF) != len(shF) {
		t.Fatalf("finish counts differ: %d vs %d", len(oneF), len(shF))
	}
}

// TestSetShardsValidation pins the error/panic contract SetShards callers
// (bench's shards2 rep) lean on.
func TestSetShardsValidation(t *testing.T) {
	topo := shardGrid(t, time.Minute)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	if n := len(net.linkOrder); n != shardGridLinks {
		t.Fatalf("%d directed links, want %d", n, shardGridLinks)
	}
	if err := net.SetShards(shardGridLinks + 1); err == nil {
		t.Errorf("SetShards(%d) over %d directed links did not error", shardGridLinks+1, shardGridLinks)
	}
	if err := net.SetShards(shardGridLinks); err != nil {
		t.Errorf("SetShards(%d) over %d directed links: %v", shardGridLinks, shardGridLinks, err)
	}
	if err := net.SetShards(0); err != nil {
		t.Errorf("SetShards(0) should fall back to single-shard, got %v", err)
	}
	if got := net.Shards(); got != 1 {
		t.Errorf("Shards() = %d, want 1", got)
	}
	if err := net.SetShards(4); err != nil {
		t.Fatal(err)
	}
	if got := net.Shards(); got != 4 {
		t.Errorf("Shards() = %d, want 4", got)
	}
	stop := net.Start()
	defer stop()
	defer func() {
		if recover() == nil {
			t.Error("SetShards after Start did not panic")
		}
	}()
	net.SetShards(2)
}
