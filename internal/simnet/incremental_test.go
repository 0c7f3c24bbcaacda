package simnet

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
	"bass/internal/trace"
)

// steppyMesh builds a 4-node full mesh where one link follows a step trace
// (drop and recovery) and the rest stay constant — enough churn to exercise
// both the absorb path (quiet ticks, capacity growth on slack links) and the
// full pass (shrinking capacity, flow arrivals).
func steppyMesh(horizon time.Duration) *mesh.Topology {
	names := []string{"a", "b", "c", "d"}
	topo := mesh.NewTopology()
	for _, n := range names {
		topo.AddNode(n)
	}
	for i, from := range names {
		for _, to := range names[i+1:] {
			var tr *trace.Trace
			if from == "a" && to == "b" {
				tr = trace.StepTrace("a-b", time.Second, horizon, []trace.Level{
					{From: 0, Mbps: 40},
					{From: 20 * time.Second, Mbps: 8},
					{From: 50 * time.Second, Mbps: 60},
				})
			} else {
				tr = trace.Constant(from+"-"+to, time.Second, 30, int(horizon/time.Second))
			}
			topo.MustAddLink(from, to, tr, time.Millisecond)
		}
	}
	return topo
}

// driveScenario runs a fixed mixed stream/transfer workload and samples every
// stream's rate each second, returning the samples and transfer finish times.
func driveScenario(t *testing.T, fullRecompute, polling bool) (samples []float64, finishes []time.Duration, stats AllocStats) {
	t.Helper()
	const horizon = 90 * time.Second
	eng := sim.NewEngine(7)
	net := New(eng, steppyMesh(horizon))
	net.SetFullRecompute(fullRecompute)
	net.SetPolling(polling)
	net.Start()

	var streams []FlowID
	addStream := func(tag, src, dst string, mbps float64) {
		id, err := net.AddStream(tag, src, dst, mbps)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, id)
	}
	addStream("s1", "a", "b", 25)
	addStream("s2", "a", "c", 10)
	addStream("s3", "b", "d", 15)
	addStream("s4", "c", "d", 5)

	done := func(r TransferResult) { finishes = append(finishes, r.Finished) }
	if _, err := net.AddTransfer("t1", "a", "d", 20e6, 0, done); err != nil {
		t.Fatal(err)
	}
	eng.At(10*time.Second, func() {
		if _, err := net.AddTransfer("t2", "b", "a", 40e6, 12, done); err != nil {
			t.Fatal(err)
		}
	})
	eng.At(30*time.Second, func() {
		if err := net.SetStreamDemand(streams[1], 18); err != nil {
			t.Fatal(err)
		}
	})
	eng.At(60*time.Second, func() {
		if err := net.RemoveStream(streams[3]); err != nil {
			t.Fatal(err)
		}
	})
	stopSample := eng.Every(time.Second, func() {
		for _, id := range streams {
			r, err := net.StreamRate(id)
			if err != nil {
				r = -1 // removed
			}
			samples = append(samples, r)
		}
	})
	defer stopSample()
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return samples, finishes, net.AllocStats()
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	incSamples, incFinishes, incStats := driveScenario(t, false, true)
	fullSamples, fullFinishes, fullStats := driveScenario(t, true, true)

	if len(incSamples) != len(fullSamples) {
		t.Fatalf("sample counts differ: %d vs %d", len(incSamples), len(fullSamples))
	}
	for i := range incSamples {
		if incSamples[i] != fullSamples[i] {
			t.Fatalf("sample %d: incremental %v != full %v", i, incSamples[i], fullSamples[i])
		}
	}
	if len(incFinishes) != len(fullFinishes) {
		t.Fatalf("transfer completions differ: %d vs %d", len(incFinishes), len(fullFinishes))
	}
	for i := range incFinishes {
		if incFinishes[i] != fullFinishes[i] {
			t.Fatalf("finish %d: incremental %v != full %v", i, incFinishes[i], fullFinishes[i])
		}
	}
	if incStats.SkippedPasses == 0 {
		t.Error("incremental run absorbed no passes; optimisation inactive")
	}
	if fullStats.SkippedPasses != 0 {
		t.Errorf("full-recompute run skipped %d passes", fullStats.SkippedPasses)
	}
	if incStats.FullPasses >= fullStats.FullPasses {
		t.Errorf("incremental ran %d full passes, full-recompute %d; want fewer",
			incStats.FullPasses, fullStats.FullPasses)
	}
}

func TestQuietEpochsSkipWaterFilling(t *testing.T) {
	// Constant capacity, steady streams, polling driver: after the initial
	// allocations, every tick's reallocation must be absorbed.
	topo := mesh.FullMesh([]string{"a", "b", "c"}, 100, time.Millisecond, time.Minute)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.SetPolling(true)
	net.Start()
	id, err := net.AddStream("s", "a", "b", 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("s2", "b", "c", 20); err != nil {
		t.Fatal(err)
	}
	before := net.AllocStats()
	if err := eng.Run(5 * time.Minute); err != nil { // traces wrap past their horizon
		t.Fatal(err)
	}
	after := net.AllocStats()
	if got := after.FullPasses - before.FullPasses; got != 0 {
		t.Errorf("quiet ticks ran %d full passes, want 0", got)
	}
	if after.SkippedPasses < 290 {
		t.Errorf("skipped %d passes, want ≈299 (one per tick)", after.SkippedPasses)
	}
	if r, _ := net.StreamRate(id); math.Abs(r-40) > 1e-9 {
		t.Errorf("rate drifted to %v under skipped passes", r)
	}
	// Accounting must stay live across skipped passes.
	if mb := net.BytesByTag()["s"]; math.Abs(mb-40*300/8) > 40 {
		t.Errorf("carried %v MB, want ≈%v", mb, 40.0*300/8)
	}
}

func TestQuietTraceSchedulesNoEvents(t *testing.T) {
	// Same quiet scenario under the event-driven driver: constant traces have
	// no change-points, so the network must schedule nothing at all — and the
	// read views must keep accounting live without a single settle.
	topo := mesh.FullMesh([]string{"a", "b", "c"}, 100, time.Millisecond, time.Minute)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	id, err := net.AddStream("s", "a", "b", 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddStream("s2", "b", "c", 20); err != nil {
		t.Fatal(err)
	}
	before := net.AllocStats()
	executed := eng.Executed()
	if err := eng.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := eng.Executed() - executed; got != 0 {
		t.Errorf("quiet trace executed %d events, want 0", got)
	}
	after := net.AllocStats()
	if got := after.FullPasses - before.FullPasses; got != 0 {
		t.Errorf("quiet run executed %d full passes, want 0", got)
	}
	if r, _ := net.StreamRate(id); math.Abs(r-40) > 1e-9 {
		t.Errorf("rate drifted to %v", r)
	}
	if mb := net.BytesByTag()["s"]; math.Abs(mb-40*300/8) > 1e-6 {
		t.Errorf("carried %v MB, want %v (closed-form view)", mb, 40.0*300/8)
	}
	if rate := net.TagRate("s"); math.Abs(rate-40) > 1e-9 {
		t.Errorf("TagRate = %v, want 40", rate)
	}
}

func TestCapacityGrowthOnSlackLinkAbsorbed(t *testing.T) {
	// b-c grows from 50 to 80 Mbps at t=5s. The only flow runs a->b and is
	// demand-limited, so the growth must be absorbed without a full pass.
	topo := mesh.NewTopology()
	for _, n := range []string{"a", "b", "c"} {
		topo.AddNode(n)
	}
	horizon := time.Minute
	topo.MustAddLink("a", "b", trace.Constant("a-b", time.Second, 100, 60), time.Millisecond)
	topo.MustAddLink("b", "c", trace.StepTrace("b-c", time.Second, horizon, []trace.Level{
		{From: 0, Mbps: 50},
		{From: 5 * time.Second, Mbps: 80},
	}), time.Millisecond)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	if _, err := net.AddStream("s", "a", "b", 10); err != nil {
		t.Fatal(err)
	}
	base := net.AllocStats().FullPasses
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.AllocStats().FullPasses - base; got != 0 {
		t.Errorf("slack-link growth triggered %d full passes, want 0", got)
	}
}

func TestCapacityDropForcesFullPass(t *testing.T) {
	// The bottleneck link of two competing streams shrinks: rates must track.
	topo := mesh.NewTopology()
	for _, n := range []string{"a", "b"} {
		topo.AddNode(n)
	}
	topo.MustAddLink("a", "b", trace.StepTrace("a-b", time.Second, time.Minute, []trace.Level{
		{From: 0, Mbps: 30},
		{From: 5 * time.Second, Mbps: 10},
	}), time.Millisecond)
	eng := sim.NewEngine(1)
	net := New(eng, topo)
	net.Start()
	x, err := net.AddStream("x", "a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	y, err := net.AddStream("y", "a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	rx, _ := net.StreamRate(x)
	ry, _ := net.StreamRate(y)
	if math.Abs(rx-5) > 1e-6 || math.Abs(ry-5) > 1e-6 {
		t.Errorf("rates after drop = %v, %v, want 5 each", rx, ry)
	}
}

// TestConcurrentNetworksIndependent drives several independent simulations on
// parallel goroutines — the isolation contract the parallel experiment
// harness depends on. Run under -race.
func TestConcurrentNetworksIndependent(t *testing.T) {
	const workers = 8
	rates := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			horizon := 60 * time.Second
			eng := sim.NewEngine(int64(w/2) + 1) // adjacent pairs share a seed: outputs must match
			net := New(eng, steppyMesh(horizon))
			net.Start()
			id, err := net.AddStream(fmt.Sprintf("w%d", w), "a", "b", 25)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := net.AddTransfer("t", "a", "d", 10e6, 0, nil); err != nil {
				t.Error(err)
				return
			}
			eng.Every(time.Second, func() {
				r, err := net.StreamRate(id)
				if err != nil {
					t.Error(err)
					return
				}
				rates[w] = append(rates[w], r)
			})
			if err := eng.Run(horizon); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w+2 <= workers; w += 2 {
		a, b := rates[w], rates[w+1]
		if len(a) != len(b) {
			t.Fatalf("workers %d/%d sample counts differ: %d vs %d", w, w+1, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers %d/%d diverge at sample %d: %v vs %v", w, w+1, i, a[i], b[i])
			}
		}
	}
}

// localRun is what one replay of the local-pass scenario observed.
type localRun struct {
	boundaries [][sha256.Size]byte // network digest after each executed event
	results    []TransferResult
	stats      AllocStats
}

// driveLocalScenario runs routed streams and a camera-like frame chain on
// steppyMesh: every 200 ms a frame is decoded on a node (a co-located
// transfer), whose callback ships it across the mesh (a routed transfer),
// whose callback post-processes it at the far end (co-located again). A
// co-located stream has its demand raised past LocalMbps and is removed, and
// a stream parked by a node crash is removed while the node is down. a-b is
// oversubscribed by an excess with a full mantissa, so its backlog grows by
// amounts whose float sum depends on where passes split the integral: a
// skipped settle shows in the digest.
//
// The capacity driver is not started. An absorbed pass settles nothing where
// a full pass settles every flow and link, so backlogs and carried bits
// differ in their last bits from a full-recompute run once a pass is
// absorbed. Without the driver no pass is absorbed, and capacities move only
// through ApplyTopologyState, which resamples the traces and forces a full
// pass.
func driveLocalScenario(t *testing.T, fullRecompute bool) localRun {
	t.Helper()
	const horizon = 60 * time.Second
	eng := sim.NewEngine(3)
	net := New(eng, steppyMesh(horizon))
	net.SetFullRecompute(fullRecompute)

	var run localRun
	lastExec := ^uint64(0)
	eng.BeforeDispatch(func() {
		if eng.Executed() != lastExec {
			lastExec = eng.Executed()
			run.boundaries = append(run.boundaries, digestNetwork(net))
		}
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	addStream := func(tag, src, dst string, mbps float64) FlowID {
		id, err := net.AddStream(tag, src, dst, mbps)
		must(err)
		return id
	}
	addStream("s1", "a", "b", 47.123456789)
	addStream("s2", "a", "c", 10)
	addStream("s3", "b", "c", 15)
	parked := addStream("parked", "a", "d", 5)
	bus := addStream("bus", "b", "b", 50)

	addTransfer := func(tag, src, dst string, bytes float64, done func(TransferResult)) {
		_, err := net.AddTransfer(tag, src, dst, bytes, 0, func(r TransferResult) {
			run.results = append(run.results, r)
			if done != nil && !r.Failed {
				done(r)
			}
		})
		must(err)
	}
	frame := 0
	stopFrames := eng.Every(200*time.Millisecond, func() {
		frame++
		src, dst := "c", "a"
		if frame%2 == 0 {
			src, dst = "b", "c"
		}
		tag := fmt.Sprintf("frame%d", frame)
		addTransfer(tag+"/decode", src, src, 2e6, func(TransferResult) {
			addTransfer(tag+"/ship", src, dst, 1e5, func(TransferResult) {
				addTransfer(tag+"/post", dst, dst, 5e5, nil)
			})
		})
	})
	defer stopFrames()

	eng.At(12*time.Second, func() { must(net.SetStreamDemand(bus, 2*LocalMbps)) })
	eng.At(25*time.Second, func() {
		must(net.topo.SetNodeUp("d", false))
		net.ApplyTopologyState()
	})
	eng.At(27*time.Second, func() { must(net.RemoveStream(parked)) })
	eng.At(30*time.Second, func() {
		must(net.topo.SetNodeUp("d", true))
		net.ApplyTopologyState()
	})
	eng.At(40*time.Second, func() { must(net.RemoveStream(bus)) })
	must(eng.Run(horizon))
	run.boundaries = append(run.boundaries, digestNetwork(net))
	run.stats = net.AllocStats()
	return run
}

// TestLocalPassMatchesFullRecompute: co-located and parked churn take the
// local pass, which must leave the network bit-equal to the full pass it
// replaces: at every dispatch boundary, and in every transfer result.
func TestLocalPassMatchesFullRecompute(t *testing.T) {
	local := driveLocalScenario(t, false)
	full := driveLocalScenario(t, true)
	if local.stats.LocalPasses == 0 || local.stats.SkippedPasses != 0 {
		t.Errorf("AllocStats %+v: want local passes and no absorbed pass", local.stats)
	}
	if full.stats.LocalPasses != 0 {
		t.Errorf("full-recompute run ran %d local passes, want 0", full.stats.LocalPasses)
	}
	t.Logf("local run %+v, full-recompute run %+v", local.stats, full.stats)
	if len(local.results) != len(full.results) {
		t.Fatalf("%d transfer results, full recompute %d", len(local.results), len(full.results))
	}
	for i := range local.results {
		if local.results[i] != full.results[i] {
			t.Fatalf("transfer result %d: %+v, full recompute %+v", i, local.results[i], full.results[i])
		}
	}
	if len(local.boundaries) != len(full.boundaries) {
		t.Fatalf("%d dispatch boundaries, full recompute %d", len(local.boundaries), len(full.boundaries))
	}
	for i := range local.boundaries {
		if local.boundaries[i] != full.boundaries[i] {
			t.Fatalf("dispatch boundary %d: network digest differs from full recompute", i)
		}
	}
}
