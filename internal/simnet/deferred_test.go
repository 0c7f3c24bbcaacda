package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

// TestMutationsBetweenDispatchesCostOnePass: mutations only mark the network
// pending, so twelve AddStreams with no read in between cost one full pass,
// while a read after each forces the pass per mutation. A full pass is a pure
// function of the flow set and capacities and no simulated time passes
// between the mutations, so both schedules give bit-equal rates.
func TestMutationsBetweenDispatchesCostOnePass(t *testing.T) {
	build := func(readEach bool) ([]float64, uint64) {
		topo := scenarioGrid(t, time.Minute)
		eng := sim.NewEngine(5)
		net := New(eng, topo)
		net.Start()
		base := net.AllocStats().FullPasses
		var ids []FlowID
		for i := 0; i < 12; i++ {
			id, err := net.AddStream("s", mesh.GridNodeName(0, i%6), mesh.GridNodeName(5, (i*7)%6), float64(5+i))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			if readEach {
				if _, err := net.StreamRate(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		passes := net.AllocStats().FullPasses - base
		rates := make([]float64, len(ids))
		for i, id := range ids {
			r, err := net.StreamRate(id)
			if err != nil {
				t.Fatal(err)
			}
			rates[i] = r
		}
		return rates, passes
	}
	deferred, deferredPasses := build(false)
	eager, eagerPasses := build(true)
	if deferredPasses != 1 {
		t.Errorf("12 adds with no read ran %d full passes, want 1", deferredPasses)
	}
	if eagerPasses != 12 {
		t.Errorf("12 adds with a read after each ran %d full passes, want 12", eagerPasses)
	}
	for i := range deferred {
		if math.Float64bits(deferred[i]) != math.Float64bits(eager[i]) {
			t.Fatalf("flow %d: deferred rate %v != eager %v", i, deferred[i], eager[i])
		}
	}
}

// deferredRun is what one replay of the deferred-pass script observed.
type deferredRun struct {
	boundaries [][sha256.Size]byte // network digest at each dispatch boundary
	log        []string            // mutation outcomes and transfer callbacks, in order
	passes     uint64              // full and local passes run
	sharedTime bool                // some handler ran at the same virtual time as another
}

// digestNetwork hashes everything a reader can observe: every live flow's
// rate, every direction's AllLinkStats, BytesByTag, and the fault counters.
// Float fields go in by Float64bits, so equality means bit-equality.
func digestNetwork(net *Network) [sha256.Size]byte {
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(int64(net.eng.Now()))
	for _, ls := range net.AllLinkStats() {
		h.Write([]byte(ls.From + ">" + ls.To))
		for _, f := range []float64{ls.CapacityMbps, ls.DemandMbps, ls.AllocatedMbps, ls.BacklogKB, ls.CarriedMB} {
			putF(f)
		}
	}
	for _, f := range liveFlows(net) {
		put(uint64(f.id))
		putF(f.rateBps)
	}
	bytes := net.BytesByTag()
	tags := make([]string, 0, len(bytes))
	for tag := range bytes {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		h.Write([]byte(tag))
		putF(bytes[tag])
	}
	streams, transfers := net.ActiveFlows()
	put([]int64{int64(streams), int64(transfers), int64(net.FailedTransfers()), int64(net.ParkedFlows())})
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// replayDeferredScript drives a seeded random mutation script on the 6x6
// grid: handlers at equal and distinct virtual times mixing AddStream,
// RemoveStream, SetStreamDemand, AddTransfer (some completion callbacks
// start follow-up transfers), CancelTransfer, and link flaps reconciled by
// ApplyTopologyState. With eager set, every mutation is followed by a read,
// which forces the pass right there — the one-pass-per-mutation schedule.
// Without it, nothing is read mid-handler and each handler's mutations
// share one deferred pass.
func replayDeferredScript(t *testing.T, seed int64, eager bool) deferredRun {
	t.Helper()
	const horizon = 90 * time.Second
	topo := scenarioGrid(t, horizon)
	eng := sim.NewEngine(seed)
	net := New(eng, topo)
	stop := net.Start()
	defer stop()

	var run deferredRun
	logf := func(format string, args ...any) {
		run.log = append(run.log, fmt.Sprintf("%v ", eng.Now())+fmt.Sprintf(format, args...))
	}
	observe := func() {
		if eager {
			net.ActiveFlows()
		}
	}
	// Record the network once per executed event: Run also reaches a
	// boundary after reaping a cancelled event, and the eager run cancels
	// more completion events than the deferred one. The network registered
	// its flush first, so nothing may still be pending here; the reads below
	// would otherwise hide a missing flush. Every boundary also checks the
	// per-pass link caches and the kept demand order against rescans.
	lastExec := ^uint64(0)
	eng.BeforeDispatch(func() {
		if net.pending {
			t.Errorf("reallocation still pending at the dispatch boundary after event %d", eng.Executed())
		}
		checkCachedReads(t, net)
		if eng.Executed() != lastExec {
			lastExec = eng.Executed()
			run.boundaries = append(run.boundaries, digestNetwork(net))
		}
	})

	rng := rand.New(rand.NewSource(seed))
	links := topo.Links()
	node := func() string { return mesh.GridNodeName(rng.Intn(6), rng.Intn(6)) }
	var streams, transfers []FlowID // live streams; every transfer ever started
	var down []mesh.LinkID
	seq := 0
	var done func(r TransferResult)
	startTransfer := func(tag, src, dst string, bytes, capMbps float64) {
		id, err := net.AddTransfer(tag, src, dst, bytes, capMbps, done)
		logf("add transfer %s %d %v", tag, id, err)
		if err == nil {
			transfers = append(transfers, id)
		}
		observe()
	}
	done = func(r TransferResult) {
		logf("done %s %d bits=%x failed=%v finished=%v", r.Tag, r.ID, math.Float64bits(r.Bits), r.Failed, r.Finished)
		if !r.Failed && r.ID%3 == 0 {
			// The callback starts a new flow from inside the completion event.
			startTransfer(r.Tag+"+", mesh.GridNodeName(int(r.ID)%6, 0), mesh.GridNodeName(5, int(r.ID)%6), 4e5, 0)
		}
	}
	handler := func() {
		for ops := 1 + rng.Intn(6); ops > 0; ops-- {
			seq++
			switch op := rng.Intn(10); {
			case op < 3:
				tag := fmt.Sprintf("s%d", seq)
				id, err := net.AddStream(tag, node(), node(), 2+rng.Float64()*18)
				logf("add stream %s %d %v", tag, id, err)
				if err == nil {
					streams = append(streams, id)
				}
				observe()
			case op == 3 && len(streams) > 0:
				i := rng.Intn(len(streams))
				logf("remove stream %d %v", streams[i], net.RemoveStream(streams[i]))
				streams = append(streams[:i], streams[i+1:]...)
				observe()
			case op == 4 && len(streams) > 0:
				id := streams[rng.Intn(len(streams))]
				logf("demand %d %v", id, net.SetStreamDemand(id, 1+rng.Float64()*25))
				observe()
			case op < 8:
				capMbps := 0.0
				if rng.Intn(2) == 0 {
					capMbps = 2 + float64(rng.Intn(18))
				}
				startTransfer(fmt.Sprintf("t%d", seq), node(), node(), 1e5+rng.Float64()*4e6, capMbps)
			case op == 8 && len(transfers) > 0:
				id := transfers[rng.Intn(len(transfers))]
				logf("cancel %d %v", id, net.CancelTransfer(id))
				observe()
			default:
				if len(down) > 0 && rng.Intn(2) == 0 {
					id := down[0]
					down = down[1:]
					if err := topo.SetLinkUp(id.A, id.B, true); err != nil {
						t.Fatal(err)
					}
				} else {
					id := links[rng.Intn(len(links))].ID
					if err := topo.SetLinkUp(id.A, id.B, false); err != nil {
						t.Fatal(err)
					}
					down = append(down, id)
				}
				net.ApplyTopologyState()
				logf("flap %v", down)
				observe()
			}
		}
	}
	// Times come from a coarse grid so handlers often share an instant.
	seen := map[time.Duration]bool{}
	for i := 0; i < 60; i++ {
		at := time.Duration(rng.Intn(60))*time.Second + time.Duration(rng.Intn(2))*500*time.Millisecond
		run.sharedTime = run.sharedTime || seen[at]
		seen[at] = true
		eng.At(at, handler)
	}
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	run.boundaries = append(run.boundaries, digestNetwork(net))
	stats := net.AllocStats()
	run.passes = stats.FullPasses + stats.LocalPasses
	return run
}

// TestDeferredPassMatchesEagerReads is the differential gate for deferred
// reallocation: a run that forces a pass after every mutation and a run that
// reads nothing mid-handler must agree bit for bit at every dispatch
// boundary, and see the same transfer completions at the same times.
func TestDeferredPassMatchesEagerReads(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			eager := replayDeferredScript(t, seed, true)
			deferred := replayDeferredScript(t, seed, false)
			if len(eager.log) != len(deferred.log) {
				t.Fatalf("log lengths differ: eager %d, deferred %d", len(eager.log), len(deferred.log))
			}
			for i := range eager.log {
				if eager.log[i] != deferred.log[i] {
					t.Fatalf("log entry %d: eager %q != deferred %q", i, eager.log[i], deferred.log[i])
				}
			}
			if len(eager.boundaries) != len(deferred.boundaries) {
				t.Fatalf("boundary counts differ: eager %d, deferred %d", len(eager.boundaries), len(deferred.boundaries))
			}
			for i := range eager.boundaries {
				if eager.boundaries[i] != deferred.boundaries[i] {
					t.Fatalf("boundary %d: network digests differ", i)
				}
			}
			// The comparison is only meaningful if the schedules differed and
			// the script exercised what it claims to.
			if deferred.passes >= eager.passes {
				t.Errorf("deferred run took %d passes, eager %d; want fewer", deferred.passes, eager.passes)
			}
			if !deferred.sharedTime {
				t.Error("no two handlers shared a virtual time")
			}
			var completions, chained int
			for _, l := range deferred.log {
				if strings.Contains(l, " done ") {
					completions++
					if strings.Contains(l, "+ ") {
						chained++
					}
				}
			}
			if completions == 0 || chained == 0 {
				t.Errorf("script completed %d transfers (%d chained); want both > 0", completions, chained)
			}
		})
	}
}

// goldenDeferredScript pins replayDeferredScript per seed, {eager, deferred}:
// the SHA-256 of every boundary digest, every log line and the count of
// passes run (full and local). The per-pass allocation cache, the tag table,
// the kept demand order and the local pass left every read bit-equal. The
// literals were re-captured once, when progress stopped sweeping streams:
// a stream now folds its bits per constant-rate interval and a direction
// accrues allocBps × dt (unclipped at a transfer's last bit), which moves
// BytesByTag and CarriedMB in their last bits. With those two reads left
// out of digestNetwork, all six digests equal the ones before that change.
var goldenDeferredScript = map[int64][2]string{
	3:  {"c6402db74efdb6ed3fd8ac2f0a8c4939994092bb3cbd8ff9f860314a2ec67b20", "d0303632f5a180483609e64df8d4e506f84ed75f2063cc74d1c171605b7baa11"},
	11: {"492278b62c2ff8884775bd773433a70a411f6fbd58f4dc7b1bc8316cb3a55fb7", "9178e24c59c9fc458399827d0570ad0ed66028589858ea9ff27e2f7d976e4fce"},
	29: {"68050f39b086203e1f0473f9108bffb6174aa3cc893f96b67f9e37cf429b3711", "f4bad64fe205f0285659476213d5ebe067558b8dd6caef6e449ebf14095f5eda"},
}

// hashDeferredRun folds one replay into a hex SHA-256.
func hashDeferredRun(run deferredRun) string {
	h := sha256.New()
	for _, b := range run.boundaries {
		h.Write(b[:])
	}
	for _, l := range run.log {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	binary.Write(h, binary.LittleEndian, run.passes)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeferredScriptGolden checks both schedules of the deferred-pass script
// against the literals above.
func TestDeferredScriptGolden(t *testing.T) {
	for seed, want := range goldenDeferredScript {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			for i, eager := range []bool{true, false} {
				if got := hashDeferredRun(replayDeferredScript(t, seed, eager)); got != want[i] {
					t.Errorf("eager=%v: script digest %s, want golden %s", eager, got, want[i])
				}
			}
		})
	}
}

// TestDeferredPassRunsCallbackMutations: a pass that finishes a transfer on
// the spot (here a zero-byte one) runs its callback, which starts another
// transfer and so requests another pass. The flush must run that pass too,
// at the same instant, before the engine moves the clock on.
func TestDeferredPassRunsCallbackMutations(t *testing.T) {
	topo := scenarioGrid(t, time.Minute)
	eng := sim.NewEngine(9)
	net := New(eng, topo)
	net.Start()
	eng.BeforeDispatch(func() {
		if net.pending {
			t.Errorf("reallocation still pending at the dispatch boundary at %v", eng.Now())
		}
	})
	src, dst := mesh.GridNodeName(0, 0), mesh.GridNodeName(0, 1)
	var started, finished time.Duration
	var rate float64
	eng.At(time.Second, func() {
		_, err := net.AddTransfer("zero", src, dst, 0, 0, func(TransferResult) {
			started = eng.Now()
			if _, err := net.AddTransfer("next", src, dst, 1e6, 4, func(r TransferResult) { finished = r.Finished }); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.At(1500*time.Millisecond, func() { rate = net.FlowRateByTag("next") })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if started != time.Second {
		t.Fatalf("zero-byte transfer completed at %v, want 1s", started)
	}
	if rate != 4 {
		t.Errorf("follow-up transfer rate at 1.5s = %v Mbps, want its 4 Mbps cap", rate)
	}
	if want := time.Second + 2*time.Second; finished != want {
		t.Errorf("follow-up transfer finished at %v, want %v (8 Mbit at 4 Mbps from 1s)", finished, want)
	}
}

// TestCompletionCallbackReadsFreedShare: a finished transfer hands its share
// of the link back before its completion callback runs, so a read inside the
// callback sees its neighbours' new rates. An 8 Mbps stream beside a 1 MB
// transfer on a 10 Mbps line gets 5 Mbps while the transfer runs and reads
// its full 8 Mbps demand inside the transfer's callback.
func TestCompletionCallbackReadsFreedShare(t *testing.T) {
	eng, net := lineNet(t, 10)
	stream, err := net.AddStream("stream", "a", "b", 8)
	if err != nil {
		t.Fatal(err)
	}
	during, inCallback := -1.0, -1.0
	if _, err := net.AddTransfer("xfer", "a", "b", 1e6, 0, func(TransferResult) {
		if inCallback, err = net.StreamRate(stream); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.At(time.Second, func() { during, _ = net.StreamRate(stream) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if during != 5 {
		t.Errorf("stream rate beside the transfer = %v Mbps, want the 5 Mbps fair share", during)
	}
	if inCallback != 8 {
		t.Errorf("stream rate read in the transfer's completion callback = %v Mbps, want its 8 Mbps demand", inCallback)
	}
}
