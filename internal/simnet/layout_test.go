//go:build !race

package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

// Excluded from -race runs, like bench_test.go: the race detector allocates
// on its own account.

// TestTransferAllocatesNothing pins the transfer's layout: once the slabs
// have a slot for it, a transfer from AddTransfer to its completion callback
// — a routed one on the ring beside 120 streams and a co-located one, each
// through its passes — allocates nothing. The flow record takes a freed
// slot, its path is appended to the arena, and the transfer side takes a
// freed slot whose completion closure was built the first time.
func TestTransferAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, ringMesh(false))
	stop := net.Start()
	defer stop()
	addRingStreams(t, net, 120)
	done := 0
	onDone := func(r TransferResult) {
		if !r.Failed {
			done++
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := net.AddTransfer("rpc/n0->n3", "n0", "n3", 1e5, 0, onDone); err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddTransfer("rpc/n2->n2", "n2", "n2", 1e5, 0, onDone); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(eng.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a transfer pair from start to finish allocates %.2f times, want 0", allocs)
	}
	if want := 2 * 51; done != want { // AllocsPerRun runs once more to warm up
		t.Errorf("%d transfers completed, want %d", done, want)
	}
}

// TestGridInstallHeapPerStream pins what a static stream costs: 20k
// near-local streams installed on the 32×32 grid, each with its own tag as
// city-flows installs them, hold at most 300 live heap bytes apiece, counting
// the tag and endpoint names the network keeps and the fill's flow side. The
// 160-byte pointer records, per-flow path slices, tag map and slab, per-tag
// flow lists and FlowID map held 445 here. The mesh's route trees are warmed by
// a first install, so they count on neither side.
func TestGridInstallHeapPerStream(t *testing.T) {
	const rows, cols, streams = 32, 32, 20_000
	topo, err := mesh.Grid(mesh.GridOptions{Rows: rows, Cols: cols, Seed: 42, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	install := func(net *Network) {
		rng := rand.New(rand.NewSource(7))
		net.Batch(func() {
			for i := 0; i < streams; i++ {
				sr, sc := rng.Intn(rows), rng.Intn(cols)
				dr, dc := rng.Intn(rows), rng.Intn(cols)
				if rng.Float64() < 0.9 {
					dr, dc = min(max(sr+rng.Intn(5)-2, 0), rows-1), min(max(sc+rng.Intn(5)-2, 0), cols-1)
				}
				if dr == sr && dc == sc {
					dc = (dc + 1) % cols
				}
				if _, err := net.AddStream(fmt.Sprintf("scale/%d", i),
					mesh.GridNodeName(sr, sc), mesh.GridNodeName(dr, dc), 0.25+float64(i%3)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	install(New(sim.NewEngine(42), topo))
	net := New(sim.NewEngine(42), topo)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	install(net)
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / streams
	if s, _ := net.ActiveFlows(); s != streams {
		t.Fatalf("%d streams live, want %d", s, streams)
	}
	t.Logf("%.1f live heap bytes per stream", per)
	if per > 300 {
		t.Errorf("a stream holds %.1f live heap bytes, want at most 300", per)
	}
	runtime.KeepAlive(net)
}
