package netmon

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bass/internal/mesh"
	"bass/internal/trace"
)

// oracleGridNames places shuffled names on a 3×3 grid, row-major. Routes
// break min-hop ties by neighbour name, so with names out of geometric order
// the route from a to b and the route from b to a cross different links for
// several pairs — the case in which a transposed table index answers with
// the reverse direction's bottleneck.
var oracleGridNames = [9]string{"n0", "n2", "n7", "n6", "n8", "n5", "n3", "n4", "n1"}

// oracleGrid builds the shuffled 3×3 grid.
func oracleGrid() *mesh.Topology {
	topo := mesh.NewTopology()
	for _, n := range oracleGridNames {
		topo.AddNode(n)
	}
	capacity := trace.Constant("grid", time.Second, 10, 1)
	for i, n := range oracleGridNames {
		if i%3 < 2 {
			topo.MustAddLink(n, oracleGridNames[i+1], capacity, time.Millisecond)
		}
		if i+3 < len(oracleGridNames) {
			topo.MustAddLink(n, oracleGridNames[i+3], capacity, time.Millisecond)
		}
	}
	return topo
}

// spareReading is one link's outcome in a scripted headroom sweep.
type spareReading struct {
	mbps float64
	err  error
	skip bool // not probed this sweep
}

// scriptProber answers probes from values a script sets before each one.
type scriptProber struct {
	topo   *mesh.Topology
	cap    float64
	capErr error
	sweep  []spareReading // by position in topo.Links()
}

func (p *scriptProber) ProbeCapacity(mesh.LinkID) (float64, error) {
	return p.cap, p.capErr
}

func (p *scriptProber) ProbeSpareAll(visit func(id mesh.LinkID, spareMbps float64, err error)) {
	for i, l := range p.topo.Links() {
		if r := p.sweep[i]; !r.skip {
			visit(l.ID, r.mbps, r.err)
		}
	}
}

var errScriptedProbe = errors.New("scripted probe failure")

// runOracleScript drives a monitor over the shuffled grid through a script
// of (op, arg) byte pairs — full probes, headroom sweeps with varied spares
// and failures, capacity swaps, node and link availability flips — and after
// every op checks every ordered pair's PathMetrics against the uncached walk,
// bit for bit, with errors compared by nil-ness (the oracle normalises
// them). Every read must count as exactly one hit or one miss.
func runOracleScript(t *testing.T, script []byte) {
	topo := oracleGrid()
	links := topo.Links()
	p := &scriptProber{topo: topo, cap: 10, sweep: make([]spareReading, len(links))}
	m := New(topo, p, func() time.Duration { return 0 })
	names := oracleGridNames[:]
	for i := 0; i+1 < len(script) && i < 300; i += 2 {
		op, arg := script[i]%6, int(script[i+1])
		var what string
		switch op {
		case 0:
			l := links[arg%len(links)]
			p.cap, p.capErr = 5+float64(arg%40)*1.25, nil
			if arg%9 == 0 {
				p.capErr = errScriptedProbe
			}
			_ = m.FullProbe(l.ID)
			what = fmt.Sprintf("FullProbe(%s) cap=%v err=%v", l.ID, p.cap, p.capErr)
		case 1:
			for k := range p.sweep {
				p.sweep[k] = spareReading{mbps: float64((arg*(k+3))%37) * 0.5}
				if (arg+k)%11 == 0 {
					p.sweep[k].err = errScriptedProbe
				}
				p.sweep[k].skip = (arg+k)%13 == 0
			}
			m.HeadroomProbeAll()
			what = fmt.Sprintf("HeadroomProbeAll(arg=%d)", arg)
		case 2:
			l := links[arg%len(links)]
			if err := topo.SetCapacity(l.ID.A, l.ID.B, trace.Constant("swap", time.Second, float64(1+arg%30), 1)); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("SetCapacity(%s)", l.ID)
		case 3:
			n := names[arg%len(names)]
			if err := topo.SetNodeUp(n, !topo.NodeUp(n)); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("flip node %s", n)
		case 4:
			l := links[arg%len(links)]
			if err := topo.SetLinkUp(l.ID.A, l.ID.B, !topo.LinkUp(l.ID.A, l.ID.B)); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("flip link %s", l.ID)
		case 5:
			p.cap, p.capErr = 5+float64(arg%40)*1.25, nil
			_ = m.FullProbeAll()
			what = fmt.Sprintf("FullProbeAll cap=%v", p.cap)
		}
		before := m.OracleStats()
		reads := uint64(0)
		for _, a := range names {
			for _, b := range names {
				got, gotErr := m.PathMetrics(a, b)
				reads++
				want, wantErr := m.pathMetricsUncached(a, b)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("op %d %s: PathMetrics(%s, %s) err = %v, walk err = %v", i/2, what, a, b, gotErr, wantErr)
				}
				if wantErr != nil {
					want = PathMetrics{}
				}
				if got.Networked != want.Networked ||
					math.Float64bits(got.CapacityMbps) != math.Float64bits(want.CapacityMbps) ||
					math.Float64bits(got.SpareMbps) != math.Float64bits(want.SpareMbps) {
					t.Fatalf("op %d %s: PathMetrics(%s, %s) = %+v, walk = %+v", i/2, what, a, b, got, want)
				}
			}
		}
		after := m.OracleStats()
		if n := (after.Hits - before.Hits) + (after.Misses - before.Misses); n != reads {
			t.Fatalf("op %d %s: %d reads counted %d hits+misses", i/2, what, reads, n)
		}
	}
}

// oracleSeeds are hand-written scripts: probe everything, sweep, read; sweep
// again with other spares (a dropped invalidation serves the old ones);
// failures and skipped links mid-sweep; capacity swaps; a crashed node and
// a downed link that reroute pairs, and their recovery.
var oracleSeeds = [][]byte{
	{5, 20, 1, 7, 1, 8, 1, 7},
	{5, 3, 1, 5, 0, 4, 1, 9, 0, 18, 1, 10},
	{5, 10, 1, 11, 2, 3, 1, 11, 2, 7, 0, 7, 1, 12},
	{5, 1, 1, 2, 3, 4, 1, 3, 3, 4, 1, 4, 4, 5, 1, 6, 4, 5, 1, 6},
	{1, 9, 5, 0, 3, 0, 4, 2, 1, 13, 0, 2, 5, 39, 1, 1, 3, 0, 4, 2, 1, 2},
}

// TestOracleGridRoutesAsymmetric pins the fixture's premise: some pairs
// route over different links in their two directions.
func TestOracleGridRoutesAsymmetric(t *testing.T) {
	topo := oracleGrid()
	hops := func(a, b string) []mesh.LinkID {
		var ids []mesh.LinkID
		if err := topo.WalkRoute(a, b, func(_, _ string, l *mesh.Link) { ids = append(ids, l.ID) }); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	asym := 0
	for _, a := range oracleGridNames {
		for _, b := range oracleGridNames {
			back := hops(b, a)
			slices.Reverse(back)
			if !slices.Equal(hops(a, b), back) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("every pair routes symmetrically: a transposed oracle index would go unnoticed")
	}
	t.Logf("%d ordered pairs route asymmetrically", asym)
}

// FuzzPathOracleMatchesWalk checks the path oracle against the uncached
// route walk under fuzzed probe, capacity and availability scripts.
func FuzzPathOracleMatchesWalk(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(runOracleScript)
}

// TestPathEntrySize keeps a table entry at 32 bytes, two to a cache line: a
// candidate scan reads one column of entries per placed dependency.
func TestPathEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(pathEntry{}); size > 32 {
		t.Errorf("pathEntry is %d bytes, want at most 32", size)
	}
}
