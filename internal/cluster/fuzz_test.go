package cluster

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// The fuzz cluster: four nodes (one unschedulable) and three apps. "app" +
// "/" + "x/a" and "app/x" + "/" + "a" spell the same flat "app/component"
// key, so the index must keep apps apart by structure, not by string joins.
var (
	fuzzNodes = []Node{
		{Name: "n0", CPU: 2, MemoryMB: 1024},
		{Name: "n1", CPU: 3, MemoryMB: 2048},
		{Name: "n2", CPU: 1, MemoryMB: 512},
		{Name: "ctl", CPU: 4, MemoryMB: 4096, Unschedulable: true},
	}
	fuzzApps  = []string{"app", "app/x", "cam"}
	fuzzComps = []string{"a", "b", "x/a", "c"}
)

const (
	opPlace = iota
	opRemove
	opMove
	opCordon // toggles: cordon an open node, uncordon a cordoned one
	numOps
)

// fuzzOp is one decoded operation: indices into the fuzz tables, with cpu in
// half cores and mem in 256 MB steps (exact in binary, so free capacity
// compares exactly).
type fuzzOp struct{ kind, app, comp, node, cpu, mem int }

func (o fuzzOp) placement() Placement {
	return Placement{App: fuzzApps[o.app], Component: fuzzComps[o.comp], Node: fuzzNodes[o.node].Name,
		CPU: float64(o.cpu) / 2, MemoryMB: float64(o.mem) * 256}
}

// encodeOps is the inverse of decodeOps, for writing seeds by hand.
func encodeOps(ops ...fuzzOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, byte(o.kind), byte(o.app+3*o.comp), byte(o.node+4*o.cpu+16*o.mem))
	}
	return b
}

// maxFuzzOps bounds one input: twelve slots and four nodes need only short
// sequences, and a cap keeps every execution (and so minimisation) fast.
const maxFuzzOps = 64

func decodeOps(b []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(b) >= 3 && len(ops) < maxFuzzOps; b = b[3:] {
		ops = append(ops, fuzzOp{
			kind: int(b[0]) % numOps,
			app:  int(b[1]) % 3, comp: int(b[1]) / 3 % 4,
			node: int(b[2]) % 4, cpu: int(b[2]) / 4 % 4, mem: int(b[2]) / 16 % 4,
		})
	}
	return ops
}

// refCluster is the brute-force reference: the placements the operation log
// has produced, in log order, and the cordon set. Every query is a full scan
// plus a sort; nothing is indexed.
type refCluster struct {
	placed   []Placement
	cordoned map[string]bool
}

func (r *refCluster) find(app, comp string) int {
	for i, p := range r.placed {
		if p.App == app && p.Component == comp {
			return i
		}
	}
	return -1
}

func (r *refCluster) used(node string) (cpu, mem float64) {
	for _, p := range r.placed {
		if p.Node == node {
			cpu += p.CPU
			mem += p.MemoryMB
		}
	}
	return cpu, mem
}

// fits mirrors the placement rules: open node, zero-resource only on
// unschedulable hosts, capacity left.
func (r *refCluster) fits(p Placement) bool {
	if r.cordoned[p.Node] {
		return false
	}
	for _, n := range fuzzNodes {
		if n.Name != p.Node {
			continue
		}
		if n.Unschedulable {
			return p.CPU == 0 && p.MemoryMB == 0
		}
		cpu, mem := r.used(n.Name)
		return n.CPU-cpu >= p.CPU && n.MemoryMB-mem >= p.MemoryMB
	}
	return false
}

func (r *refCluster) remove(i int) { r.placed = append(r.placed[:i], r.placed[i+1:]...) }

// apply runs one operation on c and on the reference, and reports whether
// the cluster accepted it as the reference predicts.
func (r *refCluster) apply(c *Cluster, o fuzzOp) error {
	p := o.placement()
	switch o.kind {
	case opPlace:
		want := r.find(p.App, p.Component) < 0 && r.fits(p)
		if err := c.Place(p); (err == nil) != want {
			return errors.Join(errors.New("Place outcome differs from the reference"), err)
		}
		if want {
			r.placed = append(r.placed, p)
		}
	case opRemove:
		i := r.find(p.App, p.Component)
		if err := c.Remove(p.App, p.Component); (err == nil) != (i >= 0) {
			return errors.Join(errors.New("Remove outcome differs from the reference"), err)
		}
		if i >= 0 {
			r.remove(i)
		}
	case opMove:
		i := r.find(p.App, p.Component)
		err := c.Move(p.App, p.Component, p.Node)
		if i < 0 {
			if !errors.Is(err, ErrNotPlaced) {
				return errors.Join(errors.New("Move of an unplaced component did not fail"), err)
			}
			return nil
		}
		orig := r.placed[i]
		r.remove(i)
		moved := orig
		moved.Node = p.Node
		ok := r.fits(moved)
		switch {
		case ok:
			r.placed = append(r.placed, moved)
		case r.fits(orig):
			r.placed = append(r.placed, orig)
		}
		if (err == nil) != ok {
			return errors.Join(errors.New("Move outcome differs from the reference"), err)
		}
	case opCordon:
		node := p.Node
		if r.cordoned[node] {
			delete(r.cordoned, node)
			return c.Uncordon(node)
		}
		r.cordoned[node] = true
		return c.Cordon(node)
	}
	return nil
}

// check compares every read the index serves against the reference.
func (r *refCluster) check(t *testing.T, c *Cluster, step string) {
	t.Helper()
	want := append([]Placement(nil), r.placed...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].App != want[j].App {
			return want[i].App < want[j].App
		}
		return want[i].Component < want[j].Component
	})
	if got := c.Placements(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Placements = %v, want %v", step, got, want)
	}
	nodes := []string{"ghost"}
	for _, n := range fuzzNodes {
		nodes = append(nodes, n.Name)
	}
	for _, app := range append([]string{"ghost"}, fuzzApps...) {
		var comps []string
		for _, p := range want {
			if p.App == app {
				comps = append(comps, p.Component)
			}
		}
		if got := c.AppComponents(app); len(got)+len(comps) > 0 && !reflect.DeepEqual(got, comps) {
			t.Fatalf("%s: AppComponents(%q) = %v, want %v", step, app, got, comps)
		}
		for _, node := range nodes {
			var on []string
			for _, p := range want {
				if p.App == app && p.Node == node {
					on = append(on, p.Component)
				}
			}
			if got := c.ComponentsOn(app, node); len(got)+len(on) > 0 && !reflect.DeepEqual(got, on) {
				t.Fatalf("%s: ComponentsOn(%q, %q) = %v, want %v", step, app, node, got, on)
			}
		}
		for _, comp := range append([]string{"ghost"}, fuzzComps...) {
			var ref Placement
			if i := r.find(app, comp); i >= 0 {
				ref = r.placed[i]
			}
			if got := c.NodeOf(app, comp); got != ref.Node {
				t.Fatalf("%s: NodeOf(%q, %q) = %q, want %q", step, app, comp, got, ref.Node)
			}
			got, err := c.PlacementOf(app, comp)
			if ref.Node == "" {
				if !errors.Is(err, ErrNotPlaced) {
					t.Fatalf("%s: PlacementOf(%q, %q) = %v, %v; want ErrNotPlaced", step, app, comp, got, err)
				}
			} else if err != nil || got != ref {
				t.Fatalf("%s: PlacementOf(%q, %q) = %v, %v; want %v", step, app, comp, got, err, ref)
			}
		}
	}
	for _, n := range fuzzNodes {
		cpu, mem := r.used(n.Name)
		if got := c.FreeCPU(n.Name); math.Abs(got-(n.CPU-cpu)) > 1e-9 {
			t.Fatalf("%s: FreeCPU(%q) = %v, want %v", step, n.Name, got, n.CPU-cpu)
		}
		if got := c.FreeMemoryMB(n.Name); math.Abs(got-(n.MemoryMB-mem)) > 1e-9 {
			t.Fatalf("%s: FreeMemoryMB(%q) = %v, want %v", step, n.Name, got, n.MemoryMB-mem)
		}
		if got := c.Cordoned(n.Name); got != r.cordoned[n.Name] {
			t.Fatalf("%s: Cordoned(%q) = %v, want %v", step, n.Name, got, r.cordoned[n.Name])
		}
	}
}

// FuzzClusterIndexMatchesScan drives random Place/Remove/Move/Cordon
// sequences and, after every operation, checks each per-app and
// per-component read of the index against a brute-force scan of the
// reference.
func FuzzClusterIndexMatchesScan(f *testing.F) {
	place := func(app, comp, node, cpu, mem int) fuzzOp { return fuzzOp{opPlace, app, comp, node, cpu, mem} }
	op := func(kind, app, comp, node int) fuzzOp { return fuzzOp{kind: kind, app: app, comp: comp, node: node} }
	// TestPlaceAndFree, TestComponentsOnAndPlacements.
	f.Add(encodeOps(place(0, 0, 0, 2, 1), op(opRemove, 0, 0, 0), place(0, 1, 0, 1, 0), place(0, 0, 0, 1, 0)))
	// TestPlaceErrors: unschedulable host, zero-resource endpoint, oversize, double place.
	f.Add(encodeOps(place(0, 0, 3, 1, 0), place(0, 3, 3, 0, 0), place(0, 0, 2, 3, 0),
		place(0, 0, 2, 1, 0), place(0, 0, 2, 1, 0), op(opRemove, 0, 1, 0)))
	// TestMove, TestMoveFailureRestores, TestMoveToCordonedNodeRestores.
	f.Add(encodeOps(place(1, 0, 0, 2, 1), op(opMove, 1, 0, 1), place(1, 1, 1, 3, 0), op(opMove, 1, 0, 2),
		op(opCordon, 0, 0, 0), op(opMove, 1, 0, 0)))
	// TestMoveRestoreFailure: both ends cordoned, the component is dropped.
	f.Add(encodeOps(place(2, 2, 0, 2, 0), op(opCordon, 0, 0, 0), op(opCordon, 0, 0, 1), op(opMove, 2, 2, 1),
		op(opCordon, 0, 0, 0), place(2, 2, 0, 2, 0)))
	// TestCordon.
	f.Add(encodeOps(op(opCordon, 0, 0, 1), place(0, 0, 1, 0, 0), op(opCordon, 0, 0, 1),
		place(0, 0, 1, 1, 0), op(opRemove, 0, 0, 1)))
	// The flat-key collision: app/x/a placed twice under different apps.
	f.Add(encodeOps(place(0, 2, 0, 1, 0), place(1, 0, 1, 1, 0), op(opRemove, 0, 2, 0),
		op(opMove, 1, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(fuzzNodes...)
		ref := &refCluster{cordoned: make(map[string]bool)}
		for i, o := range decodeOps(data) {
			step := "op " + strconv.Itoa(i)
			if err := ref.apply(c, o); err != nil {
				t.Fatalf("%s %+v: %v", step, o, err)
			}
			ref.check(t, c, step)
		}
	})
}
