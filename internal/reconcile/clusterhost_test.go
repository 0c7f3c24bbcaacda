package reconcile

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/obs"
)

// clusterHost is a Host whose observed state is a real cluster.Cluster, so
// the reconciler sees exactly the lists the orchestrator hands it —
// including any aliasing between ObservedComponents and later evictions.
type clusterHost struct {
	now  time.Duration
	rng  *rand.Rand
	clus *cluster.Cluster

	evicted []string // "app/comp", in eviction order
}

func newClusterHost(t testing.TB, nodes int) *clusterHost {
	t.Helper()
	ns := make([]cluster.Node, nodes)
	for i := range ns {
		ns[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), CPU: 64, MemoryMB: 65536}
	}
	c, err := cluster.New(ns...)
	if err != nil {
		t.Fatal(err)
	}
	return &clusterHost{rng: rand.New(rand.NewSource(1)), clus: c}
}

func (h *clusterHost) Now() time.Duration              { return h.now }
func (h *clusterHost) Rand() *rand.Rand                { return h.rng }
func (h *clusterHost) After(time.Duration, func())     {}
func (h *clusterHost) NodeDownCause(string) uint64     { return 0 }
func (h *clusterHost) ObservedNode(a, c string) string { return h.clus.NodeOf(a, c) }

func (h *clusterHost) ObservedComponents(app string) []string {
	return h.clus.AppComponents(app)
}

func (h *clusterHost) NodeHealthy(node string) bool {
	_, err := h.clus.Node(node)
	return err == nil && !h.clus.Cordoned(node)
}

// Place lands the component on the first schedulable node it fits.
func (h *clusterHost) Place(a Action) (string, error) {
	if node := h.clus.NodeOf(a.App, a.Component); node != "" && h.NodeHealthy(node) {
		return node, nil
	}
	for _, node := range h.clus.SchedulableNodes() {
		if h.clus.Fits(node, compCPU, compMemMB) {
			return node, h.place(a.App, a.Component, node)
		}
	}
	return "", cluster.ErrInsufficient
}

const compCPU, compMemMB = 0.5, 64

func (h *clusterHost) place(app, comp, node string) error {
	return h.clus.Place(cluster.Placement{App: app, Component: comp, Node: node, CPU: compCPU, MemoryMB: compMemMB})
}

func (h *clusterHost) Evict(app, comp string, cause uint64) error {
	if err := h.clus.Remove(app, comp); err != nil {
		return err
	}
	h.evicted = append(h.evicted, app+"/"+comp)
	return nil
}

func (h *clusterHost) Shed(app string, cause uint64) {
	for _, comp := range append([]string(nil), h.clus.AppComponents(app)...) {
		_ = h.clus.Remove(app, comp)
	}
}

func newClusterReconciler(h *clusterHost) (*Reconciler, *obs.Plane) {
	return newReconcilerOn(h, func() time.Duration { return h.now })
}

// TestShedAppStragglersAllEvictedInOneTick pins the shed branch of scan: every
// straggler of a shed app is evicted in a single tick, even though each
// eviction shrinks the cluster's list of the app's components mid-walk.
func TestShedAppStragglersAllEvictedInOneTick(t *testing.T) {
	h := newClusterHost(t, 2)
	r, plane := newClusterReconciler(h)
	r.SetSpec(spec1("hi", 2, "a"))
	r.SetSpec(spec1("lo", 0, "a", "b", "c", "d"))
	if err := h.place("hi", "a", "n0"); err != nil {
		t.Fatal(err)
	}
	// lo was shed earlier; an external path has since put four of its
	// components back.
	r.specs["lo"].shed = true
	for _, comp := range []string{"d", "b", "a", "c"} {
		if err := h.place("lo", comp, "n1"); err != nil {
			t.Fatal(err)
		}
	}
	r.Tick()
	want := []string{"lo/a", "lo/b", "lo/c", "lo/d"}
	if !reflect.DeepEqual(h.evicted, want) {
		t.Fatalf("evictions = %v, want %v", h.evicted, want)
	}
	if left := h.clus.AppComponents("lo"); len(left) != 0 {
		t.Fatalf("shed app still has %v after one tick", left)
	}
	var acts []string
	for _, ev := range eventsOf(plane, obs.EventReconcileAction) {
		acts = append(acts, ev.App+"/"+ev.Component)
	}
	if !reflect.DeepEqual(acts, want) {
		t.Fatalf("eviction actions journaled = %v, want %v", acts, want)
	}
}

// TestUnexpectedComponentsAllEvictedInOneTick pins the unexpected-component
// branch of scan: several components no spec asks for are all evicted in one
// tick, in sorted order, each behind its own drift record.
func TestUnexpectedComponentsAllEvictedInOneTick(t *testing.T) {
	h := newClusterHost(t, 2)
	r, plane := newClusterReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera", "filter"))
	for _, comp := range []string{"zeta", "camera", "alpha", "filter", "ghost"} {
		if err := h.place("cam", comp, "n0"); err != nil {
			t.Fatal(err)
		}
	}
	r.Tick()
	want := []string{"cam/alpha", "cam/ghost", "cam/zeta"}
	if !reflect.DeepEqual(h.evicted, want) {
		t.Fatalf("evictions = %v, want %v", h.evicted, want)
	}
	if got := h.clus.AppComponents("cam"); !reflect.DeepEqual(got, []string{"camera", "filter"}) {
		t.Fatalf("cam components after tick = %v, want [camera filter]", got)
	}
	var drifts []string
	for _, ev := range eventsOf(plane, obs.EventReconcileDrift) {
		if ev.Reason != string(driftUnexpected) || ev.Node != "n0" {
			t.Fatalf("drift %+v, want unexpected on n0", ev)
		}
		drifts = append(drifts, ev.App+"/"+ev.Component)
	}
	if !reflect.DeepEqual(drifts, want) {
		t.Fatalf("unexpected drifts = %v, want %v", drifts, want)
	}
	if !r.Converged() {
		t.Fatal("evictions must leave the system converged")
	}
}
