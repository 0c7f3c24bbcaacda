package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/controller"
)

// TestAppShorthandIsOneEntryList pins Decode's rewrite: "app": K is the
// one-entry list "apps": [{K: {}}], and a spec with neither is camera.
func TestAppShorthandIsOneEntryList(t *testing.T) {
	for _, c := range []struct{ short, long string }{
		{`{"app": "camera"}`, `{"apps": [{"camera": {}}]}`},
		{`{"app": "socialnet"}`, `{"apps": [{"socialnet": {}}]}`},
		{`{"app": "videoconf"}`, `{"apps": [{"videoconf": {}}]}`},
		{`{}`, `{"apps": [{"camera": {}}]}`},
	} {
		short, err := Decode(strings.NewReader(c.short))
		if err != nil {
			t.Fatalf("%s: %v", c.short, err)
		}
		long, err := Decode(strings.NewReader(c.long))
		if err != nil {
			t.Fatalf("%s: %v", c.long, err)
		}
		if !reflect.DeepEqual(short, long) {
			t.Errorf("%s decodes to %+v, %s to %+v", c.short, short, c.long, long)
		}
	}
}

// TestLinksShapeTheBuiltMesh pins Build's links entries: a link entry sets
// both directions and an egress entry every outgoing direction of its node
// but no incoming one; phases play in order on a 1 s grid and repeat past
// their end.
func TestLinksShapeTheBuiltMesh(t *testing.T) {
	r, err := Build(Spec{Topology: "lan", HorizonSec: 60, Links: []Link{
		{A: "node1", B: "node2", Mbps: 30},
		{Egress: "node3", Phases: []Phase{{DurationSec: 10, Mbps: 5}, {DurationSec: 20, Mbps: 7}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sim.Close()
	for _, c := range []struct {
		from, to string
		atSec    int
		want     float64
	}{
		{"node1", "node2", 0, 30}, {"node2", "node1", 59, 30},
		{"node3", "node1", 0, 5}, {"node3", "node2", 9, 5}, {"node3", "node1", 10, 7}, {"node3", "node2", 29, 7},
		{"node3", "node1", 30, 5}, {"node3", "node2", 45, 7}, // the second cycle
		{"node1", "node3", 15, 1000}, {"node2", "node3", 0, 1000},
	} {
		got, err := r.Sim.Topo.CapacityAt(c.from, c.to, time.Duration(c.atSec)*time.Second)
		if err != nil || got != c.want {
			t.Errorf("%s->%s at %d s: %v Mbps (%v), want %v", c.from, c.to, c.atSec, got, err, c.want)
		}
	}
}

// TestDecodeKeepsExplicitZeros pins the defaults of "reservedCPU" and the
// "controller" keys: an absent "reservedCPU" is one core and an absent
// "controller" is nil, the controller.DefaultConfig values; a key a
// "controller" object leaves out keeps its default, and an explicit zero
// stays zero. All five zero is rejected, in Go as in JSON.
func TestDecodeKeepsExplicitZeros(t *testing.T) {
	def := *DefaultController()
	floorless, eager := def, def
	floorless.GoodputFloor = 0
	eager.CooldownSec = 0
	for _, c := range []struct {
		in       string
		reserved float64
		ctl      *Controller
	}{
		{`{}`, 1, nil},
		{`{"controller": {}}`, 1, &def},
		{`{"reservedCPU": 0, "controller": {"goodputFloor": 0}}`, 0, &floorless},
		{`{"reservedCPU": 2.5, "controller": {"cooldownSec": 0}}`, 2.5, &eager},
	} {
		s, err := Decode(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if s.ReservedCPU != c.reserved || !reflect.DeepEqual(s.Controller, c.ctl) {
			t.Errorf("%s: reservedCPU %v, controller %+v; want %v, %+v", c.in, s.ReservedCPU, s.Controller, c.reserved, c.ctl)
		}
	}
	if def != (Controller{0.5, 0.5, 4, 30, 120}) {
		t.Errorf("DefaultController() = %+v, want the paper's 50%% thresholds, 4 Mbps, 30 s and 2 min", def)
	}
	if def.config() != controller.DefaultConfig() {
		t.Errorf("DefaultController() configures %+v, want controller.DefaultConfig()", def.config())
	}
	if err := (Spec{Controller: &Controller{}}).Validate(); err == nil || !strings.Contains(err.Error(), "controller") {
		t.Errorf("a Go spec with an all-zero controller: error %v, want one naming controller", err)
	}
}

// TestCustomTopologyIsItsNodesAndLinks pins Build on "custom": the mesh's
// nodes and the cluster follow the nodes list's order, each links entry
// adds one link with its capacity form and the fixed 3 ms one way, and no
// other link exists.
func TestCustomTopologyIsItsNodesAndLinks(t *testing.T) {
	r, err := Build(Spec{Topology: "custom", HorizonSec: 60, Apps: []App{},
		Nodes: []cluster.Node{{Name: "c", CPU: 2, Unschedulable: true}, {Name: "a", CPU: 4, MemoryMB: 1024}, {Name: "b", CPU: 4, MemoryMB: 1024}},
		Links: []Link{
			{A: "a", B: "b", Mbps: 30},
			{A: "c", B: "b", Phases: []Phase{{DurationSec: 10, Mbps: 5}, {DurationSec: 20, Mbps: 7}}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sim.Close()
	topo := r.Sim.Topo
	if got := topo.Nodes(); !slices.Equal(got, []string{"c", "a", "b"}) {
		t.Errorf("mesh nodes %v, want the list's order c, a, b", got)
	}
	if got := r.Sim.Cluster.SchedulableNodes(); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("schedulable nodes %v, want a, b", got)
	}
	if len(topo.Links()) != 2 || topo.HasLink("a", "c") {
		t.Errorf("links %v, want a-b and b-c only", topo.Links())
	}
	for _, l := range topo.Links() {
		if l.LatencyOneWay != 3*time.Millisecond {
			t.Errorf("%s latency %v, want 3ms", l.ID, l.LatencyOneWay)
		}
	}
	for _, c := range []struct {
		from, to string
		atSec    int
		want     float64
	}{{"a", "b", 0, 30}, {"b", "a", 59, 30}, {"c", "b", 9, 5}, {"b", "c", 10, 7}, {"c", "b", 35, 5}} {
		if got, err := topo.CapacityAt(c.from, c.to, time.Duration(c.atSec)*time.Second); err != nil || got != c.want {
			t.Errorf("%s->%s at %d s: %v Mbps (%v), want %v", c.from, c.to, c.atSec, got, err, c.want)
		}
	}
}
