package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
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
// "controller" keys: an absent key takes its default (one core, the
// controller.DefaultConfig value), and an explicit zero stays zero.
func TestDecodeKeepsExplicitZeros(t *testing.T) {
	def := DefaultController()
	floorless, eager := def, def
	floorless.GoodputFloor = 0
	eager.CooldownSec = 0
	for _, c := range []struct {
		in       string
		reserved float64
		ctl      Controller
	}{
		{`{}`, 1, def},
		{`{"controller": {}}`, 1, def},
		{`{"reservedCPU": 0, "controller": {"goodputFloor": 0}}`, 0, floorless},
		{`{"reservedCPU": 2.5, "controller": {"cooldownSec": 0}}`, 2.5, eager},
	} {
		s, err := Decode(strings.NewReader(c.in))
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if s.ReservedCPU != c.reserved || s.Controller != c.ctl {
			t.Errorf("%s: reservedCPU %v, controller %+v; want %v, %+v", c.in, s.ReservedCPU, s.Controller, c.reserved, c.ctl)
		}
	}
	if def != (Controller{0.5, 0.5, 4, 30, 120}) {
		t.Errorf("DefaultController() = %+v, want the paper's 50%% thresholds, 4 Mbps, 30 s and 2 min", def)
	}
}
