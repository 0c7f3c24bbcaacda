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
