package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"bass/internal/faults"
)

// FuzzDecodeSpec feeds arbitrary bytes through Decode (strict decoding plus
// Validate). It must never panic; a spec it accepts must re-encode and
// decode to an equal Spec, and must keep every promise Validate makes,
// re-derived here: no negative size, rate or interval, known names, and
// every node and link it names present in the topology Build would build
// (checked on the built topology, with faults.Schedule.Validate, whenever
// the spec is small enough to build quickly).
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		// bass-sim -example.
		`{"topology": "citylab", "app": "camera", "scheduler": "bfs", "horizonSec": 600, "seed": 42, "migration": true, "monitorIntervalSec": 30}`,
		// bass-sim's scenario contracts (chaos, slo).
		`{"topology": "lan", "lanNodes": 4, "app": "camera", "scheduler": "bfs", "horizonSec": 300, "seed": 7,
		  "migration": true, "monitorIntervalSec": 30,
		  "faults": [{"atSec": 60, "type": "node-crash", "node": "node2"}, {"atSec": 240, "type": "node-recover", "node": "node2"}],
		  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 90, "linkFlapsPerHour": 12, "meanLinkDowntimeSec": 20}}`,
		`{"topology": "lan", "lanNodes": 4, "app": "camera", "scheduler": "bfs", "horizonSec": 900, "seed": 7,
		  "migration": true, "monitorIntervalSec": 30, "slo": true,
		  "faults": [{"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node2"}, {"atSec": 420, "type": "link-up", "linkA": "node1", "linkB": "node2"}]}`,
		`{"app": "socialnet", "rps": 20, "clientNode": "node0", "batch": true, "batchBudget": -1, "batchK": 2,
		  "chaos": {"probeLossWindowsPerHour": 2, "meanProbeLossWindowSec": 60, "protected": ["node0"]}}`,
		`{"app": "videoconf", "participantsPerNode": 2, "publishMbps": 1.5, "reconcile": true,
		  "faults": [{"atSec": 30, "type": "probe-loss-start", "linkA": "node2", "linkB": "node3"}]}`,
		// Values Validate rejects.
		`{"horizonSec": -5}`,
		`{"topology": "lan", "lanNodes": -2}`,
		`{"topology": "lan", "lanNodeCPU": -4}`,
		`{"app": "socialnet", "rps": -10}`,
		`{"app": "videoconf", "publishMbps": -1}`,
		`{"monitorIntervalSec": -30}`,
		`{"chaos": {"protected": ["ghost"]}}`,
		`{"app": "socialnet", "clientNode": "nodeX"}`,
		`{"app": "pacman"}`,
		`{"faults": [{"atSec": 5, "type": "node-crash", "node": "node1"}, {"atSec": 9, "type": "node-crash", "node": "node1"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(canonical(s), canonical(again)) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, again)
		}
		checkAccepted(t, s)
	})
}

// canonical treats an empty list as absent, as omitempty encodes it.
func canonical(s Spec) Spec {
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	if s.Chaos != nil && len(s.Chaos.Protected) == 0 {
		c := *s.Chaos
		c.Protected = nil
		s.Chaos = &c
	}
	return s
}

// checkAccepted fails unless an accepted spec keeps Validate's promises.
func checkAccepted(t *testing.T, s Spec) {
	t.Helper()
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Seed" || name == "BatchBudget" {
			continue
		}
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			if fv.Int() < 0 {
				t.Fatalf("accepted negative %s = %d", name, fv.Int())
			}
		case reflect.Float64:
			if fv.Float() < 0 {
				t.Fatalf("accepted negative %s = %v", name, fv.Float())
			}
		}
	}
	if !slices.Contains([]string{"", "citylab", "lan"}, s.Topology) ||
		!slices.Contains([]string{"camera", "socialnet", "videoconf"}, s.App) ||
		!slices.Contains([]string{"", "bfs", "longest-path", "lp", "k3s"}, s.Scheduler) {
		t.Fatalf("accepted unknown name: topology %q app %q scheduler %q", s.Topology, s.App, s.Scheduler)
	}
	if c := s.Chaos; c != nil {
		for _, r := range []float64{c.NodeCrashesPerHour, c.MeanNodeDowntimeSec, c.LinkFlapsPerHour,
			c.MeanLinkDowntimeSec, c.ProbeLossWindowsPerHour, c.MeanProbeLossWindowSec} {
			if r < 0 {
				t.Fatalf("accepted negative chaos value in %+v", *c)
			}
		}
	}
	if (&faults.Schedule{Events: s.Faults}).ValidateWindows(s.horizon()) != nil {
		t.Fatalf("accepted overlapping or late fault windows: %+v", s.Faults)
	}
	if s.LANNodes > 16 || s.horizon() <= 0 || s.horizon() > time.Hour {
		return
	}
	topo, _, err := s.topology(s.horizon())
	if err != nil {
		t.Fatalf("accepted spec's topology fails to build: %v", err)
	}
	names := []string{s.ClientNode}
	if s.Chaos != nil {
		names = append(names, s.Chaos.Protected...)
	}
	for _, n := range names {
		if n != "" && !topo.HasNode(n) {
			t.Fatalf("accepted node %q missing from the topology", n)
		}
	}
	if err := (&faults.Schedule{Events: s.Faults}).Validate(topo); err != nil {
		t.Fatalf("accepted faults the topology rejects: %v", err)
	}
}
