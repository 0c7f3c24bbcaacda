package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"bass/internal/apps/stream"
	"bass/internal/cluster"
	"bass/internal/faults"
)

// FuzzDecodeSpec feeds arbitrary bytes through Decode (strict decoding plus
// Validate). It must never panic; a spec it accepts must re-encode and
// decode to an equal Spec, and must keep every promise Validate makes,
// re-derived here: no negative size, rate or interval, known names, no
// all-zero controller, no reconcile or slo without migration, controller
// fractions and a pack limit in [0, 1]
// (none for k3s), a finite headroom, reserved CPU and node sizes, no nodes
// on citylab and some on custom, each named once, links entries with one
// address and one capacity form, a latency only on custom and no egress
// there, and every node and link it names present in the topology Build
// would build, whose nodes are the list in order, no pin on an
// unschedulable node and no direction shaped twice (checked on the built
// topology, with faults.Schedule.Validate, whenever the spec is small
// enough to build quickly). Decode must not open a csv path: seeds name
// /dev/zero.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		// bass-sim -example.
		`{"topology": "citylab", "app": "camera", "scheduler": "bfs", "horizonSec": 600, "seed": 42, "migration": true, "monitorIntervalSec": 30}`,
		// bass-sim's scenario contracts (chaos, slo).
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 16, "memoryMB": 65536}, {"name": "node2", "cpu": 16, "memoryMB": 65536},
		  {"name": "node3", "cpu": 16, "memoryMB": 65536}, {"name": "node4", "cpu": 16, "memoryMB": 65536}], "app": "camera", "scheduler": "bfs", "horizonSec": 300, "seed": 7,
		  "migration": true, "monitorIntervalSec": 30,
		  "faults": [{"atSec": 60, "type": "node-crash", "node": "node2"}, {"atSec": 240, "type": "node-recover", "node": "node2"}],
		  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 90, "linkFlapsPerHour": 12, "meanLinkDowntimeSec": 20}}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 16, "memoryMB": 65536}, {"name": "node2", "cpu": 16, "memoryMB": 65536},
		  {"name": "node3", "cpu": 16, "memoryMB": 65536}, {"name": "node4", "cpu": 16, "memoryMB": 65536}], "app": "camera", "scheduler": "bfs", "horizonSec": 900, "seed": 7,
		  "migration": true, "monitorIntervalSec": 30, "slo": true,
		  "faults": [{"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node2"}, {"atSec": 420, "type": "link-up", "linkA": "node1", "linkB": "node2"}]}`,
		`{"apps": [{"socialnet": {"rps": 20, "clientNode": "node0"}}], "batch": true,
		  "chaos": {"probeLossWindowsPerHour": 2, "meanProbeLossWindowSec": 60, "protected": ["node0"]}}`,
		// A "reconcile" key, without migration and with it: the schema has
		// no such key (the reconciler runs whenever migration does), so
		// Decode rejects both as unknown.
		`{"apps": [{"videoconf": {"participantsPerNode": 2, "publishMbps": 1.5}}], "reconcile": true,
		  "faults": [{"atSec": 30, "type": "probe-loss-start", "linkA": "node2", "linkB": "node3"}]}`,
		`{"apps": [{"videoconf": {"participantsPerNode": 2, "publishMbps": 1.5}}], "migration": true, "reconcile": true, "slo": true,
		  "faults": [{"atSec": 30, "type": "probe-loss-start", "linkA": "node2", "linkB": "node3"}]}`,
		// Values Validate rejects.
		`{"horizonSec": -5}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": -2}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "memoryMB": -4}]}`,
		`{"apps": [{"socialnet": {"rps": -10}}]}`,
		`{"apps": [{"videoconf": {"publishMbps": -1}}]}`,
		`{"monitorIntervalSec": -30}`,
		`{"chaos": {"protected": ["ghost"]}}`,
		`{"apps": [{"socialnet": {"clientNode": "nodeX"}}]}`,
		`{"app": "pacman"}`,
		`{"faults": [{"atSec": 5, "type": "node-crash", "node": "node1"}, {"atSec": 9, "type": "node-crash", "node": "node1"}]}`,
		// Every apps entry kind with every key, and bass-sim's camera plus
		// pinned stream pair contract.
		`{"apps": [{"camera": {"frameKB": 30, "pinCamera": "node2"}}]}`,
		`{"topology": "lan", "apps": [{"socialnet": {"rps": 400, "clientNode": "node3", "bursty": true, "profileRPS": 400}}]}`,
		`{"apps": [{"videoconf": {"participantsPerNode": 3, "publishMbps": 0.5, "clients": {"node1": 4, "node3": 5},
		  "publishers": 1, "initialNode": "node2"}}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 16, "memoryMB": 65536}, {"name": "node2", "cpu": 16, "memoryMB": 65536},
		  {"name": "node3", "cpu": 16, "memoryMB": 65536}, {"name": "node4", "cpu": 16, "memoryMB": 65536}], "horizonSec": 600, "seed": 3, "migration": true, "apps": [{"camera": {}},
		  {"stream": {"name": "pair", "components": [{"name": "producer", "cpu": 1, "pin": "node1"},
		   {"name": "consumer", "cpu": 1, "pin": "node4"}], "edges": [{"from": "producer", "to": "consumer", "mbps": 5}],
		   "sampleGoodput": true}}],
		  "faults": [{"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node4"},
		   {"atSec": 300, "type": "link-up", "linkA": "node1", "linkB": "node4"}]}`,
		// Seconds whose nanoseconds overflow a time.Duration.
		`{"topology": "lan", "app": "camera", "horizonSec": 10000000000}`,
		`{"monitorIntervalSec": 10000000000}`,
		`{"horizonSec": 120, "faults": [{"atSec": 1e300, "type": "node-crash", "node": "node2"}]}`,
		`{"chaos": {"nodeCrashesPerHour": 1, "meanNodeDowntimeSec": 1e300}}`,
		`{"chaos": {"linkFlapsPerHour": 1, "meanLinkDowntimeSec": 1e300}}`,
		`{"chaos": {"probeLossWindowsPerHour": 1, "meanProbeLossWindowSec": 1e300}}`,
		// Entries Validate rejects.
		`{"apps": [{"camera": {"frameKB": -30}}]}`,
		`{"apps": [{"videoconf": {"clients": {"node1": -2}, "publishers": -1}}]}`,
		`{"apps": [{"videoconf": {"initialNode": "ghost"}}]}`,
		`{"apps": [{"stream": {"name": "s", "components": [{"name": "a", "cpu": -1}]}}]}`,
		`{"apps": [{"stream": {"name": "s", "components": [{"name": "a"}, {"name": "a"}]}}]}`,
		`{"apps": [{"stream": {"name": "s", "components": [{"name": "a"}, {"name": "b"}],
		  "edges": [{"from": "a", "to": "b", "mbps": 1}, {"from": "b", "to": "a", "mbps": 1}]}}]}`,
		`{"apps": [{"stream": {"name": "", "components": [{"name": "a", "pin": "node1"}]}}]}`,
		`{"apps": [{}]}`,
		`{"apps": [{"camera": {}, "stream": {"name": "s", "components": [{"name": "a"}]}}]}`,
		`{"apps": [{"socialnet": {}}, {"socialnet": {}}]}`,
		`{"app": "camera", "apps": [{"camera": {}}]}`,
		// Pins on CityLab's unschedulable control host; a client may run there.
		`{"apps": [{"camera": {"pinCamera": "node0"}}]}`,
		`{"apps": [{"videoconf": {"initialNode": "node0"}}]}`,
		`{"apps": [{"videoconf": {"clients": {"node0": 2}}}]}`,
		`{"apps": [{"stream": {"name": "s", "components": [{"name": "a", "pin": "node0"}]}}]}`,
		// A migration downtime, and ones Validate rejects.
		`{"migrationDowntimeSec": 4.3}`,
		`{"migrationDowntimeSec": -1}`,
		`{"migrationDowntimeSec": 1e300}`,
		// Each links address and capacity form (the csv is never opened:
		// Decode reads no file it names).
		`{"links": [{"a": "node2", "b": "node3", "mbps": 30}]}`,
		`{"topology": "lan", "links": [{"egress": "node1", "phases": [{"durationSec": 10, "mbps": 1000},
		  {"durationSec": 180, "mbps": 25}, {"durationSec": 110, "mbps": 1000}]}, {"egress": "node2", "mbps": 25}]}`,
		`{"links": [{"a": "node3", "b": "node2", "csv": "/dev/zero"}, {"egress": "node4", "mbps": 8}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1"}, {"name": "node2"}, {"name": "node3"}, {"name": "node4"}, {"name": "node5"}],
		  "links": [{"a": "node1", "b": "node2", "mbps": 5}, {"a": "node3", "b": "node4", "mbps": 5},
		  {"egress": "node5", "mbps": 1}]}`,
		// Links entries Validate rejects.
		`{"links": [{"a": "node2", "b": "node4", "mbps": 30}]}`,
		`{"links": [{"a": "node2", "b": "ghost", "mbps": 30}]}`,
		`{"links": [{"egress": "ghost", "mbps": 30}]}`,
		`{"links": [{"a": "node2", "mbps": 30}]}`,
		`{"links": [{"a": "node2", "b": "node3", "egress": "node1", "mbps": 30}]}`,
		`{"links": [{"mbps": 30}]}`,
		`{"links": [{"a": "node2", "b": "node3", "mbps": 30}, {"a": "node3", "b": "node2", "mbps": 5}]}`,
		`{"links": [{"egress": "node2", "mbps": 30}, {"a": "node3", "b": "node2", "mbps": 5}]}`,
		`{"links": [{"a": "node1", "b": "node2", "mbps": 30}, {"egress": "node1", "mbps": 5}]}`,
		`{"links": [{"egress": "node1", "mbps": 30}, {"egress": "node1", "mbps": 5}]}`,
		`{"links": [{"a": "node2", "b": "node3"}]}`,
		`{"links": [{"a": "node2", "b": "node3", "mbps": 30, "csv": "x.csv"}]}`,
		`{"links": [{"a": "node2", "b": "node3", "mbps": -30}]}`,
		`{"links": [{"a": "node2", "b": "node3", "mbps": 1e400}]}`,
		`{"links": [{"a": "node2", "b": "node3", "phases": []}]}`,
		`{"links": [{"a": "node2", "b": "node3", "phases": [{"durationSec": 0, "mbps": 5}]}]}`,
		`{"links": [{"a": "node2", "b": "node3", "phases": [{"durationSec": -10, "mbps": 5}]}]}`,
		`{"links": [{"a": "node2", "b": "node3", "phases": [{"durationSec": 10, "mbps": -5}]}]}`,
		`{"links": [{"a": "node2", "b": "node3", "phases": [{"durationSec": 9223372036, "mbps": 5}, {"durationSec": 9223372036, "mbps": 5}]}]}`,
		`{"links": [{"a": "node2", "b": "node3", "csv": ""}]}`,
		`{"links": [{"a": "node2", "b": "node3", "mbps": 30, "latencyMs": 5}]}`,
		// Each controller key, pack limit, client node and reserved CPU the
		// paper jobs set, and the zeros that must survive decoding.
		`{"controller": {"utilizationThreshold": 0.65, "goodputFloor": 0, "headroomMbps": 2, "cooldownSec": 30,
		  "reMigrationSec": 300}, "scheduler": "bfs", "migration": true, "reservedCPU": 1}`,
		`{"controller": {"cooldownSec": 0}, "migration": true, "reservedCPU": 0}`,
		`{"controller": {}}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 8, "memoryMB": 12288}, {"name": "node2", "cpu": 8, "memoryMB": 12288},
		  {"name": "node3", "cpu": 8, "memoryMB": 12288}, {"name": "node4", "cpu": 8, "memoryMB": 8192, "unschedulable": true}],
		  "packLimit": 0.8, "apps": [{"socialnet": {"rps": 400, "bursty": true, "profileRPS": 400, "clientNode": "node4"}}], "reservedCPU": 0}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 4}, {"name": "client", "unschedulable": true}], "packLimit": 1,
		  "apps": [{"videoconf": {"initialNode": "node1"}}]}`,
		// Controller, pack limit, node list and reserved CPU values
		// Validate rejects, and a key the controller lacks.
		`{"controller": {"utilizationThreshold": 1.5}}`,
		`{"controller": {"goodputFloor": -0.5}}`,
		`{"controller": {"headroomMbps": -4}}`,
		`{"controller": {"cooldownSec": -30}}`,
		`{"controller": {"reMigrationSec": 1e300}}`,
		`{"controller": {"cooldown": 30}}`,
		`{"packLimit": 1.2}`,
		`{"packLimit": -0.8}`,
		`{"scheduler": "k3s", "packLimit": 0.8}`,
		`{"topology": "lan", "nodes": [{"name": "node3"}, {"name": "node3"}]}`,
		`{"nodes": [{"name": "node1", "cpu": 4}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1"}, {"name": "client", "unschedulable": true}], "apps": [{"camera": {"pinCamera": "client"}}]}`,
		`{"reservedCPU": -1}`,
		`{"controller": {"utilizationThreshold": 0, "goodputFloor": 0, "headroomMbps": 0, "cooldownSec": 0, "reMigrationSec": 0}}`,
		// Custom topologies: Fig 8's mesh, a chain with faults on a link it
		// adds, and a generator host beside a worker.
		`{"topology": "custom", "nodes": [{"name": "node3", "cpu": 3, "memoryMB": 4096}, {"name": "node4", "cpu": 8, "memoryMB": 8192},
		  {"name": "node1", "cpu": 8, "memoryMB": 8192}], "scheduler": "bfs", "migration": true, "horizonSec": 1500,
		  "links": [{"a": "node3", "b": "node4", "phases": [{"durationSec": 540, "mbps": 25}, {"durationSec": 579, "mbps": 7},
		   {"durationSec": 381, "mbps": 25}]}, {"a": "node1", "b": "node3", "phases": [{"durationSec": 1119, "mbps": 20},
		   {"durationSec": 381, "mbps": 3}]}, {"a": "node1", "b": "node4", "mbps": 20}],
		  "apps": [{"stream": {"name": "pair", "components": [{"name": "producer", "cpu": 2, "pin": "node3"}, {"name": "consumer", "cpu": 2}],
		   "edges": [{"from": "producer", "to": "consumer", "mbps": 8}]}}]}`,
		`{"topology": "custom", "nodes": [{"name": "a", "cpu": 4}, {"name": "b", "cpu": 4}, {"name": "c", "cpu": 4}],
		  "links": [{"a": "a", "b": "b", "mbps": 25}, {"a": "c", "b": "b", "csv": "/dev/zero"}],
		  "faults": [{"atSec": 5, "type": "link-down", "linkA": "b", "linkB": "c"}], "chaos": {"linkFlapsPerHour": 6, "meanLinkDowntimeSec": 30}}`,
		`{"topology": "custom", "nodes": [{"name": "gen", "cpu": 8, "unschedulable": true}, {"name": "w", "cpu": 8, "memoryMB": 8192}],
		  "links": [{"a": "w", "b": "gen", "mbps": 1000}], "apps": [{"socialnet": {"clientNode": "gen"}}]}`,
		// Nodes and custom links Validate rejects.
		`{"topology": "custom"}`,
		`{"topology": "custom", "nodes": []}`,
		`{"topology": "custom", "nodes": [{"name": "a"}], "links": [{"a": "a", "b": "ghost", "mbps": 5}]}`,
		`{"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"a": "a", "b": "a", "mbps": 5}]}`,
		`{"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"a": "a", "b": "b", "mbps": 5}, {"a": "b", "b": "a", "mbps": 5}]}`,
		`{"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"egress": "a", "mbps": 5}]}`,
		`{"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"a": "a", "b": "b", "mbps": 5}],
		  "apps": [{"camera": {"pinCamera": "c"}}]}`,
		`{"topology": "lan", "nodes": [{"name": ""}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1", "cpu": 1e400}]}`,
		`{"topology": "citylab", "nodes": [{"name": "node0"}]}`,
		`{"topology": "lan", "nodes": [{"name": "node1"}, {"name": "node2"}], "faults": [{"atSec": 5, "type": "node-crash", "node": "node3"}]}`,
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

// canonical treats an empty list or map as absent, as omitempty encodes
// it.
func canonical(s Spec) Spec {
	if len(s.Nodes) == 0 {
		s.Nodes = nil
	}
	if len(s.Faults) == 0 {
		s.Faults = nil
	}
	if len(s.Links) == 0 {
		s.Links = nil
	}
	if s.Chaos != nil && len(s.Chaos.Protected) == 0 {
		c := *s.Chaos
		c.Protected = nil
		s.Chaos = &c
	}
	s.Apps = slices.Clone(s.Apps)
	for i, a := range s.Apps {
		if a.Videoconf != nil && len(a.Videoconf.Clients) == 0 {
			v := *a.Videoconf
			v.Clients = nil
			s.Apps[i].Videoconf = &v
		}
	}
	return s
}

// checkAccepted fails unless an accepted spec keeps Validate's promises.
func checkAccepted(t *testing.T, s Spec) {
	t.Helper()
	if s.App != "" || len(s.Apps) == 0 {
		t.Fatalf("decoded spec keeps the app shorthand %q or deploys nothing: %+v", s.App, s.Apps)
	}
	var nodes, pins []string
	for i, a := range s.Apps {
		kinds := 0
		for _, k := range []any{a.Camera, a.Socialnet, a.Videoconf, a.Stream} {
			if v := reflect.ValueOf(k); !v.IsNil() {
				kinds++
				checkAmounts(t, v.Elem())
			}
		}
		if kinds != 1 {
			t.Fatalf("apps[%d] sets %d kinds", i, kinds)
		}
		switch {
		case a.Camera != nil:
			pins = append(pins, a.Camera.PinCamera)
		case a.Socialnet != nil:
			nodes = append(nodes, a.Socialnet.ClientNode)
		case a.Videoconf != nil:
			pins = append(pins, a.Videoconf.InitialNode)
			for n, k := range a.Videoconf.Clients {
				if k < 0 {
					t.Fatalf("accepted negative clients.%s = %d", n, k)
				}
				nodes = append(nodes, n)
			}
		case a.Stream != nil:
			if _, err := stream.New(*a.Stream); err != nil {
				t.Fatalf("accepted a malformed stream: %v", err)
			}
			for _, c := range a.Stream.Components {
				pins = append(pins, c.Pin)
			}
		}
		for j := range i {
			if b := s.Apps[j]; a.Camera != nil && b.Camera != nil || a.Socialnet != nil && b.Socialnet != nil ||
				a.Videoconf != nil && b.Videoconf != nil {
				t.Fatalf("accepted a second paper app at apps[%d]", i)
			}
		}
	}
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Seed" {
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
	if s.Controller != nil && *s.Controller == (Controller{}) {
		t.Fatalf("accepted an all-zero controller, which runs the defaults")
	}
	if s.SLO && !s.Migration {
		t.Fatalf("accepted slo without migration, which starts no control loop")
	}
	c := cmp.Or(s.Controller, DefaultController())
	for _, v := range []float64{c.UtilizationThreshold, c.GoodputFloor, s.PackLimit} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("accepted a controller fraction or pack limit outside [0, 1]: %+v, packLimit %v", c, s.PackLimit)
		}
	}
	amounts := []float64{c.HeadroomMbps, s.ReservedCPU}
	for i, n := range s.Nodes {
		amounts = append(amounts, n.CPU, n.MemoryMB)
		if n.Name == "" || slices.ContainsFunc(s.Nodes[:i], func(m cluster.Node) bool { return m.Name == n.Name }) {
			t.Fatalf("accepted an empty or repeated node name at nodes[%d]: %+v", i, s.Nodes)
		}
	}
	for _, v := range amounts {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("accepted a negative or non-finite amount in %+v", s)
		}
	}
	if _, err := s.policy(); err != nil || s.Scheduler == "k3s" && s.PackLimit != 0 {
		t.Fatalf("accepted scheduler %q with pack limit %v: %v", s.Scheduler, s.PackLimit, err)
	}
	if s.citylab() && len(s.Nodes) > 0 || s.Topology == "custom" && len(s.Nodes) == 0 {
		t.Fatalf("accepted topology %q with %d nodes", s.Topology, len(s.Nodes))
	}
	secs := []float64{float64(s.HorizonSec), float64(s.MonitorIntervalSec), s.MigrationDowntimeSec, c.CooldownSec, c.ReMigrationSec}
	for _, e := range s.Faults {
		secs = append(secs, e.AtSec)
	}
	if !slices.Contains([]string{"", "citylab", "lan", "custom"}, s.Topology) ||
		!slices.Contains([]string{"", "bfs", "longest-path", "lp", "k3s"}, s.Scheduler) {
		t.Fatalf("accepted unknown name: topology %q scheduler %q", s.Topology, s.Scheduler)
	}
	if c := s.Chaos; c != nil {
		for _, r := range []float64{c.NodeCrashesPerHour, c.MeanNodeDowntimeSec, c.LinkFlapsPerHour,
			c.MeanLinkDowntimeSec, c.ProbeLossWindowsPerHour, c.MeanProbeLossWindowSec} {
			if r < 0 {
				t.Fatalf("accepted negative chaos value in %+v", *c)
			}
		}
		secs = append(secs, c.MeanNodeDowntimeSec, c.MeanLinkDowntimeSec, c.MeanProbeLossWindowSec)
	}
	for _, sec := range secs {
		if time.Duration(sec*float64(time.Second)) < 0 || sec*float64(time.Second) >= math.MaxInt64 {
			t.Fatalf("accepted %v s, which overflows a duration", sec)
		}
	}
	if (&faults.Schedule{Events: s.Faults}).ValidateWindows(s.horizon()) != nil {
		t.Fatalf("accepted overlapping or late fault windows: %+v", s.Faults)
	}
	for i, l := range s.Links {
		checkLinkForms(t, i, l)
		if l.Egress != "" && s.Topology == "custom" {
			t.Fatalf("accepted links[%d] %+v on topology %q", i, l, s.Topology)
		}
	}
	cl := s.clusterNodes()
	if len(cl) > 16 || s.horizon() <= 0 || s.horizon() > time.Hour {
		return
	}
	// Build the mesh with each csv trace replaced by a constant, so no file
	// is opened.
	built := s
	built.Links = slices.Clone(s.Links)
	for i := range built.Links {
		if built.Links[i].CSV != "" {
			built.Links[i].CSV, built.Links[i].Mbps = "", 1
		}
	}
	topo, err := built.Mesh()
	if err != nil {
		t.Fatalf("accepted spec's topology fails to build: %v", err)
	}
	names := make([]string, len(cl))
	for i, n := range cl {
		names[i] = n.Name
	}
	if !slices.Equal(topo.Nodes(), names) {
		t.Fatalf("built mesh nodes %v, want the cluster's %v in order", topo.Nodes(), names)
	}
	if s.Chaos != nil {
		nodes = append(nodes, s.Chaos.Protected...)
	}
	for _, n := range append(nodes, pins...) {
		if n != "" && !topo.HasNode(n) {
			t.Fatalf("accepted node %q missing from the topology", n)
		}
	}
	for _, n := range pins {
		if slices.ContainsFunc(cl, func(c cluster.Node) bool { return c.Name == n && c.Unschedulable }) {
			t.Fatalf("accepted a pin on unschedulable node %q", n)
		}
	}
	shaped := map[[2]string]int{} // direction -> the entry shaping it
	for i, l := range s.Links {
		dirs := [][2]string{{l.A, l.B}, {l.B, l.A}}
		if l.Egress != "" {
			dirs = nil
			for _, nb := range topo.Neighbors(l.Egress) {
				dirs = append(dirs, [2]string{l.Egress, nb})
			}
		} else if link, ok := topo.Link(l.A, l.B); !ok {
			t.Fatalf("accepted links[%d] on %s-%s, which the topology lacks", i, l.A, l.B)
		} else if s.Topology == "custom" && link.LatencyOneWay != 3*time.Millisecond {
			t.Fatalf("links[%d] added %s-%s with latency %v, want 3 ms", i, l.A, l.B, link.LatencyOneWay)
		}
		for _, d := range dirs {
			if j, ok := shaped[d]; ok {
				t.Fatalf("accepted links[%d] and links[%d] both shaping %s->%s", j, i, d[0], d[1])
			}
			shaped[d] = i
		}
	}
	if err := (&faults.Schedule{Events: s.Faults}).Validate(topo); err != nil {
		t.Fatalf("accepted faults the topology rejects: %v", err)
	}
}

// checkLinkForms fails unless links entry i addresses one link or one
// egress and gives one capacity form with finite non-negative Mbps and
// positive phase durations that sum to a duration.
func checkLinkForms(t *testing.T, i int, l Link) {
	t.Helper()
	if (l.Egress != "") == (l.A != "" && l.B != "") || l.Egress != "" && l.A+l.B != "" || l.A != "" && l.A == l.B {
		t.Fatalf("accepted links[%d] addressing a=%q b=%q egress=%q", i, l.A, l.B, l.Egress)
	}
	forms := 0
	for _, set := range []bool{l.Mbps != 0, len(l.Phases) > 0, l.CSV != ""} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		t.Fatalf("accepted links[%d] with %d capacity forms: %+v", i, forms, l)
	}
	total := 0.0
	for _, p := range l.Phases {
		if p.DurationSec <= 0 || p.Mbps < 0 || math.IsInf(p.Mbps, 0) {
			t.Fatalf("accepted links[%d] phase %+v", i, p)
		}
		total += float64(p.DurationSec)
	}
	if l.Mbps < 0 || math.IsInf(l.Mbps, 0) || math.IsNaN(l.Mbps) || total*float64(time.Second) >= math.MaxInt64 {
		t.Fatalf("accepted links[%d] capacity %+v", i, l)
	}
}

// checkAmounts fails on a negative or non-finite number field of an apps
// entry.
func checkAmounts(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		var f float64
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int:
			f = float64(fv.Int())
		case reflect.Float64:
			f = fv.Float()
		default:
			continue
		}
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("accepted %s = %v in %s", v.Type().Field(i).Name, f, v.Type())
		}
	}
}
