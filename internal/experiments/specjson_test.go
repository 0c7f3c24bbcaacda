package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/mesh"
	"bass/internal/scenario"
)

// TestJobSpecsRoundTripJSON pins that every job that simulates, and the
// examples, run scenario files: each spec they build encodes to JSON with
// no null value, and scenario.Decode reads that back to an equal spec, so
// bass-sim runs the same experiment from the file. Journal and Metrics are
// the Go-only attachments bass-sim sets from -events-out and -metrics-out;
// they are cleared before the comparison.
func TestJobSpecsRoundTripJSON(t *testing.T) {
	const seed = 42
	throttle := []scenario.Phase{{DurationSec: 10, Mbps: 1000}, {DurationSec: 180, Mbps: 25}, {DurationSec: 110, Mbps: 1000}}
	pinned, err := pinnedCityLab(seed, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	table2NoVariation := table2Spec(seed, 5*time.Minute, "bfs")
	table2NoVariation.Links = pinned
	longevity, err := longevitySpec(seed, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchAblationSpec(batchAblationOptions{Nodes: 64, Apps: 80, Density: 10, Batch: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec scenario.Spec
	}{
		{"fig4/10", fig4Spec(seed, 10, 3)},
		{"fig5", fig5Spec(seed, 5*time.Minute)},
		{"fig8", fig8Spec(seed)},
		{"fig10/bfs", cameraLAN(seed, "bfs", 30*time.Minute)},
		{"fig10/longest-path", cameraLAN(seed, "longest-path", 30*time.Minute)},
		{"fig10/k3s", cameraLAN(seed, "k3s", 30*time.Minute)},
		{"fig11/k3s/300", fig11Spec(seed, "k3s", 300, 4*time.Minute)},
		{"fig12/30s", fig12Spec(seed, 30)},
		{"fig12/no-migration", fig12Spec(seed, 0)},
		{"fig13/no-migration", throttledLAN(seed, 0, 0.8)},
		{"fig13/30s", throttledLAN(seed, 30, 0.8)},
		{"table2/no-variation", table2NoVariation},
		{"table2/k3s", table2Spec(seed, 5*time.Minute, "k3s")},
		{"fig14a", fig14aSpec(seed)},
		{"fig14b/bfs+mig", fig14bSpec(seed, "bfs", true)},
		{"fig14cd/bfs/t25/h10", fig14cdSpec(seed, "bfs", 25, 10)},
		{"fig15b/no-migration", fig15bSpec(seed, 0)},
		{"fig15b/65%", fig15bSpec(seed, 0.65)},
		{"fig16/t50", fig16Spec(seed, 50)},
		{"ablate-pack/1.0", throttledLAN(seed, 30, 1)},
		{"ablate-cooldown/0s", cooldownSocial(seed, 0)},
		{"ablate-probe/10s", probeSocial(seed, 10)},
		{"chaos", chaosSpec(seed, 5*time.Minute)},
		{"longevity", longevity},
		{"alertquality", alertQualitySpec(seed, 30*time.Minute)},
		{"batchablation/64/10x/batch", batch},
		// As examples/socialmigration builds it.
		{"socialmigration", scenario.Spec{
			Topology: "lan", Nodes: append(lanNodes(3, 8, 12288), cluster.Node{Name: "client", CPU: 8, MemoryMB: 8192, Unschedulable: true}),
			PackLimit: 0.8, Migration: true, MonitorIntervalSec: 30, MigrationDowntimeSec: 4.3,
			Apps:       []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 400, Bursty: true, ProfileRPS: 400, ClientNode: "client"}}},
			Links:      []scenario.Link{{Egress: "node1", Phases: throttle}, {Egress: "node2", Phases: throttle}},
			HorizonSec: 300, Seed: seed,
		}},
		// As examples/cameramesh builds it, once per scheduler.
		{"cameramesh/k3s", scenario.Spec{
			Topology: "citylab", Scheduler: "k3s", ReservedCPU: 1,
			Apps:       []scenario.App{{Camera: &scenario.Camera{FrameKB: 30, PinCamera: mesh.CityLabNode2}}},
			HorizonSec: 600, Seed: seed,
		}},
	} {
		want := c.spec
		want.Journal, want.Metrics = false, false
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var tree any
		if err := json.Unmarshal(raw, &tree); err != nil {
			t.Fatal(err)
		}
		if key := nullKey(tree, ""); key != "" {
			t.Errorf("%s: the JSON form carries %s: null, which no scenario file says", c.name, key)
		}
		back, err := scenario.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, raw)
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("%s: the JSON form decodes to a different spec\n%s\ngot  %+v\nwant %+v", c.name, raw, back, want)
		}
	}
}

// nullKey is the path of the first null value in a decoded JSON tree, or
// "" when it has none.
func nullKey(v any, path string) string {
	switch v := v.(type) {
	case nil:
		return path
	case map[string]any:
		for k, e := range v {
			if p := nullKey(e, path+"."+k); p != "" {
				return p
			}
		}
	case []any:
		for _, e := range v {
			if p := nullKey(e, path+"[]"); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestPinnedCityLabHoldsTraceMax pins Table 2's "no variation" baseline:
// each CityLab link of the built mesh is constant at the maximum of the
// trace the same seed generates for it.
func TestPinnedCityLabHoldsTraceMax(t *testing.T) {
	const seed, horizon = 1, 5 * time.Minute
	pinned, err := pinnedCityLab(seed, horizon)
	if err != nil {
		t.Fatal(err)
	}
	spec := table2Spec(seed, horizon, "bfs")
	spec.Links = pinned
	static, err := spec.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	varying := mesh.MustCityLab(mesh.CityLabOptions{Seed: seed, Duration: horizon})
	if len(static.Links()) != len(mesh.CityLabLinks()) {
		t.Fatalf("static mesh has %d links, want CityLab's %d", len(static.Links()), len(mesh.CityLabLinks()))
	}
	for _, l := range static.Links() {
		v, _ := varying.Link(l.ID.A, l.ID.B)
		for _, fwd := range []bool{true, false} {
			tr := l.CapacityDir(fwd)
			if tr.Min() != tr.Max() || tr.Max() != v.CapacityFwd().Max() || tr.Len() != v.CapacityFwd().Len() {
				t.Errorf("link %s (forward %t): %v..%v Mbps over %d samples, want constant %v over %d", l.ID, fwd,
					tr.Min(), tr.Max(), tr.Len(), v.CapacityFwd().Max(), v.CapacityFwd().Len())
			}
		}
		if v.CapacityFwd().StdDev() == 0 {
			t.Errorf("seeded link %s does not vary, so pinning shows nothing", l.ID)
		}
	}
}
