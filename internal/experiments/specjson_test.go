package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/scenario"
)

// TestJobSpecsRoundTripJSON pins that the paper jobs and examples that run
// on a named topology are scenario files: each spec they build encodes to
// JSON that scenario.Decode reads back to an equal spec (a zero controller
// spelled as the defaults it runs), so bass-sim runs the same experiment
// from the file.
func TestJobSpecsRoundTripJSON(t *testing.T) {
	const seed = 42
	throttle := []scenario.Phase{{DurationSec: 10, Mbps: 1000}, {DurationSec: 180, Mbps: 25}, {DurationSec: 110, Mbps: 1000}}
	for _, c := range []struct {
		name string
		spec scenario.Spec
	}{
		{"fig10/bfs", cameraLAN(seed, "bfs", 30*time.Minute)},
		{"fig10/longest-path", cameraLAN(seed, "longest-path", 30*time.Minute)},
		{"fig10/k3s", cameraLAN(seed, "k3s", 30*time.Minute)},
		{"fig13/no-migration", throttledLAN(seed, 0, 0.8)},
		{"fig13/30s", throttledLAN(seed, 30, 0.8)},
		{"ablate-pack/1.0", throttledLAN(seed, 30, 1)},
		{"fig14cd/bfs/t25/h10", fig14cdSpec(seed, "bfs", 25, 10)},
		{"fig15b/no-migration", fig15bSpec(seed, 0)},
		{"fig15b/65%", fig15bSpec(seed, 0.65)},
		{"fig16/t50", fig16Spec(seed, 50)},
		{"ablate-cooldown/0s", cooldownSocial(seed, 0)},
		// As examples/socialmigration builds it.
		{"socialmigration", scenario.Spec{
			Topology: "lan", LANNodes: 3, LANNodeCPU: 8, LANNodeMemMB: 12288, ClientHost: "client", PackLimit: 0.8,
			Migration: true, MonitorIntervalSec: 30, MigrationDowntimeSec: 4.3,
			Apps:       []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 400, Bursty: true, ProfileRPS: 400}}},
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
		// A zero controller runs the defaults, and Decode rejects an
		// all-zero "controller" object, so the JSON form spells them out.
		want := c.spec
		if want.Controller == (scenario.Controller{}) {
			want.Controller = scenario.DefaultController()
		}
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
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
