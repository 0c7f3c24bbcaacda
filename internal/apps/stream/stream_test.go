package stream_test

import (
	"strings"
	"testing"

	"bass/internal/apps/stream"
	"bass/internal/scenario"
)

func TestNewRejectsMalformedGraphs(t *testing.T) {
	ab := []stream.Component{{Name: "a"}, {Name: "b"}}
	for _, c := range []struct {
		cfg  stream.Config
		want string
	}{
		{stream.Config{Components: ab}, "empty name"},
		{stream.Config{Name: "s", Components: []stream.Component{{Name: "a"}, {Name: "a"}}}, "duplicate"},
		{stream.Config{Name: "s", Components: ab, Edges: []stream.Edge{{From: "a", To: "c", Mbps: 1}}}, "unknown"},
		{stream.Config{Name: "s", Components: ab, Edges: []stream.Edge{{From: "a", To: "b", Mbps: -1}}}, "negative"},
		{stream.Config{Name: "s", Components: []stream.Component{{Name: "a", CPU: -1}}}, "negative"},
		{stream.Config{Name: "s", Components: ab, Edges: []stream.Edge{{From: "a", To: "b"}, {From: "b", To: "a"}}}, "cycle"},
		{stream.Config{Name: "s"}, "empty"},
		{stream.Config{Name: "s", Components: ab, Edges: []stream.Edge{{From: "a", To: "b"}}, SampleGoodput: true}, "positive demand"},
	} {
		if _, err := stream.New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%+v) = %v, want an error containing %q", c.cfg, err, c.want)
		}
	}
}

// TestPairDeliversAndSamples runs a pinned pair on an idle LAN: its stream
// carries the full demand across nodes, sampled once a second when asked.
func TestPairDeliversAndSamples(t *testing.T) {
	pair := func(name string, sample bool) scenario.App {
		return scenario.App{Stream: &stream.Config{
			Name:          name,
			Components:    []stream.Component{{Name: "p", CPU: 1, Pin: "node1"}, {Name: "c", CPU: 1, Pin: "node2"}},
			Edges:         []stream.Edge{{From: "p", To: "c", Mbps: 5}},
			SampleGoodput: sample,
		}}
	}
	r, err := scenario.Build(scenario.Spec{Topology: "lan", HorizonSec: 30,
		Apps: []scenario.App{pair("sampled", true), pair("quiet", false)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Complete(); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Streams {
		if achieved, required, cross := s.Measure(); achieved != 5 || required != 5 || cross != 1 {
			t.Errorf("%s: Measure = %v, %v, %d; want 5, 5, 1", s.Graph().AppName, achieved, required, cross)
		}
	}
	if g := r.Streams[0].Goodput(); g == nil || g.Len() != 30 || g.Mean() != 1 {
		t.Errorf("sampled goodput = %+v, want 30 samples of 1", g)
	}
	if g := r.Streams[1].Goodput(); g != nil {
		t.Errorf("unsampled stream has a goodput series of %d samples", g.Len())
	}
}
