package faults

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

func testTopo(t *testing.T) *mesh.Topology {
	t.Helper()
	return mesh.Line([]string{"a", "b", "c"}, 25, time.Millisecond, time.Hour)
}

func TestValidate(t *testing.T) {
	topo := testTopo(t)
	good := &Schedule{Events: []Event{
		{AtSec: 1, Type: NodeCrash, Node: "b"},
		{AtSec: 2, Type: LinkDown, LinkA: "b", LinkB: "a"},
		{AtSec: 3, Type: ProbeLossStart, LinkA: "b", LinkB: "c"},
	}}
	if err := good.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Schedule{
		{Events: []Event{{AtSec: -1, Type: NodeCrash, Node: "a"}}},
		{Events: []Event{{AtSec: 1, Type: NodeCrash, Node: "ghost"}}},
		{Events: []Event{{AtSec: 1, Type: LinkDown, LinkA: "a", LinkB: "c"}}},
		{Events: []Event{{AtSec: 1, Type: "meteor-strike", Node: "a"}}},
	} {
		if err := bad.Validate(topo); !errors.Is(err, ErrInvalidSchedule) {
			t.Errorf("schedule %+v: err = %v", bad.Events, err)
		}
	}
}

func TestSortIsStableAndTotal(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtSec: 5, Type: NodeRecover, Node: "b"},
		{AtSec: 5, Type: NodeCrash, Node: "b"},
		{AtSec: 1, Type: LinkDown, LinkA: "b", LinkB: "a"},
	}}
	s.Sort()
	if s.Events[0].Type != LinkDown || s.Events[1].Type != NodeCrash || s.Events[2].Type != NodeRecover {
		t.Errorf("sorted order = %v", s.Events)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	topo := testTopo(t)
	cfg := GeneratorConfig{
		Seed:                    7,
		Horizon:                 time.Hour,
		ProbeLossWindowsPerHour: 1,
		Protected:               []string{"a"},
	}
	s1 := Generate(topo, cfg)
	s2 := Generate(topo, cfg)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed produced different schedules")
	}
	if len(s1.Events) == 0 {
		t.Fatal("generator produced no events over an hour")
	}
	if err := s1.Validate(topo); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	for _, e := range s1.Events {
		if e.Node == "a" {
			t.Errorf("protected node crashed: %v", e)
		}
	}
	cfg.Seed = 8
	if reflect.DeepEqual(s1, Generate(topo, cfg)) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestGeneratorJSONRoundTrip(t *testing.T) {
	topo := testTopo(t)
	s := Generate(topo, GeneratorConfig{Seed: 3, Horizon: 30 * time.Minute})
	raw, err := json.Marshal(s.Events)
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events, back) {
		t.Error("round trip changed the schedule")
	}
}

// fakeTarget records applied operations.
type fakeTarget struct{ ops []string }

func (f *fakeTarget) NodeDown(n string)      { f.ops = append(f.ops, "down:"+n) }
func (f *fakeTarget) NodeUp(n string)        { f.ops = append(f.ops, "up:"+n) }
func (f *fakeTarget) LinkDown(l mesh.LinkID) { f.ops = append(f.ops, "linkdown:"+l.String()) }
func (f *fakeTarget) LinkUp(l mesh.LinkID)   { f.ops = append(f.ops, "linkup:"+l.String()) }
func (f *fakeTarget) SetProbeLoss(l mesh.LinkID, lossy bool) {
	if lossy {
		f.ops = append(f.ops, "lossy:"+l.String())
	} else {
		f.ops = append(f.ops, "clear:"+l.String())
	}
}

func TestInjectorAppliesInOrder(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtSec: 1, Type: ProbeLossStart, LinkA: "a", LinkB: "b"},
		{AtSec: 2, Type: NodeCrash, Node: "b"},
		{AtSec: 3, Type: NodeRecover, Node: "b"},
		{AtSec: 3, Type: ProbeLossEnd, LinkA: "a", LinkB: "b"},
		{AtSec: 4, Type: LinkDown, LinkA: "b", LinkB: "c"},
		{AtSec: 5, Type: LinkUp, LinkA: "b", LinkB: "c"},
	}}
	s.Sort()
	eng := sim.NewEngine(1)
	target := &fakeTarget{}
	inj := Inject(eng, s, target)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"lossy:a-b", "down:b", "up:b", "clear:a-b", "linkdown:b-c", "linkup:b-c"}
	if !reflect.DeepEqual(target.ops, want) {
		t.Errorf("ops = %v, want %v", target.ops, want)
	}
	if len(inj.Applied()) != len(want) {
		t.Errorf("applied = %d events", len(inj.Applied()))
	}
}
