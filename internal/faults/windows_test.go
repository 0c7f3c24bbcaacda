package faults

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestValidateWindows(t *testing.T) {
	crash := func(at float64, node string) Event {
		return Event{AtSec: at, Type: NodeCrash, Node: node}
	}
	recover := func(at float64, node string) Event {
		return Event{AtSec: at, Type: NodeRecover, Node: node}
	}
	linkDown := func(at float64) Event {
		return Event{AtSec: at, Type: LinkDown, LinkA: "a", LinkB: "b"}
	}
	linkUp := func(at float64) Event {
		return Event{AtSec: at, Type: LinkUp, LinkA: "a", LinkB: "b"}
	}
	probeStart := func(at float64) Event {
		return Event{AtSec: at, Type: ProbeLossStart, LinkA: "a", LinkB: "b"}
	}

	cases := []struct {
		name    string
		events  []Event
		horizon time.Duration
		wantErr error
	}{
		{name: "empty is valid"},
		{
			name:   "clean pair",
			events: []Event{crash(10, "n1"), recover(60, "n1")},
		},
		{
			name:   "unclosed window is legal",
			events: []Event{crash(10, "n1")},
		},
		{
			name:    "recovery past horizon is legal",
			events:  []Event{crash(10, "n1"), recover(500, "n1")},
			horizon: 300 * time.Second,
		},
		{
			name:    "overlapping windows on one node",
			events:  []Event{crash(10, "n1"), crash(20, "n1"), recover(60, "n1")},
			wantErr: errOverlappingWindows,
		},
		{
			name: "same times on different nodes are fine",
			events: []Event{
				crash(10, "n1"), crash(10, "n2"),
				recover(60, "n1"), recover(60, "n2"),
			},
		},
		{
			name:    "overlapping link windows",
			events:  []Event{linkDown(5), linkDown(6), linkUp(10), linkUp(11)},
			wantErr: errOverlappingWindows,
		},
		{
			name:   "probe loss overlapping link outage is legal",
			events: []Event{linkDown(5), probeStart(6), linkUp(10)},
		},
		{
			name:    "unmatched recovery",
			events:  []Event{recover(60, "n1")},
			wantErr: errUnmatchedRecovery,
		},
		{
			name:    "unmatched link up",
			events:  []Event{linkUp(60)},
			wantErr: errUnmatchedRecovery,
		},
		{
			name:    "crash at horizon never fires",
			events:  []Event{crash(300, "n1"), recover(400, "n1")},
			horizon: 300 * time.Second,
			wantErr: errBeyondHorizon,
		},
		{
			name:    "crash past horizon",
			events:  []Event{crash(400, "n1"), recover(500, "n1")},
			horizon: 300 * time.Second,
			wantErr: errBeyondHorizon,
		},
		{
			name:    "zero horizon disables the horizon check",
			events:  []Event{crash(400, "n1"), recover(500, "n1")},
			horizon: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schedule{Events: tc.events}
			err := s.ValidateWindows(tc.horizon)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
			if !errors.Is(err, errInvalidSchedule) {
				t.Fatalf("%v must wrap ErrInvalidSchedule", err)
			}
		})
	}
}

func TestValidateWindowsDoesNotMutate(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtSec: 60, Type: NodeRecover, Node: "n1"},
		{AtSec: 10, Type: NodeCrash, Node: "n1"},
	}}
	if err := s.ValidateWindows(0); err != nil {
		t.Fatalf("sorted view should validate: %v", err)
	}
	if s.Events[0].Type != NodeRecover {
		t.Fatal("ValidateWindows reordered the caller's schedule")
	}
}

func TestClamp(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtSec: 10, Type: NodeCrash, Node: "n1"},
		{AtSec: 60, Type: NodeRecover, Node: "n1"},
		{AtSec: 200, Type: NodeCrash, Node: "n2"},
		{AtSec: 400, Type: NodeRecover, Node: "n2"},          // closes past horizon: dropped
		{AtSec: 290, Type: LinkDown, LinkA: "a", LinkB: "b"}, // never closes: dropped
		{AtSec: 50, Type: LinkUp, LinkA: "c", LinkB: "d"},    // unmatched: dropped
	}}
	got := s.Clamp(300 * time.Second)
	if len(got.Events) != 2 {
		t.Fatalf("clamped to %d events, want 2: %v", len(got.Events), got.Events)
	}
	if got.Events[0].Node != "n1" || got.Events[1].Node != "n1" {
		t.Fatalf("kept the wrong window: %v", got.Events)
	}
	if err := got.ValidateWindows(300 * time.Second); err != nil {
		t.Fatalf("clamped schedule must validate: %v", err)
	}
	if len(s.Events) != 6 {
		t.Fatal("Clamp mutated its receiver")
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  GeneratorConfig
		ok   bool
	}{
		{name: "zero config is valid (defaults)", cfg: GeneratorConfig{}, ok: true},
		{name: "explicit rates valid", cfg: GeneratorConfig{NodeCrashesPerHour: 6, LinkFlapsPerHour: 12}, ok: true},
		{name: "negative crash rate", cfg: GeneratorConfig{NodeCrashesPerHour: -1}},
		{name: "NaN flap rate", cfg: GeneratorConfig{LinkFlapsPerHour: math.NaN()}},
		{name: "Inf probe rate", cfg: GeneratorConfig{ProbeLossWindowsPerHour: math.Inf(1)}},
		{name: "negative downtime", cfg: GeneratorConfig{MeanNodeDowntime: -time.Second}},
		{name: "negative horizon", cfg: GeneratorConfig{Horizon: -time.Minute}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok {
				if !errors.Is(err, errInvalidGenerator) || !errors.Is(err, errInvalidSchedule) {
					t.Fatalf("got %v, want ErrInvalidGenerator wrapping ErrInvalidSchedule", err)
				}
			}
		})
	}
}

// The generator's own output must satisfy the window validator at any seed:
// windows on one element never overlap by construction, and every opening
// lands inside the horizon.
func TestGeneratedSchedulesValidate(t *testing.T) {
	topo := testTopo(t)
	for seed := int64(0); seed < 20; seed++ {
		s := Generate(topo, GeneratorConfig{
			Seed: seed, Horizon: 20 * time.Minute,
			NodeCrashesPerHour: 12, MeanNodeDowntime: 90 * time.Second,
			LinkFlapsPerHour: 24, MeanLinkDowntime: 20 * time.Second,
			ProbeLossWindowsPerHour: 6,
		})
		if err := s.ValidateWindows(0); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
	}
}

func TestWindowsGroundTruth(t *testing.T) {
	s := &Schedule{Events: []Event{
		{AtSec: 10, Type: NodeCrash, Node: "n1"},
		{AtSec: 60, Type: NodeRecover, Node: "n1"},
		{AtSec: 30, Type: LinkDown, LinkA: "a", LinkB: "b"},
		{AtSec: 90, Type: LinkUp, LinkA: "a", LinkB: "b"},
		{AtSec: 40, Type: ProbeLossStart, LinkA: "a", LinkB: "b"}, // overlaps link window: separate namespace
		{AtSec: 50, Type: ProbeLossEnd, LinkA: "a", LinkB: "b"},
		{AtSec: 200, Type: NodeCrash, Node: "n2"}, // never recovers: clipped at horizon
		{AtSec: 250, Type: NodeCrash, Node: "n3"}, // recovers past horizon: clipped
		{AtSec: 400, Type: NodeRecover, Node: "n3"},
		{AtSec: 350, Type: LinkDown, LinkA: "c", LinkB: "d"}, // opens past horizon: dropped
		{AtSec: 5, Type: LinkUp, LinkA: "e", LinkB: "f"},     // unmatched close: ignored
	}}
	horizon := 300 * time.Second
	got := s.Windows(horizon)
	want := []Window{
		{Kind: windowNode, Key: "n1", Start: 10 * time.Second, End: 60 * time.Second},
		{Kind: WindowLink, Key: "a-b", Start: 30 * time.Second, End: 90 * time.Second},
		{Kind: WindowProbe, Key: "a-b", Start: 40 * time.Second, End: 50 * time.Second},
		{Kind: windowNode, Key: "n2", Start: 200 * time.Second, End: horizon},
		{Kind: windowNode, Key: "n3", Start: 250 * time.Second, End: horizon},
	}
	if len(got) != len(want) {
		t.Fatalf("windows = %+v\nwant %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if s.Windows(0) != nil {
		t.Error("horizon 0 must return nil")
	}
	if len(s.Events) != 11 {
		t.Error("Windows mutated its receiver")
	}
}

func TestWindowsReopenExtends(t *testing.T) {
	// A second crash while the first window is open (legal only in merged
	// schedules) extends the window rather than fragmenting the truth.
	s := &Schedule{Events: []Event{
		{AtSec: 10, Type: NodeCrash, Node: "n1"},
		{AtSec: 20, Type: NodeCrash, Node: "n1"},
		{AtSec: 50, Type: NodeRecover, Node: "n1"},
	}}
	got := s.Windows(100 * time.Second)
	if len(got) != 1 || got[0].Start != 10*time.Second || got[0].End != 50*time.Second {
		t.Fatalf("windows = %+v, want one 10s–50s window", got)
	}
}

func TestGeneratedWindowsMatchCounts(t *testing.T) {
	topo := testTopo(t)
	horizon := 20 * time.Minute
	s := Generate(topo, GeneratorConfig{
		Seed: 3, Horizon: horizon,
		NodeCrashesPerHour: 12, MeanNodeDowntime: 90 * time.Second,
		LinkFlapsPerHour: 24, MeanLinkDowntime: 20 * time.Second,
		ProbeLossWindowsPerHour: 6,
	})
	windows := s.Windows(horizon)
	opens := 0
	for _, e := range s.Events {
		if _, isOpen, _ := e.window(); isOpen && e.At() < horizon {
			opens++
		}
	}
	if len(windows) != opens {
		t.Errorf("windows = %d, window-opening events inside horizon = %d", len(windows), opens)
	}
	for _, w := range windows {
		if w.End <= w.Start || w.End > horizon {
			t.Errorf("degenerate window %+v", w)
		}
	}
}
