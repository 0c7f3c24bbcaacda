package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chainFixture is a minimal probe→violation→candidate→migration chain plus
// the candidate scoreboard the decision evaluated.
func chainFixture() []Event {
	return []Event{
		{At: 1 * time.Second, Type: EventProbeHeadroom, Span: 1, Link: "n1-n2", Value: 1, Want: 2.5},
		{At: 1 * time.Second, Type: EventHeadroomViolation, Span: 2, Cause: 1, Link: "n1-n2", Value: 1, Want: 2.5},
		{At: 1 * time.Second, Type: EventMigrationCandidate, Span: 3, Cause: 2, App: "pair", Component: "b"},
		{At: 4 * time.Second, Type: EventSchedCandidate, Span: 4, Cause: 3, Component: "b", Node: "n2", Reason: "insufficient bandwidth"},
		{At: 4 * time.Second, Type: EventSchedCandidate, Span: 5, Cause: 3, Component: "b", Node: "n3", Value: 7.5, Want: 1},
		{At: 4 * time.Second, Type: EventMigration, Span: 6, Cause: 3, App: "pair", Component: "b", From: "n1", To: "n3"},
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	events := chainFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"type\":\"probe_full\"}\nnot json\n")); err == nil {
		t.Error("malformed line did not error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
	got, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank-only input: got %d events, err %v", len(got), err)
	}
}

func TestCauseChainResolvesToProbe(t *testing.T) {
	events := chainFixture()
	chain := CauseChain(events, 6)
	if len(chain) != 4 {
		t.Fatalf("chain length %d, want 4: %+v", len(chain), chain)
	}
	wantTypes := []EventType{EventMigration, EventMigrationCandidate, EventHeadroomViolation, EventProbeHeadroom}
	for i, want := range wantTypes {
		if chain[i].Type != want {
			t.Errorf("chain[%d] = %s, want %s", i, chain[i].Type, want)
		}
	}
	root := chain[len(chain)-1]
	if !root.IsProbeSample() {
		t.Errorf("chain root %s is not a probe sample", root.Type)
	}
}

func TestCauseChainTruncatesAndSurvivesCycles(t *testing.T) {
	// Cause 99 was evicted from the ring: chain stops at the last hop found.
	events := []Event{
		{Type: EventNodeDown, Span: 2, Cause: 99, Node: "n1"},
		{Type: EventCordon, Span: 3, Cause: 2, Node: "n1"},
	}
	if chain := CauseChain(events, 3); len(chain) != 2 {
		t.Errorf("truncated chain length %d, want 2", len(chain))
	}
	if chain := CauseChain(events, 42); chain != nil {
		t.Errorf("unknown span chain = %+v, want nil", chain)
	}
	cyclic := []Event{
		{Type: EventMigration, Span: 1, Cause: 2},
		{Type: EventMigration, Span: 2, Cause: 1},
	}
	if chain := CauseChain(cyclic, 1); len(chain) != 2 {
		t.Errorf("cyclic chain length %d, want 2 (walk must terminate)", len(chain))
	}
}

// causeFixture is a journal CheckCauses accepts: a probe-rooted alert that
// resolves through itself, and a fault-rooted reconcile drift.
func causeFixture() []Event {
	return []Event{
		{At: 30 * time.Second, Type: EventProbeHeadroom, Span: 1, Link: "n1-n2"},
		{At: 60 * time.Second, Type: EventFault, Span: 2, Node: "n2"},
		{At: 60 * time.Second, Type: EventNodeDown, Span: 3, Cause: 2, Node: "n2"},
		{At: 60 * time.Second, Type: EventReconcileDrift, Span: 4, Cause: 3, App: "cam", Component: "det"},
		{At: 90 * time.Second, Type: EventAlertFired, Span: 5, Cause: 1, SLO: "mesh/headroom", Reason: "page"},
		{At: 400 * time.Second, Type: EventAlertResolved, Span: 6, Cause: 5, SLO: "mesh/headroom", Reason: "page"},
	}
}

// TestCheckCauses pins the one cause-chain rule every journal gate runs:
// drifts and alerts root at a probe sample or a fault, resolves chain
// through their alert_fired, and anything else fails naming the event.
func TestCheckCauses(t *testing.T) {
	n, err := CheckCauses(causeFixture())
	if err != nil {
		t.Fatal(err)
	}
	if n != (CauseCounts{Drifts: 1, Alerts: 2}) {
		t.Errorf("counts = %+v, want 1 drift and 2 alerts", n)
	}
	if n, err := CheckCauses(chainFixture()); err != nil || n != (CauseCounts{}) {
		t.Errorf("journal without gated events: counts %+v, err %v", n, err)
	}

	for _, c := range []struct {
		name    string
		mutate  func(ev []Event) []Event
		wantErr string
	}{
		{"drift without cause", func(ev []Event) []Event { ev[3].Cause = 0; return ev },
			"t=60s drift cam/det has no cause"},
		{"dangling cause", func(ev []Event) []Event { ev[4].Cause = 99; return ev },
			"t=90s alert mesh/headroom (page): cause span 99 not in journal"},
		{"resolve skips its alert", func(ev []Event) []Event { ev[5].Cause = 1; return ev },
			`t=400s resolve mesh/headroom (page): cause is "probe_headroom", want the alert_fired that opened it`},
		{"alert rooted at a verdict", func(ev []Event) []Event {
			return append(ev, Event{Type: EventHeadroomViolation, Span: 7, Link: "n1-n2"},
				Event{At: 500 * time.Second, Type: EventAlertFired, Span: 8, Cause: 7, SLO: "mesh/headroom", Reason: "ticket"})
		}, `t=500s alert mesh/headroom (ticket): chain roots at "headroom_violation", want a probe sample or fault injection`},
		{"drift rooted at a decision", func(ev []Event) []Event { ev[2].Cause = 0; ev[2].Type = EventMigration; return ev },
			`t=60s drift cam/det: chain roots at "migration", want a probe sample or fault injection`},
	} {
		_, err := CheckCauses(c.mutate(causeFixture()))
		if err == nil || err.Error() != c.wantErr {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestScoreboard(t *testing.T) {
	events := chainFixture()
	decision := events[5]
	board := Scoreboard(events, decision)
	if len(board) != 2 {
		t.Fatalf("scoreboard has %d rows, want 2: %+v", len(board), board)
	}
	if board[0].Node != "n2" || board[0].Reason == "" {
		t.Errorf("row 0 = %+v, want rejected n2", board[0])
	}
	if board[1].Node != "n3" || board[1].Reason != "" {
		t.Errorf("row 1 = %+v, want winning n3", board[1])
	}
	// Candidates from a different pass (other Cause, instant, or component —
	// e.g. a sibling component scheduled by the same deploy) are excluded.
	other := append(chainFixture(),
		Event{At: 9 * time.Second, Type: EventSchedCandidate, Span: 9, Cause: 3, Component: "b", Node: "n4"},
		Event{At: 4 * time.Second, Type: EventSchedCandidate, Span: 10, Cause: 3, Component: "c", Node: "n5"})
	if board := Scoreboard(other, decision); len(board) != 2 {
		t.Errorf("scoreboard leaked another pass: %d rows, want 2", len(board))
	}
	if board := Scoreboard(events, Event{Type: EventMigration}); board != nil {
		t.Errorf("causeless decision scoreboard = %+v, want nil", board)
	}
}

func TestWriteChromeTraceDeterministicAndWellFormed(t *testing.T) {
	events := chainFixture()
	var b1, b2 bytes.Buffer
	if err := WriteChromeTrace(&b1, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same events encode to different trace bytes")
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *float64        `json:"ts"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	var slices, flowStarts, flowEnds int
	for _, te := range trace.TraceEvents {
		if te.Name == "" || te.Ph == "" || te.Ts == nil {
			t.Fatalf("trace event missing required field: %+v", te)
		}
		switch te.Ph {
		case "X":
			slices++
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		}
	}
	if slices != len(events) {
		t.Errorf("%d X slices, want %d", slices, len(events))
	}
	// Every event in the fixture except the root probe has a resolvable cause.
	if want := len(events) - 1; flowStarts != want || flowEnds != want {
		t.Errorf("flow events s=%d f=%d, want %d each", flowStarts, flowEnds, want)
	}
}

func TestWriteChromeTraceSkipsUnresolvableCauses(t *testing.T) {
	events := []Event{{Type: EventMigration, Span: 5, Cause: 99, To: "n2"}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, `"ph":"s"`) || strings.Contains(s, `"ph":"f"`) {
		t.Errorf("evicted cause produced flow events:\n%s", s)
	}
}
