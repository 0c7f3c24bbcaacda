package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bass/internal/obs"
)

// testJournal builds a minimal but complete decision chain: a headroom probe
// whose violation spawns a migration candidate, the scheduler's candidate
// scoreboard, and the migration itself.
func testJournal() []obs.Event {
	at := 30 * time.Second
	return []obs.Event{
		{At: at, Type: obs.EventProbeHeadroom, Span: 1, Link: "node1-node2", Value: 0.5, Want: 2},
		{At: at, Type: obs.EventHeadroomViolation, Span: 2, Cause: 1, Link: "node1-node2", Value: 0.5, Want: 2},
		{At: at, Type: obs.EventMigrationCandidate, Span: 3, Cause: 2, Component: "sfu",
			Reason: "bandwidth violation observed; cooldown started"},
		{At: 60 * time.Second, Type: obs.EventSchedCandidate, Span: 4, Cause: 3, App: "videoconf",
			Component: "sfu", Node: "node3", Value: 121, Want: 3, Local: 33, Remote: 88},
		{At: 60 * time.Second, Type: obs.EventSchedCandidate, Span: 5, Cause: 3, App: "videoconf",
			Component: "sfu", Node: "node2", Value: 66, Want: 3, Local: 33, Remote: 33,
			Reason: "insufficient bandwidth"},
		{At: 60 * time.Second, Type: obs.EventMigration, Span: 6, Cause: 3, App: "videoconf",
			Component: "sfu", From: "node1", To: "node3",
			Reason: "bandwidth violation persisted past cooldown"},
	}
}

// writeJournal dumps events as JSONL into a temp file.
func writeJournal(t *testing.T, events []obs.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExplainRendersChainAndScoreboard(t *testing.T) {
	path := writeJournal(t, testJournal())
	var out strings.Builder
	if err := run([]string{"explain", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"t=60s migration videoconf/sfu: node1 -> node3",
		"cause chain:",
		"t=30s migration_candidate sfu",
		"t=30s headroom_violation node1-node2",
		"t=30s probe_headroom node1-node2",
		"(root is a concrete probe sample)",
		"candidates:",
		"node3",
		"chosen",
		"insufficient bandwidth",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explain output missing %q:\n%s", want, got)
		}
	}
}

// alertJournal is a probe-rooted alert lifecycle: the headroom sample that
// is ground truth, the page alert it eventually trips, and the resolve that
// chains back through the alert.
func alertJournal() []obs.Event {
	return []obs.Event{
		{At: 30 * time.Second, Type: obs.EventProbeHeadroom, Span: 1, Link: "node1-node2", Value: 0.5, Want: 2},
		{At: 90 * time.Second, Type: obs.EventAlertFired, Span: 2, Cause: 1, SLO: "mesh/headroom",
			Reason: "page 1m0s/5m0s", Value: 15, Want: 14.4, Budget: 0.4},
		{At: 400 * time.Second, Type: obs.EventAlertResolved, Span: 3, Cause: 2, SLO: "mesh/headroom",
			Reason: "page 1m0s/5m0s", Value: 0.2, Want: 14.4, Budget: 0.38},
	}
}

// TestExplainRendersAlerts pins the alert rendering: SLO name, tier/windows,
// and budget-burn context, with the cause chain down to the probe sample.
func TestExplainRendersAlerts(t *testing.T) {
	path := writeJournal(t, alertJournal())
	var out strings.Builder
	if err := run([]string{"explain", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"t=90s alert_fired mesh/headroom page 1m0s/5m0s — burn 15.0x (threshold 14.4x), budget 40.0% left",
		"t=400s alert_resolved mesh/headroom page 1m0s/5m0s — burn 0.2x (threshold 14.4x), budget 38.0% left",
		"t=30s probe_headroom node1-node2",
		"(root is a concrete probe sample)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explain output missing %q:\n%s", want, got)
		}
	}
}

// TestCheckJournalGatesAlertChains checks that journal-mode check enforces
// the causal contract (obs.CheckCauses): alert events must chain to
// probe/fault ground truth, and resolves must chain through the alert that
// opened them.
func TestCheckJournalGatesAlertChains(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"check", writeJournal(t, alertJournal())}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2/2 alert events") {
		t.Errorf("check summary missing alert tally: %s", out.String())
	}

	noCause := alertJournal()
	noCause[1].Cause = 0
	if err := run([]string{"check", writeJournal(t, noCause)}, &strings.Builder{}); err == nil {
		t.Error("check accepted an alert_fired with no cause")
	}

	dangling := alertJournal()
	dangling[1].Cause = 99
	if err := run([]string{"check", writeJournal(t, dangling)}, &strings.Builder{}); err == nil {
		t.Error("check accepted an alert_fired with a dangling cause span")
	}

	// A resolve whose cause skips the alert and points straight at the probe
	// breaks the fired→resolved pairing contract.
	skipped := alertJournal()
	skipped[2].Cause = 1
	if err := run([]string{"check", writeJournal(t, skipped)}, &strings.Builder{}); err == nil {
		t.Error("check accepted an alert_resolved not chained to its alert_fired")
	}

	// An alert rooted at another decision event instead of ground truth.
	badRoot := []obs.Event{
		{At: 10 * time.Second, Type: obs.EventMigration, Span: 1, App: "a", Component: "b"},
		alertJournal()[1],
	}
	if err := run([]string{"check", writeJournal(t, badRoot)}, &strings.Builder{}); err == nil {
		t.Error("check accepted an alert chain rooted at a migration")
	}
}

func TestExplainFiltersByComponent(t *testing.T) {
	path := writeJournal(t, testJournal())
	var out strings.Builder
	if err := run([]string{"explain", "-component", "other", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no decision events") {
		t.Errorf("filtering a missing component should report no decisions:\n%s", out.String())
	}
}

func TestConvertThenCheckRoundTrips(t *testing.T) {
	journal := writeJournal(t, testJournal())
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"convert", "-o", trace, journal}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"check", trace}, &out); err != nil {
		t.Fatalf("converted trace failed its own schema check: %v", err)
	}
	// 6 slices (one per journal event) and 5 flow links (one s/f pair per
	// resolvable cause link).
	if got := out.String(); !strings.Contains(got, "6 slices") || !strings.Contains(got, "10 flow links") {
		t.Errorf("check summary off: %s", got)
	}
}

func TestCheckRejectsBadTraces(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"not-json.json": "{nope",
		"no-ph.json":    `{"traceEvents":[{"name":"x","ts":1,"pid":1}]}`,
		"no-name.json":  `{"traceEvents":[{"ph":"X","ts":1,"pid":1}]}`,
		"no-ts.json":    `{"traceEvents":[{"name":"x","ph":"X","pid":1}]}`,
	}
	for name, raw := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"check", path}, &strings.Builder{}); err == nil {
			t.Errorf("%s: check accepted an invalid trace", name)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"explain"},
		{"explain", "/nonexistent.jsonl"},
		{"convert"},
		{"check"},
		{"check", "/nonexistent.json"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
