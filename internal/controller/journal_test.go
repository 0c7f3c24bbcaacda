package controller

import (
	"bytes"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/obs"
)

// observedFixture attaches a journal to the failure fixture's monitor and
// controller, the way core.AttachObservability wires the full stack.
func observedFixture(t testing.TB) (*fixture, *mesh.Topology, *obs.Journal) {
	t.Helper()
	f, topo := failureFixture(t)
	journal := obs.NewJournal(0)
	plane := obs.NewPlane(journal, nil, f.eng.Now)
	plane.SetTraceSeed(f.eng.Seed())
	f.mon.SetObserver(plane)
	f.ctrl.SetObserver(plane)
	return f, topo, journal
}

// TestProbeErrorsRoundTripThroughJournal pins the emit → JSONL → parse path
// for per-link probe errors on a cycle's observation: the spans the controller hands out
// must survive serialisation and resolve to the same probe_error events, and
// the node_down verdict that follows must cite one of them as its cause.
func TestProbeErrorsRoundTripThroughJournal(t *testing.T) {
	f, topo, journal := observedFixture(t)
	if err := topo.SetNodeUp("c", false); err != nil {
		t.Fatal(err)
	}
	f.net.ApplyTopologyState()

	var lastDecision, verdictDecision cycleResult
	for cycle := 1; cycle <= 3; cycle++ {
		d := f.runCycle(noUsage, nil)
		lastDecision = d
		if len(d.NodesDown) > 0 {
			verdictDecision = d
		}
	}
	if len(verdictDecision.NodesDown) != 1 || verdictDecision.NodesDown[0].Node != "c" {
		t.Fatalf("no node-down verdict after 3 cycles; last decision %+v", lastDecision)
	}
	for _, pe := range verdictDecision.ProbeErrors {
		if pe.Span == 0 {
			t.Fatalf("probe error %v carries no span", pe)
		}
	}

	// Round-trip the journal through its wire format.
	var buf bytes.Buffer
	if err := journal.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx := obs.IndexBySpan(events)
	wantLink := mesh.MakeLinkID("b", "c").String()
	for _, pe := range verdictDecision.ProbeErrors {
		i, ok := idx[pe.Span]
		if !ok {
			t.Fatalf("probe error span %d not in parsed journal", pe.Span)
		}
		ev := events[i]
		if ev.Type != obs.EventProbeError || ev.Link != wantLink {
			t.Errorf("span %d resolves to %+v, want probe_error on %s", pe.Span, ev, wantLink)
		}
		if ev.Reason == "" {
			t.Errorf("probe_error %d has no reason", pe.Span)
		}
	}

	// The node_down verdict's cause chain ends at one of the probe errors.
	downSpan := verdictDecision.NodesDown[0].Span
	if downSpan == 0 {
		t.Fatal("verdict decision has no node_down span for c")
	}
	chain := obs.CauseChain(events, downSpan)
	if len(chain) != 2 {
		t.Fatalf("node_down chain = %+v, want verdict + probe error", chain)
	}
	if chain[0].Type != obs.EventNodeDown || chain[0].Node != "c" {
		t.Errorf("chain head = %+v", chain[0])
	}
	if !chain[1].IsProbeSample() || chain[1].Type != obs.EventProbeError {
		t.Errorf("chain root = %+v, want a probe_error sample", chain[1])
	}
}

// TestMigrationCandidateCitesViolation pins the probe→violation→candidate
// half of the migration cause chain at the controller level.
func TestMigrationCandidateCitesViolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 30 * time.Second
	f := newFixture(t, cfg)
	journal := obs.NewJournal(0)
	plane := obs.NewPlane(journal, nil, f.eng.Now)
	plane.SetTraceSeed(f.eng.Seed())
	f.mon.SetObserver(plane)
	f.ctrl.SetObserver(plane)

	// Saturate the a-b link so the headroom probe reports a violation in the
	// same cycle that badUsage nominates a candidate.
	if _, err := f.net.AddStream("bg", "a", "b", 24.9); err != nil {
		t.Fatal(err)
	}

	d := f.runCycle(badUsage, nil)
	if len(d.Report.Candidates) == 0 {
		t.Fatal("no migration candidates")
	}
	cand := d.Report.Candidates[0]
	span := d.CandidateSpans[cand]
	if span == 0 {
		t.Fatalf("candidate %q has no span; decision %+v", cand, d)
	}
	chain := obs.CauseChain(journal.Events(), span)
	if len(chain) != 3 {
		t.Fatalf("candidate chain length %d, want candidate→violation→probe: %+v", len(chain), chain)
	}
	if chain[0].Type != obs.EventMigrationCandidate || chain[0].Component != cand {
		t.Errorf("chain head = %+v", chain[0])
	}
	if chain[1].Type != obs.EventHeadroomViolation {
		t.Errorf("chain middle = %+v, want headroom_violation", chain[1])
	}
	if chain[2].Type != obs.EventProbeHeadroom {
		t.Errorf("chain root = %+v, want probe_headroom", chain[2])
	}
}
