package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ReadJSONL parses a journal written by WriteJSONL back into events, one JSON
// object per line. Blank lines are skipped; a malformed line aborts with its
// line number so truncated journals fail loudly rather than silently.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// IndexBySpan maps span ID → index into events for every event carrying a
// span. Later events win on (pathological) duplicate spans.
func IndexBySpan(events []Event) map[uint64]int {
	idx := make(map[uint64]int)
	for i, ev := range events {
		if ev.Span != 0 {
			idx[ev.Span] = i
		}
	}
	return idx
}

// CauseChain walks an event's Cause links back to their root and returns the
// chain effect-first: events[0] is the event with the given span, the last
// entry is the root cause (typically a probe sample). Spans evicted from a
// ring-buffered journal truncate the chain at the last resolvable hop; a
// cycle (impossible for correctly threaded spans) also stops the walk.
func CauseChain(events []Event, span uint64) []Event {
	return causeChain(events, IndexBySpan(events), span, nil)
}

// causeChain is CauseChain over a prebuilt span index, appending to chain.
// Every event on the chain carries the span that led to it, so a span
// already on the chain is a cycle; chains are a handful of hops, so a scan
// finds it without a per-walk set.
func causeChain(events []Event, idx map[uint64]int, span uint64, chain []Event) []Event {
	for span != 0 && !onChain(chain, span) {
		i, ok := idx[span]
		if !ok {
			break
		}
		chain = append(chain, events[i])
		span = events[i].Cause
	}
	return chain
}

func onChain(chain []Event, span uint64) bool {
	for _, ev := range chain {
		if ev.Span == span {
			return true
		}
	}
	return false
}

// CauseCounts tallies the events CheckCauses gated: reconcile drifts, and
// SLO alert transitions (fired and resolved alike).
type CauseCounts struct {
	Drifts, Alerts int
}

// CheckCauses enforces a decision journal's causal contract: every
// reconcile_drift, alert_fired and alert_resolved event must carry a cause
// chain that resolves to ground truth — a concrete probe sample or an
// injected fault — and every alert_resolved must chain through the
// alert_fired that opened it. The first event with no cause, an
// unresolvable cause span, or a chain rooted anywhere else fails the check;
// on success every counted event resolved.
func CheckCauses(events []Event) (CauseCounts, error) {
	var n CauseCounts
	idx := IndexBySpan(events)
	var chain []Event
	for _, ev := range events {
		switch ev.Type {
		case EventReconcileDrift:
			n.Drifts++
		case EventAlertFired, EventAlertResolved:
			n.Alerts++
		default:
			continue
		}
		if ev.Cause == 0 {
			return n, fmt.Errorf("%s has no cause", causeSubject(ev))
		}
		chain = causeChain(events, idx, ev.Span, chain[:0])
		if len(chain) < 2 {
			return n, fmt.Errorf("%s: cause span %d not in journal", causeSubject(ev), ev.Cause)
		}
		// A resolve chains through the alert that opened it, and from there
		// down to the same ground truth.
		if ev.Type == EventAlertResolved && chain[1].Type != EventAlertFired {
			return n, fmt.Errorf("%s: cause is %q, want the alert_fired that opened it",
				causeSubject(ev), chain[1].Type)
		}
		if root := chain[len(chain)-1]; !root.IsProbeSample() && root.Type != EventFault {
			return n, fmt.Errorf("%s: chain roots at %q, want a probe sample or fault injection",
				causeSubject(ev), root.Type)
		}
	}
	return n, nil
}

// causeSubject names a gated event in CheckCauses' errors.
func causeSubject(ev Event) string {
	switch ev.Type {
	case EventReconcileDrift:
		return fmt.Sprintf("t=%.0fs drift %s/%s", ev.At.Seconds(), ev.App, ev.Component)
	case EventAlertFired:
		return fmt.Sprintf("t=%.0fs alert %s (%s)", ev.At.Seconds(), ev.SLO, ev.Reason)
	}
	return fmt.Sprintf("t=%.0fs resolve %s (%s)", ev.At.Seconds(), ev.SLO, ev.Reason)
}

// IsProbeSample reports whether the event is a concrete probe observation —
// the ground truth every decision chain should resolve back to.
func (e Event) IsProbeSample() bool {
	switch e.Type {
	case EventProbeFull, EventProbeHeadroom, EventProbeError:
		return true
	}
	return false
}

// Scoreboard returns the candidate-evaluation events belonging to the given
// decision event: sched_candidate events sharing its Cause span, component,
// and virtual timestamp (one decision pass evaluates all its candidates at
// one instant). Matching the component keeps deploy-time decisions — several
// components scheduled at the same instant under the same deploy cause —
// from borrowing each other's candidates.
func Scoreboard(events []Event, decision Event) []Event {
	if decision.Cause == 0 {
		return nil
	}
	var board []Event
	for _, ev := range events {
		if ev.Type == EventSchedCandidate && ev.Cause == decision.Cause && ev.At == decision.At &&
			(decision.Component == "" || ev.Component == decision.Component) {
			board = append(board, ev)
		}
	}
	return board
}
