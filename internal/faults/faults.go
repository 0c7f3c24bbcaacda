// Package faults models the failures a volunteer-run community mesh actually
// suffers — node crashes, link outages and flaps, probe-loss windows — as a
// deterministic, seedable schedule of discrete events injected into the
// simulation. The paper's premise is that community Wi-Fi nodes are flaky;
// this package turns that flakiness into reproducible scenarios: the same
// schedule and seed always produce byte-identical runs, preserving the
// repository's determinism contract.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bass/internal/mesh"
)

// EventType enumerates fault event kinds.
type EventType string

// Fault event kinds. Crash/recover and down/up events come in pairs; probe
// loss windows make probes on a link fail without touching its capacity,
// modelling measurement-plane packet loss (the false-positive case a failure
// detector must tolerate).
const (
	NodeCrash      EventType = "node-crash"
	NodeRecover    EventType = "node-recover"
	LinkDown       EventType = "link-down"
	LinkUp         EventType = "link-up"
	ProbeLossStart EventType = "probe-loss-start"
	ProbeLossEnd   EventType = "probe-loss-end"
)

// ErrInvalidSchedule wraps schedule validation failures.
var ErrInvalidSchedule = errors.New("faults: invalid schedule")

// Typed validation failures, all wrapping ErrInvalidSchedule so existing
// errors.Is(err, ErrInvalidSchedule) checks keep matching.
var (
	// ErrOverlappingWindows marks two down-windows on the same element that
	// overlap (a crash before the previous recovery, a link going down twice).
	ErrOverlappingWindows = fmt.Errorf("%w: overlapping windows", ErrInvalidSchedule)
	// ErrBeyondHorizon marks a window-opening event scheduled at or past the
	// simulation horizon: it would silently never fire.
	ErrBeyondHorizon = fmt.Errorf("%w: event beyond horizon", ErrInvalidSchedule)
	// ErrUnmatchedRecovery marks a recovery/up/end event with no prior
	// matching window-opening event on the same element.
	ErrUnmatchedRecovery = fmt.Errorf("%w: unmatched recovery", ErrInvalidSchedule)
	// ErrInvalidGenerator marks a chaos-generator configuration that would
	// silently produce nothing or loop badly (negative or non-finite rates,
	// negative durations).
	ErrInvalidGenerator = fmt.Errorf("%w: generator config", ErrInvalidSchedule)
)

// Event is one scheduled fault. Node events set Node; link and probe-loss
// events set LinkA/LinkB (order-insensitive).
type Event struct {
	// AtSec is the virtual time offset of the event in seconds.
	AtSec float64   `json:"atSec"`
	Type  EventType `json:"type"`
	Node  string    `json:"node,omitempty"`
	LinkA string    `json:"linkA,omitempty"`
	LinkB string    `json:"linkB,omitempty"`
}

// At returns the event's virtual-time offset.
func (e Event) At() time.Duration {
	return time.Duration(e.AtSec * float64(time.Second))
}

// Link returns the normalised link the event targets.
func (e Event) Link() mesh.LinkID { return mesh.MakeLinkID(e.LinkA, e.LinkB) }

// isNodeEvent reports whether the event targets a node.
func (e Event) isNodeEvent() bool {
	return e.Type == NodeCrash || e.Type == NodeRecover
}

// String renders the event compactly for logs and reports.
func (e Event) String() string {
	if e.isNodeEvent() {
		return fmt.Sprintf("t=%gs %s %s", e.AtSec, e.Type, e.Node)
	}
	return fmt.Sprintf("t=%gs %s %s", e.AtSec, e.Type, e.Link())
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// Sort orders events by time, breaking ties by (type, node, link) so equal
// schedules are identical byte-for-byte however they were produced.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.AtSec != b.AtSec {
			return a.AtSec < b.AtSec
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Link().String() < b.Link().String()
	})
}

// Elements is the node and link set a schedule is validated against:
// *mesh.Topology, or a scenario spec's before its topology is built.
type Elements interface {
	HasNode(name string) bool
	HasLink(a, b string) bool
}

// Validate checks every event against the topology: known event types, known
// nodes and links, non-negative times.
func (s *Schedule) Validate(topo Elements) error {
	for i, e := range s.Events {
		if e.AtSec < 0 {
			return fmt.Errorf("%w: event %d at negative time %g", ErrInvalidSchedule, i, e.AtSec)
		}
		switch e.Type {
		case NodeCrash, NodeRecover:
			if !topo.HasNode(e.Node) {
				return fmt.Errorf("%w: event %d targets unknown node %q", ErrInvalidSchedule, i, e.Node)
			}
		case LinkDown, LinkUp, ProbeLossStart, ProbeLossEnd:
			if !topo.HasLink(e.LinkA, e.LinkB) {
				return fmt.Errorf("%w: event %d targets unknown link %s", ErrInvalidSchedule, i, e.Link())
			}
		default:
			return fmt.Errorf("%w: event %d has unknown type %q", ErrInvalidSchedule, i, e.Type)
		}
	}
	return nil
}

// ValidateWindows checks the schedule's window structure: down-windows on the
// same element must not overlap (a second crash before the recovery), every
// recovery must close a window that was opened, and — when horizon > 0 — no
// window may open at or past the horizon (it would silently never fire).
// Windows left open at the end of the schedule are legal (the outage persists
// to the end of the run), as are recoveries past the horizon (same effect).
// The schedule is inspected in sorted order without being mutated. Returns
// typed errors wrapping ErrInvalidSchedule.
//
// Apply this to hand-written schedules before merging generated chaos on top:
// the generator never overlaps windows on one element by construction, but a
// merged schedule legitimately stacks explicit and generated windows, so
// post-merge validation would reject working scenarios.
func (s *Schedule) ValidateWindows(horizon time.Duration) error {
	sorted := &Schedule{Events: append([]Event(nil), s.Events...)}
	sorted.Sort()
	open := make(map[windowID]Event)
	for _, e := range sorted.Events {
		id, opens, closes := e.window()
		switch {
		case opens:
			if prev, isOpen := open[id]; isOpen {
				return fmt.Errorf("%w: %s while %s still open", ErrOverlappingWindows, e, prev)
			}
			if horizon > 0 && e.At() >= horizon {
				return fmt.Errorf("%w: %s at or past horizon %s", ErrBeyondHorizon, e, horizon)
			}
			open[id] = e
		case closes:
			if _, isOpen := open[id]; !isOpen {
				return fmt.Errorf("%w: %s closes nothing", ErrUnmatchedRecovery, e)
			}
			delete(open, id)
		}
	}
	return nil
}

// Clamp returns a sorted copy keeping only complete down-windows that close
// by the horizon; windows that would open past it, stay open across it, or
// close without opening are dropped. The result always passes
// ValidateWindows(horizon) when the receiver's windows do not overlap — the
// tool for composing storm waves that each end fully recovered.
func (s *Schedule) Clamp(horizon time.Duration) *Schedule {
	sorted := &Schedule{Events: append([]Event(nil), s.Events...)}
	sorted.Sort()
	type openEntry struct {
		ev  Event
		idx int
	}
	open := make(map[windowID]openEntry)
	keep := make([]bool, len(sorted.Events))
	for i, e := range sorted.Events {
		id, opens, closes := e.window()
		switch {
		case opens:
			open[id] = openEntry{ev: e, idx: i}
		case closes:
			entry, isOpen := open[id]
			if !isOpen {
				continue // unmatched recovery: drop
			}
			delete(open, id)
			if entry.ev.At() < horizon && e.At() <= horizon {
				keep[entry.idx] = true
				keep[i] = true
			}
		default:
			keep[i] = true // non-window event types pass through untouched
		}
	}
	out := &Schedule{}
	for i, e := range sorted.Events {
		if keep[i] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Counts tallies events by type, sorted by type name — a compact schedule
// summary for reports.
func (s *Schedule) Counts() []struct {
	Type  EventType
	Count int
} {
	m := make(map[EventType]int)
	for _, e := range s.Events {
		m[e.Type]++
	}
	types := make([]EventType, 0, len(m))
	for t := range m {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	out := make([]struct {
		Type  EventType
		Count int
	}, len(types))
	for i, t := range types {
		out[i].Type = t
		out[i].Count = m[t]
	}
	return out
}
