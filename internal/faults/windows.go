package faults

import (
	"sort"
	"time"
)

// WindowKind classifies a ground-truth degradation window by the element it
// degrades.
type WindowKind string

const (
	windowNode  WindowKind = "node"
	WindowLink  WindowKind = "link"
	WindowProbe WindowKind = "probe"
)

// Window is one ground-truth degradation interval reconstructed from a
// schedule: the element was down (or its probes were lossy) for
// [Start, End). The alertquality experiment scores detection latency and
// precision/recall against these.
type Window struct {
	Kind  WindowKind    `json:"kind"`
	Key   string        `json:"key"` // node name, or normalised link ID
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
}

// windowID names the element whose window an event opens or closes. Node,
// link, and probe-loss windows are distinct kinds: probe loss on a link
// legitimately overlaps an outage of the same link.
type windowID struct {
	kind WindowKind
	key  string // node name, or normalised link ID
}

// window maps a window event to the element whose down-window it opens or
// closes; opens and closes are both false for other event types.
func (e Event) window() (id windowID, opens, closes bool) {
	switch e.Type {
	case NodeCrash, NodeRecover:
		id = windowID{windowNode, e.Node}
	case LinkDown, LinkUp:
		id = windowID{WindowLink, e.Link().String()}
	case ProbeLossStart, ProbeLossEnd:
		id = windowID{WindowProbe, e.Link().String()}
	default:
		return id, false, false
	}
	opens = e.Type == NodeCrash || e.Type == LinkDown || e.Type == ProbeLossStart
	return id, opens, !opens
}

// Windows reconstructs the schedule's degradation windows inside
// [0, horizon): the typed ground truth an alert-quality harness scores
// against. Windows still open at the horizon are clipped to it; windows
// opening at or past the horizon are dropped (they never fire); a re-open
// while a window is already open on the same element extends the existing
// window; unmatched closes are ignored. The result is sorted by (Start,
// Kind, Key). horizon must be positive — with no end of time there is no
// truth about unclosed windows — so horizon ≤ 0 returns nil.
func (s *Schedule) Windows(horizon time.Duration) []Window {
	if horizon <= 0 {
		return nil
	}
	sorted := &Schedule{Events: append([]Event(nil), s.Events...)}
	sorted.Sort()

	open := make(map[windowID]time.Duration)
	var out []Window
	for _, e := range sorted.Events {
		id, opens, closes := e.window()
		switch {
		case opens:
			if e.At() >= horizon {
				continue
			}
			if _, isOpen := open[id]; !isOpen {
				open[id] = e.At()
			}
		case closes:
			start, isOpen := open[id]
			if !isOpen {
				continue
			}
			delete(open, id)
			end := e.At()
			if end > horizon {
				end = horizon
			}
			out = append(out, Window{Kind: id.kind, Key: id.key, Start: start, End: end})
		}
	}
	for id, start := range open {
		out = append(out, Window{Kind: id.kind, Key: id.key, Start: start, End: horizon})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Key < b.Key
	})
	return out
}
