package scheduler

import "bass/internal/obs"

// Scheduler explainability: every choice pass can record its candidate
// scoreboard through an optional Recorder, as the journal's own rows. Each
// obs.BoardRow names a node and sets Reason to why it lost (empty for the
// winner), Value to its score, Want to its dependency count, and Local and
// Remote to the split of a bandwidth score into co-located and remote
// Mbps. Passing a nil Recorder skips all scoreboard bookkeeping. The rows a
// pass hands its Recorder live in the pass's pooled scratch (scratch.go).

// The reasons a row's node was not chosen. The winner's Reason is
// rejectNone.
const (
	rejectNone = ""
	// rejectInsufficientBandwidth: some placed remote dependency does not fit
	// in the path's available capacity plus headroom.
	rejectInsufficientBandwidth = "insufficient bandwidth"
	// rejectOutscored: the node was feasible but another ranked higher.
	rejectOutscored = "outscored"
	// rejectNoCapacity: the node lacks the CPU or memory to host the
	// component at all.
	rejectNoCapacity = "insufficient cpu/mem"
	// rejectCurrentNode: migration never re-selects the current placement.
	rejectCurrentNode = "current placement"
	// rejectHysteresis: the best (infeasible) candidate did not beat the
	// current placement's score by the anti-thrash margin, so the component
	// stays put.
	rejectHysteresis = "below hysteresis margin"
	// rejectPinnedElsewhere: the component is pinned and this is not its node.
	rejectPinnedElsewhere = "pinned elsewhere"
)

// Recorder receives each choice pass's scoreboard as it completes. rows is
// valid only for the duration of RecordBoard: the pass reuses it for its
// next choice, so an implementation that keeps rows must copy them.
type Recorder interface {
	RecordBoard(component string, rows []obs.BoardRow)
}
