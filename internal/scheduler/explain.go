package scheduler

// Scheduler explainability: every target-choice pass can record a structured
// Explanation — the full candidate scoreboard with per-node score term
// breakdowns and typed rejection reasons — through an optional Recorder.
// Passing a nil Recorder skips all explanation bookkeeping. The scoreboard a
// pass hands its Recorder lives in the pass's pooled scratch (scratch.go).

// Choice classifies what kind of placement decision an Explanation records.
type Choice string

const (
	// choiceSchedule is an initial placement (Bass/K3s Schedule).
	choiceSchedule Choice = "schedule"
	// choiceMigration is a live move off a congested placement.
	choiceMigration Choice = "migration"
	// choiceFailover is a re-placement after the host died.
	choiceFailover Choice = "failover"
	// choiceBatch is a joint whole-DAG decision made by the batch placement
	// search: per-component relocation scans, swap probes, and the final
	// greedy-vs-batch verdict all carry this kind.
	choiceBatch Choice = "batch"
)

// Rejection is the typed reason a candidate node was not chosen. The winner
// carries rejectNone.
type Rejection string

const (
	// rejectNone marks the chosen node.
	rejectNone Rejection = ""
	// rejectInsufficientBandwidth: some placed remote dependency does not fit
	// in the path's available capacity plus headroom.
	rejectInsufficientBandwidth Rejection = "insufficient bandwidth"
	// rejectOutscored: the node was feasible but another ranked higher.
	rejectOutscored Rejection = "outscored"
	// rejectNoCapacity: the node lacks the CPU or memory to host the
	// component at all.
	rejectNoCapacity Rejection = "insufficient cpu/mem"
	// rejectCurrentNode: migration never re-selects the current placement.
	rejectCurrentNode Rejection = "current placement"
	// rejectHysteresis: the best (infeasible) candidate did not beat the
	// current placement's score by the anti-thrash margin, so the component
	// stays put.
	rejectHysteresis Rejection = "below hysteresis margin"
	// rejectPinnedElsewhere: the component is pinned and this is not its node.
	rejectPinnedElsewhere Rejection = "pinned elsewhere"
)

// CandidateScore is one node's evaluation within a choice pass.
type CandidateScore struct {
	Node     string
	Feasible bool
	// DepCount is how many of the component's DAG neighbors the node
	// co-locates.
	DepCount int
	// Score is the node's total score: satisfiable edge bandwidth in Mbps for
	// migration/failover, ranking points for schedule.
	Score float64
	// LocalMbps and RemoteMbps split a migration/failover score into the
	// bandwidth satisfied by co-located edges and over remote paths (zero for
	// schedule explanations, whose score has no bandwidth terms).
	LocalMbps  float64
	RemoteMbps float64
	Rejection  Rejection
}

// Explanation is the structured record of one placement choice: which node
// won (empty when none did) and how every considered node scored.
type Explanation struct {
	Kind      Choice
	Component string
	// Current is the placement being moved away from (migration only).
	Current string
	// Chosen is the winning node, empty when the pass chose nothing.
	Chosen string
	// Candidates is the scoreboard, valid only during RecordExplanation.
	Candidates []CandidateScore
}

// Recorder receives explanations as choice passes complete. The
// Explanation's Candidates slice is valid only for the duration of
// RecordExplanation: the pass reuses it for its next choice, so an
// implementation that keeps rows must copy them.
type Recorder interface {
	RecordExplanation(Explanation)
}

// explain invokes the recorder if one is attached. Call sites gate candidate
// bookkeeping on rec != nil themselves; this only centralises the nil check.
func explain(rec Recorder, ex Explanation) {
	if rec != nil {
		rec.RecordExplanation(ex)
	}
}
