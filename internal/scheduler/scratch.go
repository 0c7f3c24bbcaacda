package scheduler

import (
	"slices"
	"sync"
)

// choiceScratch holds the per-node buffers of one choice pass. Each pass —
// ChooseMigrationTarget, ChooseFailoverTarget and Bass.Schedule — takes one
// from choicePool at entry and returns it at exit, so a warm pass neither
// copies nor allocates a per-node slice, and concurrent passes never share
// one (ScoreNodes borrows one for its ranking too). The scoreboard a pass
// hands its Recorder lives here as well, which is why Explanation.Candidates
// is valid only during RecordExplanation.
type choiceScratch struct {
	deps    []neighbor       // the re-homed component's placed neighbours
	cands   []candidate      // scored target nodes, ranked in place
	skipped []CandidateScore // nodes filtered out before scoring
	order   []int32          // stable sort permutation over cands or ranks
	board   []CandidateScore // the scoreboard handed to the Recorder
	ranks   []NodeRank       // packing scores, in node order
	free    []NodeInfo       // Bass.Schedule's packing view
}

var choicePool = sync.Pool{New: func() any { return new(choiceScratch) }}

// sortedOrder refills order with 0..n-1 and stable-sorts it with cmp, which
// compares the values the two indices name. slices.SortStableFunc runs the
// same insertion-sort and symMerge steps as sort.SliceStable, so the
// permutation lists the values in exactly the order a stable sort of the
// values gives, pairs that a NaN key makes compare equal included.
func sortedOrder(order []int32, n int, cmp func(a, b int32) int) []int32 {
	order = order[:0]
	for i := 0; i < n; i++ {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, cmp)
	return order
}

// permute reorders vals in place so that vals[i] becomes the old
// vals[order[i]]. It follows each cycle of the permutation once, so every
// value moves once, and it consumes order.
func permute[T any](vals []T, order []int32) {
	for i := range order {
		if order[i] < 0 {
			continue
		}
		held := vals[i]
		j := i
		for {
			k := int(order[j])
			order[j] = -1
			if k == i {
				vals[j] = held
				break
			}
			vals[j] = vals[k]
			j = k
		}
	}
}
