package core

import (
	"slices"
	"testing"
	"time"
)

// TestEvalLogMatchesAppend pins the cycle log against a plain append log
// across chunk edges: the same records in the same order, in ⌈n/1024⌉ chunks
// of 1,024 records, none reallocated as it fills.
func TestEvalLogMatchesAppend(t *testing.T) {
	var l evalLog
	var want []EvaluationRecord
	if got := l.all(); got == nil || len(got) != 0 {
		t.Fatalf("empty log reads %#v, want an empty slice", got)
	}
	for i := 0; i < 3*1<<evalChunkShift+5; i++ {
		r := EvaluationRecord{At: time.Duration(i) * time.Second, Violating: i % 7, Candidates: i % 5, Migrated: i % 3}
		l.append(r)
		want = append(want, r)
		// Check either side of each chunk edge.
		if k := len(want) & (1<<evalChunkShift - 1); k <= 1 || k == 1<<evalChunkShift-1 {
			if got := l.all(); !slices.Equal(got, want) {
				t.Fatalf("after %d appends the log differs from the append log", len(want))
			}
		}
	}
	if got := l.all(); !slices.Equal(got, want) {
		t.Fatal("log differs from the append log")
	}
	if len(l.chunks) != 4 {
		t.Errorf("%d records in %d chunks, want 4", len(want), len(l.chunks))
	}
	for i, c := range l.chunks {
		if cap(c) != 1<<evalChunkShift {
			t.Errorf("chunk %d holds %d records, want %d", i, cap(c), 1<<evalChunkShift)
		}
	}
}
