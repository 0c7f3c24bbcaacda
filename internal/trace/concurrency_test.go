package trace

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestGenerateConcurrentDeterministic pins the contract the parallel
// experiment harness depends on: Generate draws only from a per-call source
// seeded by cfg.Seed, so racing generations neither interfere with each
// other nor perturb any generation's output; and a built trace is
// immutable, so goroutines may read one trace at once. Run under -race.
func TestGenerateConcurrentDeterministic(t *testing.T) {
	cfg := GenConfig{
		MeanMbps:       20,
		StdFrac:        0.3,
		Theta:          0.2,
		DipRatePerHour: 6,
		DipDepth:       0.25,
		Step:           time.Second,
		Duration:       10 * time.Minute,
	}

	sequential := make(map[int64]*Trace)
	for seed := int64(1); seed <= 8; seed++ {
		c := cfg
		c.Seed = seed
		tr, err := Generate("t", c)
		if err != nil {
			t.Fatal(err)
		}
		sequential[seed] = tr
	}

	// Every goroutine also walks the change-points of one shared trace: a
	// built trace is immutable, so concurrent readers need no lock.
	shared := sequential[1]
	walk := func() []time.Duration {
		var at []time.Duration
		for d, ok := shared.NextChangeAfter(-1); ok && d < 2*time.Minute; d, ok = shared.NextChangeAfter(d) {
			at = append(at, d)
		}
		return at
	}

	const goroutines = 32
	concurrent := make([]*Trace, goroutines)
	walks := make([][]time.Duration, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			walks[g] = walk()
			c := cfg
			c.Seed = int64(g%8) + 1 // every seed generated on 4 racing goroutines
			tr, err := Generate("t", c)
			if err != nil {
				t.Error(err)
				return
			}
			concurrent[g] = tr
		}(g)
	}
	wg.Wait()

	wantWalk := walk()
	for g, tr := range concurrent {
		want := sequential[int64(g%8)+1].Samples()
		if tr == nil {
			t.Fatalf("goroutine %d produced no trace", g)
		}
		got := tr.Samples()
		if len(got) != len(want) {
			t.Fatalf("goroutine %d: %d samples, want %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("goroutine %d seed %d: sample %d = %v, sequential %v",
					g, g%8+1, i, got[i], want[i])
			}
		}
		if !slices.Equal(walks[g], wantWalk) {
			t.Fatalf("goroutine %d: shared-trace walk %v, want %v", g, walks[g], wantWalk)
		}
	}
}
