package reconcile

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffExponentialWithoutJitter(t *testing.T) {
	base, max := 5*time.Second, 2*time.Minute
	want := []time.Duration{
		5 * time.Second, 10 * time.Second, 20 * time.Second, 40 * time.Second,
		80 * time.Second, 2 * time.Minute, 2 * time.Minute,
	}
	for i, w := range want {
		if got := backoff(base, max, 0, i+1, nil); got != w {
			t.Errorf("attempt %d: got %v want %v", i+1, got, w)
		}
	}
}

func TestBackoffOverflowSafe(t *testing.T) {
	// A shift-based implementation would overflow long before attempt 500;
	// the early cap must keep huge attempt counts pinned at max.
	got := backoff(5*time.Second, 2*time.Minute, 0, 500, nil)
	if got != 2*time.Minute {
		t.Fatalf("attempt 500: got %v want %v", got, 2*time.Minute)
	}
	if got := backoff(5*time.Second, 2*time.Minute, 0, 1<<30, nil); got != 2*time.Minute {
		t.Fatalf("attempt 2^30: got %v want %v", got, 2*time.Minute)
	}
}

// TestBackoffJitterBounds pins the statistical contract: every jittered delay
// stays inside [d·(1-j), d·(1+j)] ∩ [0, max], and the draws actually spread
// (not all equal), over a large sample.
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, max, jitter := 5*time.Second, 2*time.Minute, 0.2
	for attempt := 1; attempt <= 6; attempt++ {
		exact := backoff(base, max, 0, attempt, nil)
		lo := time.Duration(float64(exact) * (1 - jitter))
		hi := time.Duration(float64(exact) * (1 + jitter))
		if hi > max {
			hi = max
		}
		var sum time.Duration
		distinct := make(map[time.Duration]bool)
		const n = 2000
		for i := 0; i < n; i++ {
			d := backoff(base, max, jitter, attempt, rng)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
			sum += d
			distinct[d] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("attempt %d: jittered delays never varied", attempt)
		}
		// Mean of U[1-j, 1+j]·d is d when the band is uncapped; allow 5%.
		if hi == time.Duration(float64(exact)*(1+jitter)) {
			mean := sum / n
			if diff := mean - exact; diff < -exact/20 || diff > exact/20 {
				t.Errorf("attempt %d: mean %v strays from %v", attempt, mean, exact)
			}
		}
	}
}

func TestBackoffEqualSeedsIdentical(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 10; attempt++ {
		da := backoff(time.Second, time.Minute, 0.3, attempt, a)
		db := backoff(time.Second, time.Minute, 0.3, attempt, b)
		if da != db {
			t.Fatalf("attempt %d: equal seeds diverged: %v vs %v", attempt, da, db)
		}
	}
}

func TestBackoffNeverNegativeAndCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := backoff(time.Second, 2*time.Second, 5 /* clamped to 1 */, 3, rng)
		if d < 0 || d > 2*time.Second {
			t.Fatalf("delay %v outside [0, 2s]", d)
		}
	}
	if d := backoff(0, 0, 0, 1, nil); d <= 0 {
		t.Fatalf("zero config must default to a positive delay, got %v", d)
	}
}
