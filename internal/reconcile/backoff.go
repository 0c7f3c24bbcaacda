package reconcile

import (
	"math/rand"
	"time"
)

// backoff returns the delay before retry number attempt (1-based):
// exponential doubling from base, capped at max, then scaled by a uniform
// jitter factor in [1-jitter, 1+jitter] drawn from rng.
//
// The jitter draw comes from the caller's seeded RNG — never the wall clock —
// so equal seeds produce byte-identical retry timelines; a nil rng or a
// non-positive jitter yields the pure exponential delay. jitter is clamped to
// [0, 1] so the result can never go negative, and the jittered delay is
// re-capped at max so max is a hard bound, not just a pre-jitter one.
func backoff(base, max time.Duration, jitter float64, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if max < base {
		max = base
	}
	d := base
	// Loop instead of shifting by attempt-1: the early exit at max makes
	// large attempt counts overflow-safe.
	for i := 1; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	if jitter <= 0 || rng == nil {
		return d
	}
	if jitter > 1 {
		jitter = 1
	}
	factor := 1 - jitter + 2*jitter*rng.Float64()
	d = time.Duration(float64(d) * factor)
	if d > max {
		d = max
	}
	if d < 0 {
		d = 0
	}
	return d
}
