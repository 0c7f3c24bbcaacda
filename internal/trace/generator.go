package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// floorMbps clamps generated capacity from below so links never fully vanish.
const floorMbps = 0.1

// GenConfig parameterises the synthetic CityLab-like trace generator.
//
// The generated process is a mean-reverting AR(1) (discrete
// Ornstein-Uhlenbeck) capacity series with superimposed shadowing dips:
//
//	x[t+1] = x[t] + theta*(mean - x[t]) + sigma*N(0,1)
//
// where sigma is chosen so the stationary standard deviation matches
// StdFrac*MeanMbps. Dips begin as Poisson events and multiply capacity by
// DipDepth for an exponentially distributed duration, modelling the
// minutes-long fades the paper observed on CityLab links.
type GenConfig struct {
	// MeanMbps is the long-run mean capacity.
	MeanMbps float64
	// StdFrac is the stationary standard deviation as a fraction of the mean
	// (the paper's link A has 0.10, link B 0.27).
	StdFrac float64
	// Theta is the mean-reversion rate per step in (0, 1]. Smaller values
	// produce slower, minutes-scale wander. Defaults to 0.05.
	Theta float64
	// DipRatePerHour is the expected number of shadowing dips per hour.
	DipRatePerHour float64
	// DipDepth multiplies capacity during a dip (e.g. 0.3 keeps 30%).
	DipDepth float64
	// DipMeanDuration is the mean dip length. Defaults to 45 s.
	DipMeanDuration time.Duration
	// Step is the sampling interval. Defaults to 1 s.
	Step time.Duration
	// Duration is the total trace length. Defaults to 20 min.
	Duration time.Duration
	// Seed seeds the deterministic generator.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Theta == 0 {
		c.Theta = 0.05
	}
	if c.DipMeanDuration == 0 {
		c.DipMeanDuration = 45 * time.Second
	}
	if c.Step == 0 {
		c.Step = time.Second
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Minute
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c GenConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.MeanMbps <= 0:
		return fmt.Errorf("trace: MeanMbps must be positive, got %v", c.MeanMbps)
	case c.StdFrac < 0:
		return fmt.Errorf("trace: StdFrac must be non-negative, got %v", c.StdFrac)
	case c.Theta <= 0 || c.Theta > 1:
		return fmt.Errorf("trace: Theta must be in (0,1], got %v", c.Theta)
	case c.DipDepth < 0 || c.DipDepth > 1:
		return fmt.Errorf("trace: DipDepth must be in [0,1], got %v", c.DipDepth)
	case c.Step <= 0:
		return fmt.Errorf("trace: Step must be positive, got %v", c.Step)
	case c.Duration < c.Step:
		return fmt.Errorf("trace: Duration %v shorter than Step %v", c.Duration, c.Step)
	}
	return nil
}

// Generate produces a synthetic trace named name from the configuration.
// Every random draw comes from a source local to the call, seeded by
// cfg.Seed — there is no package-global generator — so concurrent Generate
// calls are safe and each is deterministic in its config alone.
func Generate(name string, cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.Duration / cfg.Step)
	out := &Trace{Name: name, Step: cfg.Step}

	// Stationary variance of AR(1): sigma^2 / (1-(1-theta)^2).
	targetStd := cfg.StdFrac * cfg.MeanMbps
	phi := 1 - cfg.Theta
	sigma := targetStd * math.Sqrt(1-phi*phi)

	stepsPerHour := float64(time.Hour / cfg.Step)
	dipProb := cfg.DipRatePerHour / stepsPerHour
	dipRemaining := 0 // steps left in the current dip

	x := cfg.MeanMbps
	for i := 0; i < n; i++ {
		x += cfg.Theta*(cfg.MeanMbps-x) + sigma*rng.NormFloat64()
		v := x
		if dipRemaining > 0 {
			v *= cfg.DipDepth
			dipRemaining--
		} else if dipProb > 0 && rng.Float64() < dipProb {
			mean := float64(cfg.DipMeanDuration / cfg.Step)
			dipRemaining = 1 + int(rng.ExpFloat64()*mean)
			v *= cfg.DipDepth
		}
		if v < floorMbps {
			v = floorMbps
		}
		out.add(v, 1)
	}
	return out, nil
}

// CityLabStable returns a generator config matching the paper's stable link
// (Fig 2 top: mean 19.9 Mbps, std 10% of mean).
func CityLabStable(seed int64) GenConfig {
	return GenConfig{
		MeanMbps:       19.9,
		StdFrac:        0.10,
		Theta:          0.06,
		DipRatePerHour: 2,
		DipDepth:       0.6,
		Seed:           seed,
	}
}

// CityLabVolatile returns a generator config matching the paper's volatile
// link (Fig 2 bottom: mean 7.62 Mbps, std 27% of mean).
func CityLabVolatile(seed int64) GenConfig {
	return GenConfig{
		MeanMbps:       7.62,
		StdFrac:        0.27,
		Theta:          0.04,
		DipRatePerHour: 8,
		DipDepth:       0.35,
		Seed:           seed,
	}
}

// StepTrace builds a piecewise-constant trace from (start offset, Mbps)
// breakpoints: sample i holds the Mbps of the last level, in slice order,
// whose From ≤ i·step, or 0 while none applies. Levels need not be sorted,
// and of two with the same From the later in the slice wins. It stores
// O(levels) runs whatever the horizon. Used to script controlled experiments
// such as the paper's 25 Mbps throttling windows (Figs 3, 5, 11, 13) and
// every mesh.Grid link.
func StepTrace(name string, step time.Duration, total time.Duration, levels []Level) *Trace {
	out := &Trace{Name: name, Step: step}
	n := int(total / step)
	if n <= 0 {
		return out
	}
	// The sample value can change only where a level starts to apply: at
	// index 0, and at ⌈From/step⌉ for a level starting later.
	starts := []int{0}
	for _, l := range levels {
		if l.From <= 0 {
			continue
		}
		i := int(l.From / step)
		if l.From%step != 0 {
			i++
		}
		if i < n {
			starts = append(starts, i)
		}
	}
	sort.Ints(starts)
	starts = append(starts, n)
	for k, i := range starts[:len(starts)-1] {
		at := time.Duration(i) * step
		v := 0.0
		for _, l := range levels {
			if l.From <= at {
				v = l.Mbps
			}
		}
		out.add(v, starts[k+1]-i)
	}
	return out
}

// Level is one breakpoint of a StepTrace.
type Level struct {
	From time.Duration
	Mbps float64
}
