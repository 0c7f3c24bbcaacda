package experiments

import (
	"time"

	"bass/internal/trace"
)

// fig2Result characterises the two CityLab-calibrated links of Fig 2.
type fig2Result struct {
	Stable   trace.Summary
	Volatile trace.Summary
	// Smoothed summaries over the 10-second rolling mean, as plotted.
	StableSmoothed   trace.Summary
	VolatileSmoothed trace.Summary
}

// runFig2 generates the two bandwidth traces of Fig 2 and summarises them
// the way the paper captions them (mean, std as % of mean, over a 10 s
// rolling mean).
func runFig2(seed int64, duration time.Duration) (fig2Result, error) {
	var out fig2Result
	stableCfg := trace.CityLabStable(seed)
	stableCfg.Duration = duration
	volatileCfg := trace.CityLabVolatile(seed + 1)
	volatileCfg.Duration = duration

	stable, err := trace.Generate("stable-link", stableCfg)
	if err != nil {
		return out, err
	}
	volatile, err := trace.Generate("volatile-link", volatileCfg)
	if err != nil {
		return out, err
	}
	if out.Stable, err = stable.Summarize(); err != nil {
		return out, err
	}
	if out.Volatile, err = volatile.Summarize(); err != nil {
		return out, err
	}
	if out.StableSmoothed, err = stable.RollingMean(10 * time.Second).Summarize(); err != nil {
		return out, err
	}
	if out.VolatileSmoothed, err = volatile.RollingMean(10 * time.Second).Summarize(); err != nil {
		return out, err
	}
	return out, nil
}

// Table renders the Fig 2 caption statistics.
func (r fig2Result) Table() Table {
	row := func(name string, s trace.Summary) []string {
		return []string{name, f2(s.MeanMbps), f2(s.StdMbps), f2(s.StdPctMean), f2(s.MinMbps), f2(s.MaxMbps)}
	}
	return Table{
		Title:  "Fig 2: bandwidth variation on two CityLab-calibrated links (paper: mean 19.9 Mbps / std 10%, mean 7.62 Mbps / std 27%)",
		Header: []string{"link", "mean_mbps", "std_mbps", "std_pct_mean", "min", "max"},
		Rows: [][]string{
			row("stable(raw)", r.Stable),
			row("stable(10s-mean)", r.StableSmoothed),
			row("volatile(raw)", r.Volatile),
			row("volatile(10s-mean)", r.VolatileSmoothed),
		},
	}
}
