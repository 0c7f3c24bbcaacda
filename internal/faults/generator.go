package faults

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bass/internal/mesh"
)

// GeneratorConfig tunes the seeded chaos generator. Rates are expected events
// per element per hour; downtimes are exponentially distributed around the
// given means. Zero-valued fields take the listed defaults so an empty config
// still produces a usable storm.
type GeneratorConfig struct {
	// Seed drives the generator's private random source; equal seeds and
	// configs always produce the identical schedule.
	Seed int64
	// Horizon bounds event times (crash events are drawn in [0, Horizon);
	// recoveries may land past it and simply never fire).
	Horizon time.Duration
	// NodeCrashesPerHour is the expected crash arrivals per node (default 1).
	NodeCrashesPerHour float64
	// MeanNodeDowntime is the mean crash-to-recover gap (default 2 min).
	MeanNodeDowntime time.Duration
	// LinkFlapsPerHour is the expected outage arrivals per link (default 2).
	LinkFlapsPerHour float64
	// MeanLinkDowntime is the mean link outage length (default 30 s).
	MeanLinkDowntime time.Duration
	// ProbeLossWindowsPerHour is the expected probe-loss windows per link
	// (default 0 — opt in).
	ProbeLossWindowsPerHour float64
	// MeanProbeLossWindow is the mean probe-loss window length (default 60 s).
	MeanProbeLossWindow time.Duration
	// Protected lists nodes that never crash (control-plane hosts, gateways).
	Protected []string
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.NodeCrashesPerHour == 0 {
		c.NodeCrashesPerHour = 1
	}
	if c.MeanNodeDowntime == 0 {
		c.MeanNodeDowntime = 2 * time.Minute
	}
	if c.LinkFlapsPerHour == 0 {
		c.LinkFlapsPerHour = 2
	}
	if c.MeanLinkDowntime == 0 {
		c.MeanLinkDowntime = 30 * time.Second
	}
	if c.MeanProbeLossWindow == 0 {
		c.MeanProbeLossWindow = time.Minute
	}
	return c
}

// Validate rejects configurations the generator would otherwise consume
// silently: negative or non-finite rates (a zero rate is legal and means
// "none of this fault kind"), negative mean downtimes, and a negative
// horizon. Errors wrap errInvalidGenerator (and thus errInvalidSchedule).
func (c GeneratorConfig) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"nodeCrashesPerHour", c.NodeCrashesPerHour},
		{"linkFlapsPerHour", c.LinkFlapsPerHour},
		{"probeLossWindowsPerHour", c.ProbeLossWindowsPerHour},
	}
	for _, r := range rates {
		if r.v < 0 || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("%w: %s = %v", errInvalidGenerator, r.name, r.v)
		}
	}
	durs := []struct {
		name string
		v    time.Duration
	}{
		{"meanNodeDowntime", c.MeanNodeDowntime},
		{"meanLinkDowntime", c.MeanLinkDowntime},
		{"meanProbeLossWindow", c.MeanProbeLossWindow},
		{"horizon", c.Horizon},
	}
	for _, d := range durs {
		if d.v < 0 {
			return fmt.Errorf("%w: %s = %v", errInvalidGenerator, d.name, d.v)
		}
	}
	return nil
}

// Generate draws a fault schedule over the topology. Nodes are visited in
// insertion order and links in sorted-ID order, each consuming random draws
// in a fixed sequence, so the output depends only on (topology, config) —
// never on map iteration or wall clock.
func Generate(topo *mesh.Topology, cfg GeneratorConfig) *Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := cfg.Horizon.Seconds()
	s := &Schedule{}
	protected := make(map[string]bool, len(cfg.Protected))
	for _, n := range cfg.Protected {
		protected[n] = true
	}

	// Poisson arrivals via exponential gaps; each outage occupies [t, t+d)
	// and the next arrival is drawn after the recovery so windows on one
	// element never overlap.
	window := func(ratePerHour float64, meanDown time.Duration, emit func(start, end float64)) {
		if ratePerHour <= 0 || horizon <= 0 {
			return
		}
		t := rng.ExpFloat64() / ratePerHour * 3600
		for t < horizon {
			d := rng.ExpFloat64() * meanDown.Seconds()
			emit(t, t+d)
			t += d + rng.ExpFloat64()/ratePerHour*3600
		}
	}

	for _, node := range topo.Nodes() {
		if protected[node] {
			continue
		}
		node := node
		window(cfg.NodeCrashesPerHour, cfg.MeanNodeDowntime, func(start, end float64) {
			s.Events = append(s.Events,
				Event{AtSec: start, Type: NodeCrash, Node: node},
				Event{AtSec: end, Type: NodeRecover, Node: node})
		})
	}
	for _, l := range topo.Links() {
		id := l.ID
		window(cfg.LinkFlapsPerHour, cfg.MeanLinkDowntime, func(start, end float64) {
			s.Events = append(s.Events,
				Event{AtSec: start, Type: LinkDown, LinkA: id.A, LinkB: id.B},
				Event{AtSec: end, Type: LinkUp, LinkA: id.A, LinkB: id.B})
		})
		window(cfg.ProbeLossWindowsPerHour, cfg.MeanProbeLossWindow, func(start, end float64) {
			s.Events = append(s.Events,
				Event{AtSec: start, Type: ProbeLossStart, LinkA: id.A, LinkB: id.B},
				Event{AtSec: end, Type: ProbeLossEnd, LinkA: id.A, LinkB: id.B})
		})
	}
	s.Sort()
	return s
}
