package slo

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"bass/internal/metricstore"
	"bass/internal/obs"
)

// The fuzz script's vocabulary: three links, a 30 s interval, and tables the
// script indexes into for registered specs' windows and targets.
var (
	fuzzLinks    = []string{"l0", "l1", "l2"}
	fuzzWindows  = []time.Duration{10 * time.Second, 30 * time.Second, time.Minute, 100 * time.Second, 5 * time.Minute, 10 * time.Minute, time.Hour, 24 * time.Hour}
	fuzzTargets  = []float64{0.5, 0.9, 0.99, 0.999}
	fuzzInterval = 30 * time.Second
	// fuzzTiers adds a tier whose windows are not interval multiples, one of
	// them shorter than an interval, to the default ladder.
	fuzzTiers = append(DefaultTiers(), Tier{Name: "blip", Short: 10 * time.Second, Long: 45 * time.Second, Burn: 1})
)

const fuzzMaxTicks = 400

// Gap kinds between two ticks.
const (
	gapSame    = iota // same instant
	gapSub            // (amount+1)/9 of an interval
	gapOne            // one interval
	gapSeveral        // amount+2 intervals
)

// fuzzTick is one scripted epoch: how far time advances, which links carry a
// bad headroom sample, and optionally a spec registered before the tick.
type fuzzTick struct {
	gap, amount int
	bad         uint8 // bit i: link i is bad this tick
	register    bool
	scope       int // 0: every link; i: fuzzLinks[i-1]
	window      int // index into fuzzWindows
	target      int // index into fuzzTargets
}

func (ft fuzzTick) encode() []byte {
	reg := 0
	if ft.register {
		reg = 1
	}
	return []byte{
		byte(ft.gap | ft.amount<<2 | reg<<5 | ft.target<<6),
		byte(int(ft.bad) | ft.scope<<3 | ft.window<<5),
	}
}

func decodeTicks(data []byte) []fuzzTick {
	var out []fuzzTick
	for i := 0; i+1 < len(data) && len(out) < fuzzMaxTicks; i += 2 {
		ctl, b := data[i], data[i+1]
		out = append(out, fuzzTick{
			gap:      int(ctl & 3),
			amount:   int(ctl>>2) & 7,
			register: ctl&(1<<5) != 0,
			target:   int(ctl >> 6),
			bad:      b & 7,
			scope:    int(b>>3) & 3,
			window:   int(b >> 5),
		})
	}
	return out
}

func (ft fuzzTick) advance() time.Duration {
	switch ft.gap {
	case gapSame:
		return 0
	case gapSub:
		return time.Duration(ft.amount+1) * fuzzInterval / 9
	case gapOne:
		return fuzzInterval
	default:
		return time.Duration(ft.amount+2) * fuzzInterval
	}
}

// encodeRun is a seed script of n ticks one interval apart, every link good
// or every link bad.
func encodeRun(n int, bad bool) []byte {
	ft := fuzzTick{gap: gapOne}
	if bad {
		ft.bad = 7
	}
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, ft.encode()...)
	}
	return out
}

// refSpec is the reference side of one spec: the store fold of its own
// slo_good series, through the formulas the evaluator used before it kept
// running counts.
type refSpec struct {
	name   string
	window time.Duration
	target float64
	budget float64
	firing []bool
}

func (r *refSpec) agg(store *metricstore.Store, now time.Time, window time.Duration) (metricstore.Agg, bool) {
	return store.AggOver(obs.MetricSLOGood, map[string]string{"slo": r.name}, now, window)
}

func (r *refSpec) burn(store *metricstore.Store, now time.Time, window time.Duration) float64 {
	agg, ok := r.agg(store, now, window)
	if !ok {
		return 0
	}
	badFrac := 1 - agg.Avg()
	if badFrac < 0 {
		badFrac = 0
	}
	return badFrac / (1 - r.target)
}

func (r *refSpec) updateBudget(store *metricstore.Store, now time.Time) {
	agg, ok := r.agg(store, now, r.window)
	if !ok {
		return
	}
	badFrac := 1 - agg.Avg()
	if badFrac < 0 {
		badFrac = 0
	} else if badFrac > 1 {
		badFrac = 1
	}
	r.budget = 1 - badFrac/(1-r.target)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzSLOWindowsMatchStoreFold plays a script of irregular ticks — same
// instant, sub-interval, one and several intervals apart — each writing a
// good or bad headroom sample per link, with specs of their own windows and
// targets registered mid-run. After every tick each spec's budget and every
// tier's short and long burn must be bit-equal to the store fold of the
// spec's slo_good samples, and the alerts fired and resolved, their values
// and Firing() must follow the reference burns through the tier rules.
func FuzzSLOWindowsMatchStoreFold(f *testing.F) {
	// TestAlertFireAndResolve: 20 good, 4 bad, 80 good.
	f.Add(slices.Concat(encodeRun(20, false), encodeRun(4, true), encodeRun(80, false)))
	// TestBriefBlipDoesNotPage: one bad epoch in a healthy run.
	f.Add(slices.Concat(encodeRun(20, false), encodeRun(1, true), encodeRun(5, false)))
	// TestDeterministicJournal: 10 good, 6 bad, 20 good.
	f.Add(slices.Concat(encodeRun(10, false), encodeRun(6, true), encodeRun(20, false)))
	// TestQuietTickZeroAlloc: 200 quiet epochs, far past every window.
	f.Add(encodeRun(200, false))
	// Irregular ticks with mid-run registrations of every window.
	var mixed []byte
	for i := 0; i < 120; i++ {
		ft := fuzzTick{gap: i % 4, amount: i % 8, bad: uint8(i*5) & 7}
		if i%15 == 3 {
			ft.register, ft.scope, ft.window, ft.target = true, i%4, (i/15)%len(fuzzWindows), i%len(fuzzTargets)
		}
		mixed = append(mixed, ft.encode()...)
	}
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		fx := newFixture(t, Config{Interval: fuzzInterval, Tiers: fuzzTiers}, metricstore.Config{})
		var refs []*refSpec
		register := func(spec Spec) {
			if err := fx.ev.Register(spec); err != nil {
				t.Fatal(err)
			}
			st := fx.ev.byName[spec.Name]
			refs = append(refs, &refSpec{name: spec.Name, window: st.spec.Window, target: st.spec.Target, budget: 1, firing: make([]bool, len(fuzzTiers))})
		}
		register(Spec{Name: "mesh", Kind: LinkHeadroom, GoodThreshold: 5})
		register(Spec{Name: "l0", Kind: LinkHeadroom, Link: "l0", GoodThreshold: 5, Window: 2 * time.Minute, Target: 0.9})

		firing := 0
		for i, ft := range decodeTicks(data) {
			if ft.register {
				spec := Spec{
					Name:          fmt.Sprintf("s%d", i),
					Kind:          LinkHeadroom,
					GoodThreshold: 5,
					Window:        fuzzWindows[ft.window],
					Target:        fuzzTargets[ft.target],
				}
				if ft.scope > 0 {
					spec.Link = fuzzLinks[ft.scope-1]
				}
				register(spec)
			}
			fx.now += ft.advance()
			for l, link := range fuzzLinks {
				headroom := 50.0
				if ft.bad&(1<<l) != 0 {
					headroom = 1
				}
				fx.plane.Metric(obs.MetricLinkHeadroom, headroom, "link", link)
			}
			before := fx.journal.Len()
			fx.ev.Tick()
			now := unixEpoch.Add(fx.now)

			var want []obs.Event
			for _, r := range refs {
				st := fx.ev.byName[r.name]
				r.updateBudget(fx.store, now)
				if !sameBits(st.budget, r.budget) {
					t.Fatalf("tick %d %s: budget = %v, store fold %v", i, r.name, st.budget, r.budget)
				}
				for k, tier := range fuzzTiers {
					ts := &st.tiers[k]
					short, long := r.burn(fx.store, now, tier.Short), r.burn(fx.store, now, tier.Long)
					if !sameBits(ts.burnShort, short) || !sameBits(ts.burnLong, long) {
						t.Fatalf("tick %d %s %s: burns = %v/%v, store fold %v/%v", i, r.name, tier.Name, ts.burnShort, ts.burnLong, short, long)
					}
					ev := obs.Event{SLO: r.name, Reason: fmt.Sprintf("%s %s/%s", tier.Name, tier.Short, tier.Long), Value: long, Want: tier.Burn, Budget: r.budget}
					switch {
					case short >= tier.Burn && long >= tier.Burn && !r.firing[k]:
						r.firing[k] = true
						firing++
						ev.Type = obs.EventAlertFired
						want = append(want, ev)
					case short < tier.Burn && long < tier.Burn && r.firing[k]:
						r.firing[k] = false
						firing--
						ev.Type = obs.EventAlertResolved
						want = append(want, ev)
					}
				}
			}
			got := fx.journal.Events()[before:]
			if len(got) != len(want) {
				t.Fatalf("tick %d: %d alert events, want %d: %+v", i, len(got), len(want), got)
			}
			for k, ev := range got {
				w := want[k]
				if ev.Type != w.Type || ev.SLO != w.SLO || ev.Reason != w.Reason || !sameBits(ev.Value, w.Value) || ev.Want != w.Want || !sameBits(ev.Budget, w.Budget) {
					t.Fatalf("tick %d: event %d = %+v, want %+v", i, k, ev, w)
				}
			}
			if fx.ev.Firing() != firing {
				t.Fatalf("tick %d: Firing() = %d, want %d", i, fx.ev.Firing(), firing)
			}
		}
	})
}
