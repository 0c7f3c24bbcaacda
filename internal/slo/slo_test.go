package slo

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"bass/internal/metricstore"
	"bass/internal/obs"
)

// fixture is a hand-driven plane + evaluator: the test plays virtual time,
// feeds SLI samples, and ticks epochs explicitly.
type fixture struct {
	now     time.Duration
	journal *obs.Journal
	store   *metricstore.Store
	plane   *obs.Plane
	ev      *Evaluator
}

func newFixture(t testing.TB, cfg Config, storeCfg metricstore.Config) *fixture {
	t.Helper()
	f := &fixture{
		journal: obs.NewJournal(0),
		store:   metricstore.NewWithConfig(storeCfg),
	}
	f.plane = obs.NewPlane(f.journal, f.store, func() time.Duration { return f.now })
	f.plane.SetTraceSeed(42)
	f.ev = New(f.plane, cfg)
	return f
}

// step advances one epoch, records the link-headroom sample, and ticks.
func (f *fixture) step(interval time.Duration, headroom float64) {
	f.now += interval
	f.plane.Metric(obs.MetricLinkHeadroom, headroom, "link", "a-b")
	f.ev.Tick()
}

func eventsOfType(j *obs.Journal, t obs.EventType) []obs.Event {
	var out []obs.Event
	for _, ev := range j.Events() {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

func TestRegisterValidation(t *testing.T) {
	f := newFixture(t, Config{}, metricstore.Config{})
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid link spec", Spec{Name: "hr", Kind: LinkHeadroom}, true},
		{"valid app spec", Spec{Name: "gp", Kind: DependencyGoodput, App: "cam"}, true},
		{"valid control spec", Spec{Name: "cl", Kind: ControlLatency}, true},
		{"missing name", Spec{Kind: LinkHeadroom}, false},
		{"duplicate name", Spec{Name: "hr", Kind: LinkHeadroom}, false},
		{"unknown kind", Spec{Name: "x", Kind: "bogus"}, false},
		{"goodput without app", Spec{Name: "y", Kind: DependencyGoodput}, false},
		{"target out of range", Spec{Name: "z", Kind: LinkHeadroom, Target: 1.5}, false},
	}
	for _, tc := range cases {
		err := f.ev.Register(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestAlertFireAndResolve drives a link-headroom SLO through a degradation:
// the page tier fires while the budget burns, carries a cause chain rooted
// at the headroom violation, and resolves once the bad epochs age out of
// both windows.
func TestAlertFireAndResolve(t *testing.T) {
	interval := 30 * time.Second
	f := newFixture(t, Config{Interval: interval}, metricstore.Config{})
	if err := f.ev.Register(Spec{Name: "mesh-headroom", Kind: LinkHeadroom, Link: "a-b", GoodThreshold: 5, Target: 0.99}); err != nil {
		t.Fatal(err)
	}

	// Healthy warmup: 20 epochs of ample headroom.
	for i := 0; i < 20; i++ {
		f.step(interval, 50)
	}
	if got := f.ev.Firing(); got != 0 {
		t.Fatalf("firing after warmup = %d", got)
	}

	// Ground truth lands just before the degradation, as netmon would emit it.
	violationSpan := f.plane.EmitSpan(obs.Event{Type: obs.EventHeadroomViolation, Link: "a-b", Value: 1, Want: 5})

	// Degrade for 4 epochs (a 2-minute fault window).
	for i := 0; i < 4; i++ {
		f.step(interval, 1)
	}
	fired := eventsOfType(f.journal, obs.EventAlertFired)
	if len(fired) == 0 {
		t.Fatal("no alert fired during sustained degradation")
	}
	page := fired[0]
	if page.SLO != "mesh-headroom" || page.Link != "a-b" {
		t.Errorf("alert scope = %+v", page)
	}
	if page.Reason != "page 1m0s/5m0s" {
		t.Errorf("alert reason = %q", page.Reason)
	}
	if page.Cause != violationSpan {
		t.Errorf("alert cause = %d, want violation span %d", page.Cause, violationSpan)
	}
	if page.Value < page.Want {
		t.Errorf("fired with burn %v below threshold %v", page.Value, page.Want)
	}
	chain := obs.CauseChain(f.journal.Events(), page.Span)
	if len(chain) != 2 || chain[1].Type != obs.EventHeadroomViolation {
		t.Errorf("cause chain = %+v, want alert → violation", chain)
	}

	// Recover: bad epochs age out of the page tier's 5m long window quickly
	// and the ticket tier's 30m window eventually (80 epochs = 40 minutes).
	for i := 0; i < 80; i++ {
		f.step(interval, 50)
	}
	resolved := eventsOfType(f.journal, obs.EventAlertResolved)
	if len(resolved) == 0 {
		t.Fatal("alert never resolved after recovery")
	}
	if resolved[0].Cause != page.Span {
		t.Errorf("resolve cause = %d, want fired span %d", resolved[0].Cause, page.Span)
	}
	if got := f.ev.Firing(); got != 0 {
		t.Errorf("firing after recovery = %d", got)
	}

	// Budget spent: 4 bad epochs in a 1h window at 0.99 over 30s epochs is
	// past the allowance, so the final budget must be below full.
	status := f.ev.Snapshot()
	if len(status) != 1 {
		t.Fatalf("snapshot = %d specs", len(status))
	}
	if status[0].Budget >= 1 {
		t.Errorf("budget = %v after burning, want < 1", status[0].Budget)
	}
	if !status[0].Good {
		t.Errorf("spec should be good again after recovery: %+v", status[0])
	}
}

// TestBriefBlipDoesNotPage pins the long window's job: one bad epoch in an
// otherwise healthy run must not fire the page tier.
func TestBriefBlipDoesNotPage(t *testing.T) {
	interval := 30 * time.Second
	f := newFixture(t, Config{Interval: interval}, metricstore.Config{})
	if err := f.ev.Register(Spec{Name: "hr", Kind: LinkHeadroom, Link: "a-b", GoodThreshold: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.step(interval, 50)
	}
	f.step(interval, 1) // a single bad epoch
	for i := 0; i < 5; i++ {
		f.step(interval, 50)
	}
	if fired := eventsOfType(f.journal, obs.EventAlertFired); len(fired) != 0 {
		t.Errorf("brief blip fired %d alerts: %+v", len(fired), fired)
	}
}

// TestControlLatencySLI pins the inverted comparison: gaps above the
// threshold are bad.
func TestControlLatencySLI(t *testing.T) {
	interval := 30 * time.Second
	f := newFixture(t, Config{Interval: interval}, metricstore.Config{})
	if err := f.ev.Register(Spec{Name: "loop", Kind: ControlLatency}); err != nil {
		t.Fatal(err)
	}
	f.now += interval
	f.plane.Metric(obs.MetricControlEpochGap, 30)
	f.ev.Tick()
	if st := f.ev.Snapshot()[0]; !st.Good {
		t.Errorf("30s gap under 60s threshold judged bad: %+v", st)
	}
	f.now += interval
	f.plane.Metric(obs.MetricControlEpochGap, 300)
	f.ev.Tick()
	if st := f.ev.Snapshot()[0]; st.Good {
		t.Errorf("300s gap over 60s threshold judged good: %+v", st)
	}
}

// TestNoDataIsGood pins the no-data policy: a spec whose source metric has
// no samples this epoch counts as good (metrics lag must not page).
func TestNoDataIsGood(t *testing.T) {
	f := newFixture(t, Config{Interval: 30 * time.Second}, metricstore.Config{})
	if err := f.ev.Register(Spec{Name: "gp", Kind: DependencyGoodput, App: "cam"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f.now += 30 * time.Second
		f.ev.Tick()
	}
	st := f.ev.Snapshot()[0]
	if !st.Good || st.HasData {
		t.Errorf("no-data spec = %+v, want good without data", st)
	}
	if f.ev.Firing() != 0 {
		t.Errorf("no-data spec fired an alert")
	}
}

// TestBudgetRemaining pins the error-budget formula: the fraction of the
// window's bad-epoch allowance left, 1 untouched and negative overspent.
func TestBudgetRemaining(t *testing.T) {
	budgetAfter := func(bad map[int]bool) float64 {
		f := newFixture(t, Config{Interval: time.Second}, metricstore.Config{})
		if err := f.ev.Register(Spec{Name: "hr", Kind: LinkHeadroom, GoodThreshold: 5, Window: 100 * time.Second, Target: 0.99}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			headroom := 50.0
			if bad[i] {
				headroom = 1
			}
			f.step(time.Second, headroom)
		}
		return f.ev.Snapshot()[0].Budget
	}
	// 100 epochs, 2 bad: 2% bad vs a 1% budget at target 0.99 → budget
	// remaining = 1 - 0.02/0.01 = -1 (overspent).
	if got := budgetAfter(map[int]bool{10: true, 20: true}); math.Abs(got-(-1)) > 1e-9 {
		t.Errorf("budget = %v, want -1", got)
	}
	if got := budgetAfter(nil); got != 1 {
		t.Errorf("all-good budget = %v, want 1", got)
	}
	f := newFixture(t, Config{}, metricstore.Config{})
	if err := f.ev.Register(Spec{Name: "hr", Kind: LinkHeadroom, Target: 1}); err == nil {
		t.Error("target 1: want an error, there is no budget to burn")
	}
}

// TestRefusedGoodSeriesReadsNoData pins the no-data reading when the store's
// cardinality guard refuses a spec's slo_good series: its verdicts are
// still judged, but the budget stays full, burns stay zero and nothing fires.
func TestRefusedGoodSeriesReadsNoData(t *testing.T) {
	interval := 30 * time.Second
	f := &fixture{
		journal: obs.NewJournal(0),
		// Room for the headroom series and slo_alerts_firing, none for the
		// spec's slo_good and budget series.
		store: metricstore.NewWithConfig(metricstore.Config{MaxSeries: 2}),
	}
	f.plane = obs.NewPlane(f.journal, f.store, func() time.Duration { return f.now })
	f.plane.Metric(obs.MetricLinkHeadroom, 50, "link", "a-b")
	f.ev = New(f.plane, Config{Interval: interval})
	if err := f.ev.Register(Spec{Name: "hr", Kind: LinkHeadroom, Link: "a-b", GoodThreshold: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.step(interval, 1)
	}
	st := f.ev.Snapshot()[0]
	if st.Good || !st.HasData {
		t.Fatalf("spec = %+v, want a bad verdict with data", st)
	}
	if st.Budget != 1 {
		t.Errorf("budget = %v, want 1: no slo_good series, no data", st.Budget)
	}
	for _, ts := range st.Tiers {
		if ts.BurnShort != 0 || ts.BurnLong != 0 || ts.Firing {
			t.Errorf("tier %+v, want no burn and not firing", ts)
		}
	}
	if f.ev.Firing() != 0 || len(eventsOfType(f.journal, obs.EventAlertFired)) != 0 {
		t.Error("an alert fired on a spec with no slo_good series")
	}
}

// TestDeterministicJournal runs the same scenario twice and requires
// byte-identical journals — the package-level half of the cross-driver
// differential guarantee.
func TestDeterministicJournal(t *testing.T) {
	run := func() []byte {
		f := newFixture(t, Config{Interval: 30 * time.Second}, metricstore.Config{})
		if err := f.ev.Register(Spec{Name: "hr", Kind: LinkHeadroom, GoodThreshold: 5}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			f.step(30*time.Second, 50)
		}
		f.plane.EmitSpan(obs.Event{Type: obs.EventFault, Link: "a-b", Reason: "link_down"})
		for i := 0; i < 6; i++ {
			f.step(30*time.Second, 0.5)
		}
		for i := 0; i < 20; i++ {
			f.step(30*time.Second, 50)
		}
		var buf bytes.Buffer
		if err := f.journal.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same scenario produced different journals")
	}
	// The fault must root the alert chain.
	events, err := obs.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	var alert obs.Event
	for _, ev := range events {
		if ev.Type == obs.EventAlertFired {
			alert = ev
			break
		}
	}
	if alert.Span == 0 {
		t.Fatal("no alert fired")
	}
	chain := obs.CauseChain(events, alert.Span)
	root := chain[len(chain)-1]
	if root.Type != obs.EventFault {
		t.Errorf("alert chain root = %s, want fault", root.Type)
	}
}

// TestQuietTickZeroAlloc pins the evaluator's steady-state cost: with rings
// at capacity and no alert transitions, Tick allocates nothing.
func TestQuietTickZeroAlloc(t *testing.T) {
	interval := 30 * time.Second
	f := newFixture(t, Config{Interval: interval}, metricstore.Config{
		MaxSamples: 64, Rollup10s: 8, Rollup5m: 4,
	})
	for _, spec := range []Spec{
		{Name: "hr", Kind: LinkHeadroom, GoodThreshold: 5},
		{Name: "loop", Kind: ControlLatency},
		{Name: "gp", Kind: DependencyGoodput, App: "cam"},
	} {
		if err := f.ev.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Prefill past every ring cap so appends overwrite instead of growing.
	for i := 0; i < 200; i++ {
		f.step(interval, 50)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.now += interval
		f.ev.Tick()
	})
	if allocs > 0 {
		t.Errorf("quiet Tick allocated %.1f times per run, want 0", allocs)
	}
}

// tickBench is the city-storm evaluator shape: one goodput spec per app plus
// the all-links mesh/headroom spec, every one with the given budget window,
// ticked through the given number of 30 s epochs of history.
type tickBench struct {
	*fixture
	goodput  []metricstore.Handle
	headroom []metricstore.Handle
}

const tickInterval = 30 * time.Second

func newTickBench(tb testing.TB, apps, links, epochs int, window time.Duration) *tickBench {
	tb.Helper()
	f := &tickBench{fixture: newFixture(tb, Config{Interval: tickInterval}, metricstore.Config{})}
	for a := 0; a < apps; a++ {
		app := fmt.Sprintf("app%04d", a)
		f.goodput = append(f.goodput, f.store.Handle(obs.MetricDepGoodput, map[string]string{"app": app}))
		if err := f.ev.Register(Spec{Name: "goodput/" + app, Kind: DependencyGoodput, App: app, Window: window}); err != nil {
			tb.Fatal(err)
		}
	}
	for l := 0; l < links; l++ {
		f.headroom = append(f.headroom, f.store.Handle(obs.MetricLinkHeadroom, map[string]string{"link": fmt.Sprintf("n%03d-n%03d", l, l+1)}))
	}
	if err := f.ev.Register(Spec{Name: "mesh/headroom", Kind: LinkHeadroom, Window: window}); err != nil {
		tb.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		f.epoch(func(tick func()) { tick() })
	}
	return f
}

// feed writes the epoch's SLI samples, the monitor's and controller's part.
func (f *tickBench) feed() {
	now := unixEpoch.Add(f.now)
	for _, h := range f.goodput {
		h.Append(now, 0.97)
	}
	for _, h := range f.headroom {
		h.Append(now, 12)
	}
}

// epoch advances one interval, feeds it off the clock, and ticks.
func (f *tickBench) epoch(timed func(func())) {
	f.now += tickInterval
	f.feed()
	timed(f.ev.Tick)
}

// BenchmarkTick measures one quiet evaluator epoch at city-storm's size —
// 1,400 goodput specs plus mesh/headroom over 364 links — with 10, 130 and
// 1,000 epochs of history behind it. At 130 every burn and budget window is
// full, so 130 → 1,000 is pure history growth and must cost nothing
// (TestTickCostIgnoresHistory pins the claim).
func BenchmarkTick(b *testing.B) {
	for _, epochs := range []int{10, 130, 1000} {
		b.Run(fmt.Sprintf("specs=1401/epochs=%d", epochs), func(b *testing.B) {
			f := newTickBench(b, 1400, 364, epochs, 0)
			f.epoch(func(tick func()) { tick() }) // warm-up epoch, off the clock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.epoch(func(tick func()) {
					b.StartTimer()
					tick()
				})
			}
		})
	}
}
