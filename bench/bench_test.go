package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bass/internal/sim"
)

// childEnv makes a re-executed test binary behave as the bench command, so
// the smoke test's reps run as real child processes.
const childEnv = "BASS_BENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n, permille int
		want        bool
	}{
		{140, 900, true},   // 13 beyond
		{140, 990, false},  // 1 beyond
		{1200, 990, true},  // 11 beyond
		{1000, 990, false}, // 9 beyond: stay below p99
		{1100, 990, true},
		{25, 900, false}, // median only
		{25, 500, true},
	} {
		if got := percentileAllowed(tc.n, tc.permille); got != tc.want {
			t.Errorf("percentileAllowed(%d, p%d) = %v, want %v", tc.n, tc.permille/10, got, tc.want)
		}
	}
	if percentileAllowed(0, 500) {
		t.Error("no samples allow no percentile")
	}
	s := make([]float64, 140)
	for i := range s {
		s[i] = float64(140 - i) // 1..140, unsorted
	}
	if got := percentile(s, 900); got != 127 {
		t.Errorf("p90 of 1..140 = %v, want 127 (13 samples beyond)", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 500); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 {
		t.Errorf("got median %v q1 %v q3 %v", s.Median, s.Q1, s.Q3)
	}
	if got := s.spreadFrac(); got != 1 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5", got)
	}
	// statistics.quantiles([10,11,12,13,15], n=4) == [10.5, 12.0, 14.0]
	s = summarize([]float64{15, 10, 12, 11, 13})
	if s.Median != 12 || s.Q1 != 10.5 || s.Q3 != 14 {
		t.Errorf("got median %v q1 %v q3 %v", s.Median, s.Q1, s.Q3)
	}
	if s.Raw[0] != 15 {
		t.Error("raw values must stay in run order")
	}
	one := summarize([]float64{7})
	if one.Median != 7 || one.spreadFrac() != 0 {
		t.Errorf("single value: %+v", one)
	}
}

func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{class: spanWorkload, parent: -1, start: 0, end: 100 * ms},
		{class: spanRun, parent: 0, start: 10 * ms, end: 90 * ms},
		{class: spanEpoch, parent: 1, start: 10 * ms, end: 50 * ms},
		{class: classPass, parent: 2, start: 10 * ms, end: 25 * ms},    // adjacent …
		{class: classOther, parent: 2, start: 25 * ms, end: 30 * ms},   // … siblings
		{class: classControl, parent: 2, start: 35 * ms, end: 50 * ms}, // after a gap
		{class: spanEpoch, parent: 1, start: 55 * ms, end: 90 * ms},
	}
	want := []time.Duration{20 * ms, 5 * ms, 5 * ms, 15 * ms, 5 * ms, 15 * ms, 35 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self = %v, want %v", i, got, want[i])
		}
	}
}

func TestClassifyOnHandBuiltEngine(t *testing.T) {
	eng := sim.NewEngine(1)
	var c layerCounters
	tr := &tracer{}
	tr.snap = func() layerCounters { return c }
	tr.t0 = time.Now()
	tr.spans = []span{{class: spanWorkload, parent: -1}, {class: spanRun, parent: 0}}
	tr.runSpan = 1

	var order []string
	at := func(d time.Duration, name string, fn func()) {
		eng.At(d, func() { order = append(order, name); fn() })
	}
	at(1*time.Second, "timer", func() {})
	at(2*time.Second, "pass", func() { c.fullPasses++ })
	at(3*time.Second, "reconcile", func() { c.reconcile++; c.fullPasses++ })
	at(4*time.Second, "fault", func() { c.availEpoch++; c.fullPasses++; c.reconcile++ })
	// Queued for exactly the boundary before the epoch starts: runs before
	// the sentinel, as its own span; what it schedules for the same instant
	// is drained after the sentinel.
	at(5*time.Second, "control", func() {
		c.cycles++
		c.wallNS += 40
		c.fullPasses++
		eng.At(5*time.Second, func() { order = append(order, "same-time pass"); c.fullPasses++ })
	})
	at(6*time.Second, "next epoch", func() {})

	if err := tr.runEpoch(eng, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "timer,pass,reconcile,fault,control,same-time pass" {
		t.Fatalf("events ran as %q", got)
	}
	if eng.Now() != 5*time.Second {
		t.Errorf("clock at %v, want the epoch boundary", eng.Now())
	}
	var classes []eventClass
	for _, s := range tr.spans[3:] { // after workload, run, epoch
		classes = append(classes, s.class)
		if s.parent != 2 {
			t.Errorf("event span parent %d, want the epoch span", s.parent)
		}
	}
	want := []eventClass{classOther, classPass, classReconcile, classFault, classControl, classPass}
	if len(classes) != len(want) {
		t.Fatalf("recorded classes %v, want %v (the sentinel is not a span)", classes, want)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Errorf("event %d classified %s, want %s", i, classNames[classes[i]], classNames[want[i]])
		}
	}
	if tr.wallNS != 40 || tr.controlNS <= 0 {
		t.Errorf("control accounting: wallNS %d controlNS %d", tr.wallNS, tr.controlNS)
	}
	if ep := tr.spans[2]; ep.class != spanEpoch || ep.end < tr.spans[len(tr.spans)-1].end {
		t.Errorf("epoch span %+v does not cover its events", ep)
	}
}

func TestComparatorVerdicts(t *testing.T) {
	cell := func(median, q1, q3 float64) metricResult {
		return metricResult{summary: summary{Median: median, Q1: q1, Q3: q3}}
	}
	lower := metricDef{name: "t_ms", kind: kindHost, better: "lower", bound: 0.10}
	higher := metricDef{name: "x", kind: kindHost, better: "higher", bound: 0.10}
	exact := metricDef{name: "g", kind: kindSim, better: "higher", bound: 0.10}
	floor := cell(0.01, 0.01, 0.01)
	floor.BelowFloor = true
	for _, tc := range []struct {
		name      string
		m         metricDef
		base, cur metricResult
		sameSeed  bool
		want      string
	}{
		{"within bound", lower, cell(100, 99, 101), cell(108, 107, 109), true, verdictOK},
		{"slower past bound", lower, cell(100, 99, 101), cell(112, 111, 113), true, verdictRegressed},
		{"faster", lower, cell(100, 99, 101), cell(50, 49, 51), true, verdictOK},
		{"higher is better, fell", higher, cell(100, 99, 101), cell(85, 84, 86), true, verdictRegressed},
		{"higher is better, rose", higher, cell(100, 99, 101), cell(130, 129, 131), true, verdictOK},
		{"spread wider than bound", lower, cell(100, 90, 110), cell(130, 129, 131), true, verdictUnresolved},
		{"new side noisy", lower, cell(100, 99, 101), cell(100, 80, 120), true, verdictUnresolved},
		{"below floor", lower, floor, cell(0.02, 0.02, 0.02), true, verdictBelowFloor},
		{"sim, same seed, identical", exact, cell(0.5, 0.5, 0.5), cell(0.5, 0.5, 0.5), true, verdictOK},
		{"sim, same seed, worse by a hair", exact, cell(0.5, 0.5, 0.5), cell(0.4999999, 0.4999999, 0.4999999), true, verdictRegressed},
		{"sim, same seed, better", exact, cell(0.5, 0.5, 0.5), cell(0.6, 0.6, 0.6), true, verdictOK},
		{"sim, other seed, within bound", exact, cell(0.5, 0.5, 0.5), cell(0.48, 0.48, 0.48), false, verdictOK},
		{"sim, other seed, past bound", exact, cell(0.5, 0.5, 0.5), cell(0.4, 0.4, 0.4), false, verdictRegressed},
	} {
		if got := verdict(tc.m, tc.base, tc.cur, tc.sameSeed); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, setup float64) string {
		res := results{Schema: resultsSchema, Provenance: provenance{Seed: 42},
			Workloads: map[string]workloadResult{wFlows: {Digest: "abc", Reps: 5, Metrics: map[string]metricResult{
				"setup_s":      {Unit: "s", Kind: kindHost, summary: summarize([]float64{setup, setup, setup})},
				"goodput_frac": {Unit: "frac", Kind: kindSim, summary: summarize([]float64{0.35})},
			}}}}
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 2.0), write("b.json", 2.1), write("c.json", 3.0)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, same); err != nil || regressed {
		t.Errorf("same-speed pair: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "identical") {
		t.Errorf("equal digests not reported:\n%s", out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, slow); err != nil || !regressed {
		t.Errorf("50%% slower set-up: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

// TestManifestMatchesRegistry pins the committed BENCHMARK.json to the metric
// and workload registry it is generated from, and the registry to the
// driver's limits.
func TestManifestMatchesRegistry(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate with `go run ./bench -manifest BENCHMARK.json`")
	}
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q outside the driver's limits", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit)
	}
	for _, w := range m.Workloads {
		check(w.Name, "x")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !hasSetup || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("manifest shape: setup_s=%v end_to_end=%d per_layer=%d workloads=%d",
			hasSetup, len(m.EndToEnd), len(m.PerLayer), len(m.Workloads))
	}
}

// TestQuickSuiteSmoke runs the whole command at -quick sizes — real child
// processes, traced pass, ratio reps — and checks that every metric that
// applies to a workload is printed exactly once there with a finite value.
func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 18 child processes")
	}
	t.Setenv(childEnv, "1")
	dir := t.TempDir()
	opts := options{workloads: workloads, seed: 42, reps: 1, trace: true, quick: true,
		out: filepath.Join(dir, "quick.json"), traceOut: filepath.Join(dir, "trace.json")}
	var out bytes.Buffer
	if err := runSuite(&out, opts); err != nil {
		t.Fatalf("quick suite: %v\n%s", err, out.String())
	}
	res, err := loadResults(opts.out)
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(out.String(), "\n== ")[1:]
	if len(sections) != len(workloads) {
		t.Fatalf("%d workload sections printed, want %d", len(sections), len(workloads))
	}
	for i, def := range workloads {
		if !strings.HasPrefix(sections[i], def.name+" ") {
			t.Errorf("section %d is not %s", i, def.name)
		}
		wres, ok := res.Workloads[def.name]
		if !ok || len(wres.Digest) != 64 {
			t.Errorf("%s: missing from results or no digest", def.name)
			continue
		}
		for _, m := range allMetrics() {
			if !m.appliesTo(def.name) || quickSkips[m.name] {
				continue
			}
			cell, ok := wres.Metrics[m.name]
			if !ok || math.IsNaN(cell.Median) || math.IsInf(cell.Median, 0) {
				t.Errorf("%s/%s: missing or not finite (%v)", def.name, m.name, cell.Median)
			}
			if n := strings.Count(sections[i], "\n"+m.name+" "); n != 1 {
				t.Errorf("%s/%s printed %d times", def.name, m.name, n)
			}
		}
		if _, err := os.Stat(defaultTraceOut(opts, def)); err != nil {
			t.Errorf("%s: no trace file: %v", def.name, err)
		}
	}
	var summary struct {
		Claim *string `json:"claim"`
	}
	tail := out.String()[strings.LastIndex(out.String(), "\n{"):]
	if err := json.Unmarshal([]byte(tail), &summary); err != nil || summary.Claim != nil {
		t.Errorf("summary must parse and end with a null claim: %v", err)
	}
	if !strings.HasSuffix(strings.TrimSpace(tail), "\"claim\": null\n}") {
		t.Errorf("summary does not end with \"claim\": null:\n%s", tail)
	}
}

// quickSkips are metrics the -quick sizes are too small to produce: tails
// that need more samples than a smoke run has.
var quickSkips = map[string]bool{"epoch_ms_p99": true, "place_ms_p90": true}
