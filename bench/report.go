package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadRun gathers one workload's reps.
type workloadRun struct {
	def     workloadDef
	reps    []*repResult // untraced, canonical: the only source of end-to-end numbers
	traced  *repResult
	variant *repResult
}

// metricResult is one (workload, metric) cell of the results file.
type metricResult struct {
	Unit string `json:"unit"`
	Kind string `json:"kind"`
	// N is the sample count behind a percentile (0 when not a percentile).
	N int `json:"n,omitempty"`
	summary
	// BelowFloor marks a whole-phase timing too short to compare.
	BelowFloor bool `json:"below_floor,omitempty"`
}

// workloadResult is one workload's section of the results file.
type workloadResult struct {
	Digest  string                  `json:"digest"`
	Reps    int                     `json:"reps"`
	Metrics map[string]metricResult `json:"metrics"`
}

// provenance records where and how a result set was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Quick      bool   `json:"quick"`
	Started    string `json:"started"`
}

// results is the results file (-out) and the suite's closing summary. Claim
// stays last and null: this command reports numbers, it claims nothing.
type results struct {
	Schema     string                    `json:"schema"`
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
	Claim      *string                   `json:"claim"`
}

const resultsSchema = "bass/bench/v1"

func newProvenance(opts options) provenance {
	head := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head = strings.TrimSpace(string(out))
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: head, Seed: opts.seed, Reps: opts.reps, Quick: opts.quick,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// all lists every rep of the workload that ran: untraced, traced, ratio.
func (wr *workloadRun) all() []*repResult {
	all := append([]*repResult(nil), wr.reps...)
	if wr.traced != nil {
		all = append(all, wr.traced)
	}
	if wr.variant != nil {
		all = append(all, wr.variant)
	}
	return all
}

// check is the correctness gate over a workload's reps: no rep reported a
// violation or a failed must-succeed operation, and every rep that should
// simulate the same thing — canonical, traced, and the byte-identical
// sharded/pooled variants — produced the same digest.
func (wr *workloadRun) check() []string {
	var problems []string
	var want string
	for _, r := range wr.all() {
		tag := r.Workload
		if r.Variant != "" {
			tag += "/" + r.Variant
		}
		for _, v := range r.Violations {
			problems = append(problems, tag+": "+v)
		}
		if r.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d of %d operations failed", tag, r.Failed, r.Attempted))
		}
		if r.Variant == "greedy" {
			continue // a different placement policy: a different simulation
		}
		if want == "" {
			want = r.Digest
		} else if r.Digest != want {
			problems = append(problems, fmt.Sprintf("%s: digest %s differs from %s", tag, r.Digest[:12], want[:12]))
		}
	}
	if wr.def.name == wBatch && wr.variant != nil && len(wr.reps) > 0 {
		if g, b := wr.variant.Values["goodput_frac"], wr.reps[0].Values["goodput_frac"]; b < g {
			problems = append(problems, fmt.Sprintf("%s: batch goodput %.6f below greedy %.6f", wBatch, b, g))
		}
	}
	return problems
}

// aggregate folds the reps into one value per metric: end-to-end metrics are
// medians over the untraced reps; per-layer metrics take the traced rep's
// value unless the untraced reps measured them too (counters, set-up spans),
// in which case their median wins; ratio metrics compare against the variant
// rep.
func (wr *workloadRun) aggregate() workloadResult {
	out := workloadResult{Reps: len(wr.reps), Metrics: make(map[string]metricResult)}
	if len(wr.reps) > 0 {
		out.Digest = wr.reps[0].Digest
	} else if wr.traced != nil {
		out.Digest = wr.traced.Digest
	}
	median := func(name string) (summary, bool) {
		var raw []float64
		for _, r := range wr.reps {
			if val, ok := r.Values[name]; ok {
				raw = append(raw, val)
			}
		}
		return summarize(raw), len(raw) > 0
	}
	for _, m := range allMetrics() {
		if !m.appliesTo(wr.def.name) {
			continue
		}
		cell := metricResult{Unit: m.unit, Kind: m.kind}
		s, ok := median(m.name)
		switch {
		case ok:
			cell.summary = s
			cell.N = wr.reps[0].N[m.name]
		case wr.traced != nil:
			val, has := wr.traced.Values[m.name]
			if !has {
				continue
			}
			cell.summary = summarize([]float64{val})
			cell.N = wr.traced.N[m.name]
		default:
			continue
		}
		cell.BelowFloor = m.floorScale > 0 && cell.Median*m.floorScale < timingFloorMS
		out.Metrics[m.name] = cell
	}
	wr.addPooledTails(out.Metrics)
	wr.addRatios(out.Metrics, median)
	return out
}

// pooledTails are the tail percentiles that fall back to the samples of all
// untraced reps pooled when one rep alone has too few for the percentile
// rule (town-chaos: 400 epochs a rep, 1,100 needed for a p99).
var pooledTails = []struct {
	metric, samples string
	permille        int
}{
	{"epoch_ms_p99", "epoch_ms", 990},
	{"place_ms_p90", "place_ms", 900},
}

func (wr *workloadRun) addPooledTails(cells map[string]metricResult) {
	for _, t := range pooledTails {
		m, _ := findMetric(t.metric)
		if _, have := cells[t.metric]; have || !m.appliesTo(wr.def.name) {
			continue
		}
		var pool []float64
		for _, r := range wr.reps {
			pool = append(pool, r.Samples[t.samples]...)
		}
		if percentileAllowed(len(pool), t.permille) {
			cells[t.metric] = metricResult{Unit: m.unit, Kind: m.kind, N: len(pool),
				summary: summarize([]float64{percentile(pool, t.permille)})}
		}
	}
}

// addRatios derives the metrics that compare the canonical reps with the
// traced or variant rep. Every ratio's base is the untraced median.
func (wr *workloadRun) addRatios(cells map[string]metricResult, median func(string) (summary, bool)) {
	put := func(name string, val float64) {
		if m, ok := findMetric(name); ok && !math.IsNaN(val) && !math.IsInf(val, 0) {
			cells[name] = metricResult{Unit: m.unit, Kind: m.kind, summary: summarize([]float64{val})}
		}
	}
	var runS []float64
	for _, r := range wr.reps {
		runS = append(runS, r.RunS)
	}
	baseRun := summarize(runS).Median
	if wr.traced != nil && len(runS) > 0 {
		put("bench.trace_overhead_frac", wr.traced.RunS/baseRun-1)
	}
	if wr.variant == nil || len(wr.reps) == 0 {
		return
	}
	vv := wr.variant.Values
	switch wr.variant.Variant {
	case "shards2":
		put("simnet.shards2_x", baseRun/wr.variant.RunS)
	case "workers2":
		if base, ok := median("core.control_self_s"); ok {
			put("core.workers2_x", base.Median/vv["core.control_self_s"])
		}
	case "greedy":
		setup, _ := median("setup_s")
		deploy, _ := median("core.deploy_self_s")
		goodput, _ := median("goodput_frac")
		gain := goodput.Median/vv["goodput_frac"] - 1
		put("scheduler.batch_over_greedy_x", setup.Median/vv["setup_s"])
		put("scheduler.batch_gain_frac", gain)
		put("scheduler.batch_gain_per_solve_s", gain/(deploy.Median-vv["core.deploy_self_s"]))
	}
}

// runSuite is the default command: every selected workload, reps interleaved
// (w1…w5, w1…w5) so slow host drift hits all alike, then one traced rep and
// one ratio rep per workload; prints every metric and ends with the summary.
func runSuite(w io.Writer, opts options) error {
	res := results{Schema: resultsSchema, Provenance: newProvenance(opts), Workloads: make(map[string]workloadResult)}
	runs := make([]*workloadRun, len(opts.workloads))
	for i, def := range opts.workloads {
		runs[i] = &workloadRun{def: def}
	}
	for rep := 0; rep < opts.reps; rep++ {
		for _, wr := range runs {
			r, err := spawnRep(opts, wr.def, "", false, "")
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rep %d/%d %-11s setup %.3fs run %.3fs\n", rep+1, opts.reps, wr.def.name, r.Values["setup_s"], r.RunS)
			wr.reps = append(wr.reps, r)
		}
	}
	if opts.trace {
		for _, wr := range runs {
			if err := wr.tracedPass(opts, defaultTraceOut(opts, wr.def)); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "traced   %-11s run %.3fs -> %s\n", wr.def.name, wr.traced.RunS, defaultTraceOut(opts, wr.def))
		}
	}
	var problems []string
	for _, wr := range runs {
		problems = append(problems, wr.check()...)
		wres := wr.aggregate()
		res.Workloads[wr.def.name] = wres
		printWorkload(w, wr.def, wres)
	}
	if opts.out != "" {
		if err := writeJSONFile(opts.out, res); err != nil {
			return err
		}
	}
	printSummary(w, res)
	if len(problems) > 0 {
		return fmt.Errorf("correctness gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// tracedPass runs the workload's traced rep and, where it has one, its ratio
// rep.
func (wr *workloadRun) tracedPass(opts options, traceOut string) error {
	var err error
	if wr.traced, err = spawnRep(opts, wr.def, "", true, traceOut); err != nil {
		return err
	}
	if wr.def.variant != "" {
		wr.variant, err = spawnRep(opts, wr.def, wr.def.variant, false, "")
	}
	return err
}

// driverLine is the JSON object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Rep-count limits of one driver invocation: enough reps for a median, and a
// stop so an unexpectedly fast machine does not spawn hundreds.
const (
	driverMinReps = 3
	driverMaxReps = 40
)

// runDriver is one driver invocation: one workload, one seed. With trace off
// it repeats untraced reps until their measured set-up + run time reaches
// -seconds and reports the gated end-to-end medians; with trace on it spends
// half of -seconds on untraced reps (the base of the overhead ratio and of the
// ungated end-to-end metrics), then runs the traced rep and the ratio rep, and
// reports everything else.
func runDriver(opts options) error {
	if len(opts.workloads) != 1 {
		return fmt.Errorf("-seconds needs exactly one -workload")
	}
	wr := &workloadRun{def: opts.workloads[0]}
	budget := float64(opts.seconds)
	minReps := driverMinReps
	if opts.trace {
		// Half the time on the untraced base, the rest for the traced and
		// ratio reps.
		minReps, budget = 1, budget/2
	}
	var measured float64
	for len(wr.reps) < minReps || (measured < budget && len(wr.reps) < driverMaxReps) {
		r, err := spawnRep(opts, wr.def, "", false, "")
		if err != nil {
			return err
		}
		wr.reps = append(wr.reps, r)
		measured += r.Values["setup_s"] + r.RunS
	}
	if opts.trace {
		if err := wr.tracedPass(opts, opts.traceOut); err != nil {
			return err
		}
	}
	problems := wr.check()
	wres := wr.aggregate()
	printWorkload(os.Stdout, wr.def, wres)
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}

	line := driverLine{Correct: len(problems) == 0, Metrics: make(map[string]driverValue)}
	for _, r := range wr.all() {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	gated, traced := gatedMetrics()
	report := gated
	if opts.trace {
		report = traced
	}
	for _, m := range report {
		// The driver wants every listed metric on every workload; one that
		// does not apply to this workload reads 0.
		line.Metrics[m.name] = driverValue{Value: wres.Metrics[m.name].Median, Unit: m.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// printWorkload prints one workload's metrics by name with unit, kind and
// sample count.
func printWorkload(w io.Writer, def workloadDef, res workloadResult) {
	fmt.Fprintf(w, "\n== %s  (%d reps, digest %s)\n", def.name, res.Reps, res.Digest)
	fmt.Fprintf(w, "%-34s %14s %-6s %-5s %-7s %s\n", "metric", "median", "unit", "kind", "n", "quartiles / note")
	for _, m := range allMetrics() {
		cell, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		n := "-"
		if cell.N > 0 {
			n = fmt.Sprint(cell.N)
		}
		note := ""
		if len(cell.Raw) > 1 && m.kind == kindHost {
			note = fmt.Sprintf("[%.4g .. %.4g] spread %.1f%%", cell.Q1, cell.Q3, 100*cell.spreadFrac())
		}
		if cell.BelowFloor {
			note += " below_floor"
		}
		if m.name == "bench.attributed_frac" && cell.Median < 0.95 {
			note += " WARNING: under 0.95 of run wall attributed"
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s %-5s %-7s %s\n", m.name, cell.Median, cell.Unit, cell.Kind, n, strings.TrimSpace(note))
	}
}

// printSummary closes the suite's output: provenance, digests, and the claim
// this command never makes.
func printSummary(w io.Writer, res results) {
	type digestLine struct {
		Workload string `json:"workload"`
		Digest   string `json:"digest"`
	}
	var digests []digestLine
	for name, wres := range res.Workloads {
		digests = append(digests, digestLine{name, wres.Digest})
	}
	sort.Slice(digests, func(i, j int) bool { return digests[i].Workload < digests[j].Workload })
	summary := struct {
		Schema     string       `json:"schema"`
		Provenance provenance   `json:"provenance"`
		Digests    []digestLine `json:"digests"`
		Claim      *string      `json:"claim"`
	}{res.Schema, res.Provenance, digests, nil}
	fmt.Fprintln(w)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(summary)
}

func writeJSONFile(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
