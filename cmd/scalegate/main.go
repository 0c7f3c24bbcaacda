// Command scalegate compares a freshly measured benchmark report against the
// checked-in baseline and exits non-zero on a throughput regression — the CI
// gate behind the scale-smoke and sched-smoke jobs.
//
// Usage:
//
//	scalegate -current BENCH_scale.json -baseline ci/BENCH_scale.baseline.json \
//	          [-max-regress 0.20] [-min-realtime 1.0]
//	scalegate -kind sched -current BENCH_sched.json -baseline ci/BENCH_sched.baseline.json \
//	          [-max-regress 0.20]
//	scalegate -kind batch -current BENCH_batch.json -baseline ci/BENCH_batch.baseline.json \
//	          [-max-regress 0.20]
//	scalegate -kind slo -current BENCH_slo.json -baseline ci/BENCH_slo.baseline.json \
//	          [-max-regress 0.20] [-min-precision 0.9] [-min-recall 0.9]
//
// -kind scale (the default) gates BENCH_scale.json: entries are matched by
// shard count and each current events/sec must be at least (1 - max-regress)
// of the baseline's; -min-realtime additionally demands every current entry
// simulate faster than real time by that factor.
//
// -kind sched gates BENCH_sched.json: entries are matched by (nodes, apps,
// storm, mode) and compared on absolute decisions/sec.
//
// -kind batch gates BENCH_batch.json: entries are matched by (nodes, apps)
// and compared on batch goodput vs the baseline; independently of the
// baseline, every current entry at density >= 10 must show batch goodput no
// worse than greedy's — the ablation's headline claim, checked mechanically
// so it cannot rot.
//
// -kind slo gates BENCH_slo.json: entries are matched by (seed, polling).
// Detection must not slow down (current MTTD at most (1 + max-regress) of
// the baseline's) and, independently of the baseline, every current entry
// must clear the -min-precision/-min-recall floors and agree exactly with
// its other-driver twin — alert quality is a determinism claim, checked
// mechanically so it cannot rot.
//
// Baselines are refreshed by regenerating the JSON on a quiet machine and
// committing it (see README "Scale trajectory").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"bass/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scalegate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scalegate", flag.ContinueOnError)
	kind := fs.String("kind", "scale", "report kind to gate: scale (BENCH_scale.json), sched (BENCH_sched.json), batch (BENCH_batch.json), or slo (BENCH_slo.json)")
	curPath := fs.String("current", "", "freshly measured report (default BENCH_<kind>.json)")
	basePath := fs.String("baseline", "", "checked-in baseline report (default ci/BENCH_<kind>.baseline.json)")
	maxRegress := fs.Float64("max-regress", 0.20, "maximum allowed fractional throughput drop vs baseline")
	minRealtime := fs.Float64("min-realtime", 0, "scale: minimum real-time factor every current entry must reach (0 = no floor)")
	minPrecision := fs.Float64("min-precision", 0.9, "slo: minimum alert precision every current entry must reach")
	minRecall := fs.Float64("min-recall", 0.9, "slo: minimum fault-window recall every current entry must reach")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxRegress < 0 || *maxRegress >= 1 {
		return fmt.Errorf("-max-regress must be in [0, 1), got %g", *maxRegress)
	}
	switch *kind {
	case "scale", "sched", "batch", "slo":
	default:
		return fmt.Errorf("-kind must be scale, sched, batch, or slo, got %q", *kind)
	}
	if *curPath == "" {
		*curPath = "BENCH_" + *kind + ".json"
	}
	if *basePath == "" {
		*basePath = "ci/BENCH_" + *kind + ".baseline.json"
	}
	switch *kind {
	case "sched":
		return runSchedGate(stdout, *curPath, *basePath, *maxRegress)
	case "batch":
		return runBatchGate(stdout, *curPath, *basePath, *maxRegress)
	case "slo":
		return runSLOGate(stdout, *curPath, *basePath, *maxRegress, *minPrecision, *minRecall)
	}
	return runScaleGate(stdout, *curPath, *basePath, *maxRegress, *minRealtime)
}

func runScaleGate(stdout io.Writer, curPath, basePath string, maxRegress, minRealtime float64) error {
	cur, err := readScaleReport(curPath)
	if err != nil {
		return err
	}
	base, err := readScaleReport(basePath)
	if err != nil {
		return err
	}
	if cur.Nodes != base.Nodes || cur.Flows != base.Flows {
		return fmt.Errorf("workload mismatch: current %d nodes/%d flows vs baseline %d/%d — refresh the baseline",
			cur.Nodes, cur.Flows, base.Nodes, base.Flows)
	}

	curBy := map[int]experiments.ScaleEntry{}
	for _, e := range cur.Entries {
		curBy[e.Shards] = e
	}
	var failures []string
	for _, b := range base.Entries {
		c, ok := curBy[b.Shards]
		if !ok {
			failures = append(failures, fmt.Sprintf("%d shard(s): missing from current report", b.Shards))
			continue
		}
		floor := b.EventsPerSec * (1 - maxRegress)
		status := "ok"
		if c.EventsPerSec < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%d shard(s): %.0f events/sec < floor %.0f (baseline %.0f, max regress %.0f%%)",
				b.Shards, c.EventsPerSec, floor, b.EventsPerSec, maxRegress*100))
		}
		fmt.Fprintf(stdout, "%d shard(s): %.0f events/sec (baseline %.0f, floor %.0f) realtime %.1fx — %s\n",
			b.Shards, c.EventsPerSec, b.EventsPerSec, floor, c.RealTimeFactor, status)
	}
	if minRealtime > 0 {
		for _, e := range cur.Entries {
			if e.RealTimeFactor < minRealtime {
				failures = append(failures, fmt.Sprintf(
					"%d shard(s): real-time factor %.2f below floor %.2f", e.Shards, e.RealTimeFactor, minRealtime))
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d scale regression(s) vs %s", len(failures), basePath)
	}
	fmt.Fprintln(stdout, "scale gate passed")
	return nil
}

// schedKey identifies one control-plane configuration across reports.
type schedKey struct {
	nodes, apps int
	storm       bool
	mode        string
}

func (k schedKey) String() string {
	load := "quiet"
	if k.storm {
		load = "storm"
	}
	return fmt.Sprintf("%d nodes/%d apps/%s/%s", k.nodes, k.apps, load, k.mode)
}

func runSchedGate(stdout io.Writer, curPath, basePath string, maxRegress float64) error {
	cur, err := readSchedReport(curPath)
	if err != nil {
		return err
	}
	base, err := readSchedReport(basePath)
	if err != nil {
		return err
	}

	curBy := map[schedKey]experiments.SchedEntry{}
	for _, e := range cur.Entries {
		curBy[schedKey{e.Nodes, e.Apps, e.Storm, e.Mode}] = e
	}
	var failures []string
	for _, b := range base.Entries {
		k := schedKey{b.Nodes, b.Apps, b.Storm, b.Mode}
		c, ok := curBy[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current report", k))
			continue
		}
		floor := b.DecisionsPerSec * (1 - maxRegress)
		status := "ok"
		if c.DecisionsPerSec < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f decisions/sec < floor %.0f (baseline %.0f, max regress %.0f%%)",
				k, c.DecisionsPerSec, floor, b.DecisionsPerSec, maxRegress*100))
		}
		fmt.Fprintf(stdout, "%s: %.0f decisions/sec (baseline %.0f, floor %.0f) — %s\n",
			k, c.DecisionsPerSec, b.DecisionsPerSec, floor, status)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d sched regression(s) vs %s", len(failures), basePath)
	}
	fmt.Fprintln(stdout, "sched gate passed")
	return nil
}

// batchEps absorbs float formatting jitter when comparing goodput fractions.
const batchEps = 1e-9

// runBatchGate gates the placement ablation: batch goodput must not regress
// vs the baseline at any matched configuration, and — independently of the
// baseline — every current contended entry (density >= 10) must keep batch at
// least as good as greedy.
func runBatchGate(stdout io.Writer, curPath, basePath string, maxRegress float64) error {
	cur, err := readBatchReport(curPath)
	if err != nil {
		return err
	}
	base, err := readBatchReport(basePath)
	if err != nil {
		return err
	}

	type batchKey struct{ nodes, apps int }
	curBy := map[batchKey]experiments.BatchEntry{}
	for _, e := range cur.Entries {
		curBy[batchKey{e.Nodes, e.Apps}] = e
	}
	var failures []string
	for _, b := range base.Entries {
		k := batchKey{b.Nodes, b.Apps}
		c, ok := curBy[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("%d nodes/%d apps: missing from current report", k.nodes, k.apps))
			continue
		}
		floor := b.BatchGoodput * (1 - maxRegress)
		status := "ok"
		if c.BatchGoodput < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%d nodes/%d apps: batch goodput %.4f < floor %.4f (baseline %.4f, max regress %.0f%%)",
				k.nodes, k.apps, c.BatchGoodput, floor, b.BatchGoodput, maxRegress*100))
		}
		fmt.Fprintf(stdout, "%d nodes/%d apps/%d×: batch goodput %.4f (baseline %.4f, floor %.4f) gain %+.1f%% — %s\n",
			k.nodes, k.apps, c.Density, c.BatchGoodput, b.BatchGoodput, floor, 100*c.GainFrac, status)
	}
	for _, e := range cur.Entries {
		if e.Density < 10 {
			continue
		}
		if e.BatchGoodput < e.GreedyGoodput-batchEps {
			failures = append(failures, fmt.Sprintf(
				"%d nodes/%d apps/%d×: batch goodput %.4f below greedy %.4f — joint search lost to its own seed",
				e.Nodes, e.Apps, e.Density, e.BatchGoodput, e.GreedyGoodput))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d batch regression(s) vs %s", len(failures), basePath)
	}
	fmt.Fprintln(stdout, "batch gate passed")
	return nil
}

// runSLOGate gates alert quality: detection must not slow down vs the
// baseline at any matched (seed, driver) replay, every current entry must
// clear the precision/recall floors, and the two net drivers must agree
// exactly at each seed — the determinism claim behind the committed artifact.
func runSLOGate(stdout io.Writer, curPath, basePath string, maxRegress, minPrecision, minRecall float64) error {
	cur, err := readSLOReport(curPath)
	if err != nil {
		return err
	}
	base, err := readSLOReport(basePath)
	if err != nil {
		return err
	}

	type sloKey struct {
		seed    int64
		polling bool
	}
	driver := func(polling bool) string {
		if polling {
			return "polling"
		}
		return "event-driven"
	}
	curBy := map[sloKey]experiments.SLOEntry{}
	for _, e := range cur.Entries {
		curBy[sloKey{e.Seed, e.Polling}] = e
	}
	var failures []string
	for _, b := range base.Entries {
		k := sloKey{b.Seed, b.Polling}
		c, ok := curBy[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("seed %d/%s: missing from current report", k.seed, driver(k.polling)))
			continue
		}
		status := "ok"
		if b.MTTDSec > 0 {
			ceiling := b.MTTDSec * (1 + maxRegress)
			if c.MTTDSec > ceiling {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf(
					"seed %d/%s: MTTD %.1fs > ceiling %.1fs (baseline %.1fs, max regress %.0f%%)",
					k.seed, driver(k.polling), c.MTTDSec, ceiling, b.MTTDSec, maxRegress*100))
			}
		}
		fmt.Fprintf(stdout, "seed %d/%s: precision %.2f recall %.2f MTTD %.1fs (baseline %.1fs) — %s\n",
			k.seed, driver(k.polling), c.Precision, c.Recall, c.MTTDSec, b.MTTDSec, status)
	}
	for _, e := range cur.Entries {
		if e.Precision < minPrecision {
			failures = append(failures, fmt.Sprintf(
				"seed %d/%s: precision %.2f below floor %.2f", e.Seed, driver(e.Polling), e.Precision, minPrecision))
		}
		if e.Recall < minRecall {
			failures = append(failures, fmt.Sprintf(
				"seed %d/%s: recall %.2f below floor %.2f", e.Seed, driver(e.Polling), e.Recall, minRecall))
		}
		if !e.Polling {
			twin, ok := curBy[sloKey{e.Seed, true}]
			if ok && (twin.AlertsFired != e.AlertsFired || twin.TruePositives != e.TruePositives ||
				twin.Detected != e.Detected || twin.MTTDSec != e.MTTDSec) {
				failures = append(failures, fmt.Sprintf(
					"seed %d: drivers disagree (event-driven %d alerts MTTD %.1fs vs polling %d alerts MTTD %.1fs)",
					e.Seed, e.AlertsFired, e.MTTDSec, twin.AlertsFired, twin.MTTDSec))
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "FAIL:", f)
		}
		return fmt.Errorf("%d slo regression(s) vs %s", len(failures), basePath)
	}
	fmt.Fprintln(stdout, "slo gate passed")
	return nil
}

func readScaleReport(path string) (experiments.ScaleReport, error) {
	var r experiments.ScaleReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != experiments.ScaleReportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q — regenerate with benchtab -scale-out", path, r.Schema, experiments.ScaleReportSchema)
	}
	if len(r.Entries) == 0 {
		return r, fmt.Errorf("%s: no entries", path)
	}
	return r, nil
}

func readSchedReport(path string) (experiments.SchedReport, error) {
	var r experiments.SchedReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != experiments.SchedReportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q — regenerate with benchtab -sched-out", path, r.Schema, experiments.SchedReportSchema)
	}
	if len(r.Entries) == 0 {
		return r, fmt.Errorf("%s: no entries", path)
	}
	return r, nil
}

func readSLOReport(path string) (experiments.SLOReport, error) {
	var r experiments.SLOReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != experiments.SLOReportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q — regenerate with benchtab -slo-out", path, r.Schema, experiments.SLOReportSchema)
	}
	if len(r.Entries) == 0 {
		return r, fmt.Errorf("%s: no entries", path)
	}
	return r, nil
}

func readBatchReport(path string) (experiments.BatchReport, error) {
	var r experiments.BatchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != experiments.BatchReportSchema {
		return r, fmt.Errorf("%s: schema %q, want %q — regenerate with benchtab -batch-out", path, r.Schema, experiments.BatchReportSchema)
	}
	if len(r.Entries) == 0 {
		return r, fmt.Errorf("%s: no entries", path)
	}
	return r, nil
}
