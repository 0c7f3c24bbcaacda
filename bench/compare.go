package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Comparator verdicts, one per (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictBelowFloor = "below_floor"
	verdictUnresolved = "unresolved"
)

// exactTolerance is how far two values of an exact (sim or count) metric may
// differ and still read as the same number.
const exactTolerance = 1e-9

// worseBy is how much worse cur is than base as a share of base, in the
// metric's own direction (negative = better).
func worseBy(m metricDef, base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if m.better == "higher" {
		d = -d
	}
	return d
}

// verdict applies one metric's direction, bound and floor to a baseline cell
// and a new cell. sameSeed says both sets simulated the same inputs, which is
// when sim and count metrics must repeat exactly.
func verdict(m metricDef, base, cur metricResult, sameSeed bool) string {
	if base.BelowFloor || cur.BelowFloor {
		return verdictBelowFloor
	}
	worse := worseBy(m, base.Median, cur.Median)
	if m.kind != kindHost && sameSeed {
		if worse > exactTolerance {
			return verdictRegressed
		}
		return verdictOK
	}
	if base.spreadFrac() > m.bound || cur.spreadFrac() > m.bound {
		return verdictUnresolved
	}
	if worse > m.bound {
		return verdictRegressed
	}
	return verdictOK
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return r, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return r, nil
}

// compareFiles prints one row per (workload, metric) both files hold: every
// end-to-end metric, and — at equal seed — every sim and count per-layer
// metric, which must repeat exactly. Host per-layer metrics have no bound and
// are not judged. Digests of an equal-seed pair are printed as identical or
// differing — the guard that a host-time speed-up changed no behaviour. It
// reports whether any row regressed.
func compareFiles(w io.Writer, basePath, curPath string) (regressed bool, err error) {
	base, err := loadResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := loadResults(curPath)
	if err != nil {
		return false, err
	}
	sameSeed := base.Provenance.Seed == cur.Provenance.Seed && base.Provenance.Quick == cur.Provenance.Quick
	fmt.Fprintf(w, "base %s (%s, seed %d, %d reps)\nnew  %s (%s, seed %d, %d reps)\n\n",
		basePath, base.Provenance.GitHead, base.Provenance.Seed, base.Provenance.Reps,
		curPath, cur.Provenance.GitHead, cur.Provenance.Seed, cur.Provenance.Reps)
	fmt.Fprintf(w, "%-11s %-34s %14s %14s %9s %8s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	isEndToEnd := make(map[string]bool)
	for _, m := range endToEnd {
		isEndToEnd[m.name] = true
	}
	for _, def := range workloads {
		bw, ok1 := base.Workloads[def.name]
		cw, ok2 := cur.Workloads[def.name]
		if !ok1 || !ok2 {
			continue
		}
		for _, m := range allMetrics() {
			if !isEndToEnd[m.name] && (m.kind == kindHost || !sameSeed) {
				continue
			}
			b, ok1 := bw.Metrics[m.name]
			c, ok2 := cw.Metrics[m.name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(m, b, c, sameSeed)
			bound := fmt.Sprintf("%.0f%%", 100*m.bound)
			if m.kind != kindHost && sameSeed {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-11s %-34s %14.6g %14.6g %+8.1f%% %8s  %s\n", def.name, m.name,
				b.Median, c.Median, 100*worseBy(m, b.Median, c.Median), bound, v)
			regressed = regressed || v == verdictRegressed
		}
		if sameSeed {
			same := "identical"
			if bw.Digest != cw.Digest {
				same = "DIFFERS: " + bw.Digest[:min(12, len(bw.Digest))] + " vs " + cw.Digest[:min(12, len(cw.Digest))]
			}
			fmt.Fprintf(w, "%-11s %-34s %s\n", def.name, "digest", same)
		}
	}
	return regressed, nil
}
