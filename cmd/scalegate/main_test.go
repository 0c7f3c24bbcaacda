package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bass/internal/experiments"
)

func writeReport(t *testing.T, dir, name string, r experiments.ScaleReport) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func report(entries ...experiments.ScaleEntry) experiments.ScaleReport {
	return experiments.ScaleReport{
		Schema: experiments.ScaleReportSchema,
		Nodes:  200, Flows: 5000, HorizonSec: 60, Seed: 42,
		Entries: entries,
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000, RealTimeFactor: 5},
		experiments.ScaleEntry{Shards: 4, EventsPerSec: 3000, RealTimeFactor: 15},
	))
	// 15% slower than baseline: inside the 20% tolerance.
	cur := writeReport(t, dir, "cur.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 850, RealTimeFactor: 4},
		experiments.ScaleEntry{Shards: 4, EventsPerSec: 2550, RealTimeFactor: 12},
	))
	var out strings.Builder
	if err := run([]string{"-current", cur, "-baseline", base}, &out); err != nil {
		t.Fatalf("within tolerance, want pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "scale gate passed") {
		t.Errorf("missing pass line:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000, RealTimeFactor: 5},
		experiments.ScaleEntry{Shards: 4, EventsPerSec: 3000, RealTimeFactor: 15},
	))
	// 4-shard run fell 40%: outside tolerance.
	cur := writeReport(t, dir, "cur.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 990, RealTimeFactor: 5},
		experiments.ScaleEntry{Shards: 4, EventsPerSec: 1800, RealTimeFactor: 9},
	))
	var out strings.Builder
	err := run([]string{"-current", cur, "-baseline", base}, &out)
	if err == nil {
		t.Fatalf("40%% regression, want failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out.String())
	}
}

func TestGateFailsOnMissingEntryAndRealtimeFloor(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000, RealTimeFactor: 5},
		experiments.ScaleEntry{Shards: 8, EventsPerSec: 4000, RealTimeFactor: 20},
	))
	cur := writeReport(t, dir, "cur.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000, RealTimeFactor: 0.5},
	))
	if err := run([]string{"-current", cur, "-baseline", base}, io.Discard); err == nil {
		t.Error("missing 8-shard entry: want failure")
	}
	// Realtime floor alone trips even when throughput is fine.
	base2 := writeReport(t, dir, "base2.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000, RealTimeFactor: 5},
	))
	if err := run([]string{"-current", cur, "-baseline", base2, "-min-realtime", "1"}, io.Discard); err == nil {
		t.Error("real-time factor 0.5 under floor 1: want failure")
	}
	if err := run([]string{"-current", cur, "-baseline", base2}, io.Discard); err != nil {
		t.Errorf("no floor requested, throughput equal: want pass, got %v", err)
	}
}

func TestGateRejectsMalformedInput(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000},
	))
	if err := run([]string{"-current", filepath.Join(dir, "absent.json"), "-baseline", good}, io.Discard); err == nil {
		t.Error("missing current file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","entries":[{"shards":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-current", bad, "-baseline", good}, io.Discard); err == nil {
		t.Error("wrong schema: want error")
	}
	mismatched := writeReport(t, dir, "mismatch.json", experiments.ScaleReport{
		Schema: experiments.ScaleReportSchema, Nodes: 64, Flows: 100, HorizonSec: 60,
		Entries: []experiments.ScaleEntry{{Shards: 1, EventsPerSec: 1}},
	})
	if err := run([]string{"-current", mismatched, "-baseline", good}, io.Discard); err == nil {
		t.Error("workload mismatch: want error")
	}
	if err := run([]string{"-current", good, "-baseline", good, "-max-regress", "1.5"}, io.Discard); err == nil {
		t.Error("max-regress out of range: want error")
	}
}

func writeSchedReport(t *testing.T, dir, name string, entries ...experiments.SchedEntry) string {
	t.Helper()
	data, err := json.Marshal(experiments.SchedReport{
		Schema: experiments.SchedReportSchema, Seed: 42, Entries: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSchedGateRegressionAndTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeSchedReport(t, dir, "base.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 10000},
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "parallel", DecisionsPerSec: 20000},
	)
	// 15% down: within the 20% tolerance.
	cur := writeSchedReport(t, dir, "cur.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 8500},
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "parallel", DecisionsPerSec: 17000},
	)
	var out strings.Builder
	if err := run([]string{"-kind", "sched", "-current", cur, "-baseline", base}, &out); err != nil {
		t.Fatalf("within tolerance, want pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sched gate passed") {
		t.Errorf("missing pass line:\n%s", out.String())
	}
	// 40% down on one entry: regression.
	slow := writeSchedReport(t, dir, "slow.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 9900},
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "parallel", DecisionsPerSec: 12000},
	)
	out.Reset()
	if err := run([]string{"-kind", "sched", "-current", slow, "-baseline", base}, &out); err == nil {
		t.Fatalf("40%% regression, want failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out.String())
	}
	// Missing entry: failure.
	missing := writeSchedReport(t, dir, "missing.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 10000},
	)
	if err := run([]string{"-kind", "sched", "-current", missing, "-baseline", base}, io.Discard); err == nil {
		t.Error("missing parallel entry: want failure")
	}
}

func TestSchedGateRejectsWrongSchemaAndKind(t *testing.T) {
	dir := t.TempDir()
	good := writeSchedReport(t, dir, "good.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 1},
	)
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","entries":[{"nodes":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "sched", "-current", bad, "-baseline", good}, io.Discard); err == nil {
		t.Error("wrong schema: want error")
	}
	// A scale report fed to the sched gate is a schema mismatch, not a panic.
	scale := writeReport(t, dir, "scale.json", report(
		experiments.ScaleEntry{Shards: 1, EventsPerSec: 1000},
	))
	if err := run([]string{"-kind", "sched", "-current", scale, "-baseline", good}, io.Discard); err == nil {
		t.Error("scale report under -kind sched: want error")
	}
	if err := run([]string{"-kind", "bogus", "-current", good, "-baseline", good}, io.Discard); err == nil {
		t.Error("unknown kind: want error")
	}
}

func writeBatchReport(t *testing.T, dir, name string, entries ...experiments.BatchEntry) string {
	t.Helper()
	data, err := json.Marshal(experiments.BatchReport{
		Schema: experiments.BatchReportSchema, Seed: 42, Entries: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchGateRegressionAndTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeBatchReport(t, dir, "base.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.78, BatchGoodput: 0.86},
		experiments.BatchEntry{Nodes: 196, Apps: 140, Density: 10, GreedyGoodput: 0.79, BatchGoodput: 0.90},
	)
	// 10% down on batch goodput: within the 20% tolerance, batch still >= greedy.
	cur := writeBatchReport(t, dir, "cur.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.75, BatchGoodput: 0.774},
		experiments.BatchEntry{Nodes: 196, Apps: 140, Density: 10, GreedyGoodput: 0.78, BatchGoodput: 0.81},
	)
	var out strings.Builder
	if err := run([]string{"-kind", "batch", "-current", cur, "-baseline", base}, &out); err != nil {
		t.Fatalf("within tolerance, want pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "batch gate passed") {
		t.Errorf("missing pass line:\n%s", out.String())
	}
	// 40% down: regression.
	slow := writeBatchReport(t, dir, "slow.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.50, BatchGoodput: 0.52},
		experiments.BatchEntry{Nodes: 196, Apps: 140, Density: 10, GreedyGoodput: 0.78, BatchGoodput: 0.89},
	)
	out.Reset()
	if err := run([]string{"-kind", "batch", "-current", slow, "-baseline", base}, &out); err == nil {
		t.Fatalf("40%% regression, want failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION marker:\n%s", out.String())
	}
	// Missing configuration: failure.
	missing := writeBatchReport(t, dir, "missing.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.78, BatchGoodput: 0.86},
	)
	if err := run([]string{"-kind", "batch", "-current", missing, "-baseline", base}, io.Discard); err == nil {
		t.Error("missing city entry: want failure")
	}
}

func TestBatchGateEnforcesBatchBeatsGreedy(t *testing.T) {
	dir := t.TempDir()
	// Batch lost to its own greedy seed at a contended density: failure even
	// though the baseline comparison would pass.
	lost := writeBatchReport(t, dir, "lost.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.90, BatchGoodput: 0.85},
	)
	var out strings.Builder
	if err := run([]string{"-kind", "batch", "-current", lost, "-baseline", lost}, &out); err == nil {
		t.Fatalf("batch below greedy at 10x, want failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lost to its own seed") {
		t.Errorf("missing batch-vs-greedy failure:\n%s", out.String())
	}
	// The same shortfall at 1x density is tolerated: quiet meshes are ties.
	quiet := writeBatchReport(t, dir, "quiet.json",
		experiments.BatchEntry{Nodes: 64, Apps: 8, Density: 1, GreedyGoodput: 0.90, BatchGoodput: 0.85},
	)
	if err := run([]string{"-kind", "batch", "-current", quiet, "-baseline", quiet}, io.Discard); err != nil {
		t.Errorf("density 1 shortfall should pass, got %v", err)
	}
}

func TestBatchGateRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	good := writeBatchReport(t, dir, "good.json",
		experiments.BatchEntry{Nodes: 64, Apps: 80, Density: 10, GreedyGoodput: 0.5, BatchGoodput: 0.6},
	)
	// A sched report fed to the batch gate is a schema mismatch, not a panic.
	sched := writeSchedReport(t, dir, "sched.json",
		experiments.SchedEntry{Nodes: 64, Apps: 80, Storm: true, Mode: "serial", DecisionsPerSec: 1},
	)
	if err := run([]string{"-kind", "batch", "-current", sched, "-baseline", good}, io.Discard); err == nil {
		t.Error("sched report under -kind batch: want error")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"bass/bench-batch/v1","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "batch", "-current", empty, "-baseline", good}, io.Discard); err == nil {
		t.Error("empty entries: want error")
	}
}
