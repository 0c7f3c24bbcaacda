package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bass/internal/faults"
	"bass/internal/obs"
)

func writeScenario(t *testing.T, sc scenario) string {
	t.Helper()
	raw, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExecuteCameraOnCityLab(t *testing.T) {
	sc := exampleScenario()
	sc.HorizonSec = 120
	if err := execute(sc, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteSocialnetOnLAN(t *testing.T) {
	sc := scenario{
		Topology:   "lan",
		LANNodes:   3,
		App:        "socialnet",
		Scheduler:  "longest-path",
		HorizonSec: 60,
		Seed:       1,
		RPS:        20,
		ClientNode: "node3",
	}
	if err := execute(sc, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteVideoconf(t *testing.T) {
	sc := scenario{
		Topology:            "citylab",
		App:                 "videoconf",
		Scheduler:           "bfs",
		HorizonSec:          60,
		Seed:                1,
		ParticipantsPerNode: 2,
	}
	if err := execute(sc, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteWithSLO checks the -slo path end to end: the evaluator attaches
// its own store, the summary lists the auto-registered specs, and on an
// uncongested full-mesh LAN a fault-free continuous-flow run keeps every
// budget intact. (Videoconf, not camera: the goodput SLI compares live flow
// rate to declared demand, so intermittent frame transfers read as bad.)
func TestExecuteWithSLO(t *testing.T) {
	sc := scenario{
		Topology:            "lan",
		LANNodes:            3,
		App:                 "videoconf",
		Scheduler:           "bfs",
		HorizonSec:          300,
		Seed:                42,
		Migration:           true,
		SLO:                 true,
		ParticipantsPerNode: 2,
	}
	var out bytes.Buffer
	if err := execute(sc, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"slo: specs=3 good=3 firing=0",
		"mesh/headroom", "control/loop", "goodput/videoconf",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "budget=0.0%") || strings.Contains(got, "no-data") {
		t.Errorf("fault-free run burned a budget or lost data:\n%s", got)
	}
}

// TestRunSLOFlagForcesEvaluator checks the -slo flag reaches the scenario.
func TestRunSLOFlagForcesEvaluator(t *testing.T) {
	sc := exampleScenario()
	sc.HorizonSec = 120
	path := writeScenario(t, sc)
	var out bytes.Buffer
	if err := run([]string{"-slo", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slo: specs=3") {
		t.Errorf("-slo flag did not enable the evaluator:\n%s", out.String())
	}
}

func TestExecuteErrors(t *testing.T) {
	if err := execute(scenario{Topology: "moon"}, io.Discard); err == nil {
		t.Error("unknown topology: want error")
	}
	if err := execute(scenario{App: "pacman"}, io.Discard); err == nil {
		t.Error("unknown app: want error")
	}
	if err := execute(scenario{Scheduler: "random"}, io.Discard); err == nil {
		t.Error("unknown scheduler: want error")
	}
}

func TestRunWithConfigFile(t *testing.T) {
	sc := exampleScenario()
	sc.HorizonSec = 30
	path := writeScenario(t, sc)
	var out strings.Builder
	if err := run([]string{"-config", path}, &out); err != nil {
		t.Fatal(err)
	}
	// Single run: no per-run headers.
	if strings.Contains(out.String(), "===") {
		t.Errorf("single run printed headers:\n%s", out.String())
	}
	// Positional form is equivalent.
	if err := run([]string{path}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing config: want error")
	}
	if err := run([]string{"-config", "/nonexistent.json"}, io.Discard); err == nil {
		t.Error("missing file: want error")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, io.Discard); err == nil {
		t.Error("malformed config: want error")
	}
	if err := os.WriteFile(path, []byte(`{"topology": "lan"} {"seed": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, io.Discard); err == nil {
		t.Error("trailing data after the config: want error")
	}
	if err := run([]string{"-seeds", "0", writeScenario(t, exampleScenario())}, io.Discard); err == nil {
		t.Error("seeds=0: want error")
	}
}

func TestRunExample(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "example.json")
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadScenario(path); err != nil {
		t.Fatalf("-example is not a valid scenario: %v\n%s", err, out.String())
	}
}

// TestRunRejectsUnknownKeys pins strict decoding: a key outside the schema —
// a typo, or one this version no longer reads — fails the whole invocation,
// naming the file and the key, before any scenario runs.
func TestRunRejectsUnknownKeys(t *testing.T) {
	good := writeScenario(t, exampleScenario())
	for _, extra := range []string{
		`"pollingNet": true`,
		`"shards": 4`,
		`"evalWorkers": 4`,
		`"migraton": true`,
	} {
		raw := `{"topology": "lan", "horizonSec": 30, ` + extra + `}`
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err := run([]string{good, bad}, &out)
		if err == nil {
			t.Errorf("%s: want error", extra)
			continue
		}
		key := strings.SplitN(extra, `"`, 3)[1]
		if !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: error %q should name the file and the key", extra, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: output produced before the config was rejected:\n%s", extra, out.String())
		}
	}
}

// TestRunSeedsParallelDeterministic fans one config across seeds on several
// workers and demands byte-identical output to the sequential run, with
// labelled sections in seed order.
func TestRunSeedsParallelDeterministic(t *testing.T) {
	sc := exampleScenario()
	sc.HorizonSec = 30
	path := writeScenario(t, sc)

	var seq, par strings.Builder
	if err := run([]string{"-seeds", "3", "-workers", "1", path}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seeds", "3", "-workers", "4", path}, &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel output diverges from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
			seq.String(), par.String())
	}
	for _, want := range []string{"seed=42", "seed=43", "seed=44"} {
		if !strings.Contains(seq.String(), want) {
			t.Errorf("output missing %s header:\n%s", want, seq.String())
		}
	}
	if i, j := strings.Index(seq.String(), "seed=42"), strings.Index(seq.String(), "seed=44"); i > j {
		t.Error("seed sections out of order")
	}
}

// TestRunMultipleConfigs passes two positional configs and checks both are
// reported under their own headers, in argument order.
func TestRunMultipleConfigs(t *testing.T) {
	cam := exampleScenario()
	cam.HorizonSec = 30
	lan := scenario{
		Topology:   "lan",
		App:        "socialnet",
		Scheduler:  "lp",
		HorizonSec: 30,
		Seed:       5,
		RPS:        10,
	}
	p1, p2 := writeScenario(t, cam), writeScenario(t, lan)
	var out strings.Builder
	if err := run([]string{p1, p2}, &out); err != nil {
		t.Fatal(err)
	}
	i, j := strings.Index(out.String(), "=== "+p1), strings.Index(out.String(), "=== "+p2)
	if i < 0 || j < 0 || i > j {
		t.Errorf("per-config headers missing or out of order (i=%d, j=%d):\n%s", i, j, out.String())
	}
	if !strings.Contains(out.String(), "camera:") || !strings.Contains(out.String(), "socialnet (") {
		t.Errorf("missing app reports:\n%s", out.String())
	}
}

// TestExecuteWithFaults runs a faulted scenario twice and demands
// byte-identical output, with the recovery report present; the same
// scenario without faults must not print recovery lines.
func TestExecuteWithFaults(t *testing.T) {
	sc := scenario{
		Topology:           "lan",
		LANNodes:           4,
		App:                "camera",
		Scheduler:          "bfs",
		HorizonSec:         300,
		Seed:               9,
		Migration:          true,
		MonitorIntervalSec: 30,
		Faults: []faults.Event{
			{AtSec: 60, Type: faults.NodeCrash, Node: "node2"},
			{AtSec: 240, Type: faults.NodeRecover, Node: "node2"},
		},
		Chaos: &chaosConfig{LinkFlapsPerHour: 12, MeanLinkDowntimeSec: 20},
	}
	var run1, run2 strings.Builder
	if err := execute(sc, &run1); err != nil {
		t.Fatal(err)
	}
	if err := execute(sc, &run2); err != nil {
		t.Fatal(err)
	}
	if run1.String() != run2.String() {
		t.Errorf("faulted runs differ:\n--- 1 ---\n%s--- 2 ---\n%s", run1.String(), run2.String())
	}
	// The explicit crash/recover pair merges with generated link flaps (and
	// possibly generated crashes), so assert on presence, not exact counts.
	for _, want := range []string{"faults: ", "recovery: ", "node-crash=", "link-down="} {
		if !strings.Contains(run1.String(), want) {
			t.Errorf("output missing %q:\n%s", want, run1.String())
		}
	}

	sc.Faults, sc.Chaos = nil, nil
	var clean strings.Builder
	if err := execute(sc, &clean); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "recovery:") {
		t.Errorf("fault-free run printed a recovery report:\n%s", clean.String())
	}
}

// TestEventsOutDeterministic runs the same faulted, seeded scenario twice
// with -events-out/-metrics-out and demands byte-identical journal and metric
// dumps — the observability plane's headline guarantee, end to end through
// the CLI.
func TestEventsOutDeterministic(t *testing.T) {
	sc := scenario{
		Topology:           "lan",
		LANNodes:           4,
		App:                "camera",
		Scheduler:          "bfs",
		HorizonSec:         300,
		Seed:               9,
		Migration:          true,
		MonitorIntervalSec: 30,
		Faults: []faults.Event{
			{AtSec: 60, Type: faults.NodeCrash, Node: "node2"},
			{AtSec: 240, Type: faults.NodeRecover, Node: "node2"},
		},
	}
	path := writeScenario(t, sc)
	dir := t.TempDir()

	read := func(name string) (events, metrics []byte) {
		t.Helper()
		ev := filepath.Join(dir, name+"-events.jsonl")
		mt := filepath.Join(dir, name+"-metrics.json")
		var out strings.Builder
		if err := run([]string{"-events-out", ev, "-metrics-out", mt, path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "journal: ") || !strings.Contains(out.String(), "metrics: ") {
			t.Fatalf("output missing journal/metrics summary lines:\n%s", out.String())
		}
		events, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err = os.ReadFile(mt)
		if err != nil {
			t.Fatal(err)
		}
		return events, metrics
	}
	ev1, mt1 := read("a")
	ev2, mt2 := read("b")
	if len(ev1) == 0 {
		t.Fatal("journal is empty")
	}
	if string(ev1) != string(ev2) {
		t.Errorf("same-seed journals differ:\n--- 1 ---\n%s--- 2 ---\n%s", ev1, ev2)
	}
	if string(mt1) != string(mt2) {
		t.Errorf("same-seed metric dumps differ:\n--- 1 ---\n%s--- 2 ---\n%s", mt1, mt2)
	}
	// Every line must be a standalone JSON object (JSONL contract), and the
	// failure handling must appear in the journal.
	for _, line := range strings.Split(strings.TrimSuffix(string(ev1), "\n"), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
	}
	for _, want := range []string{`"type":"node_down"`, `"type":"cordon"`, `"type":"failover"`} {
		if !strings.Contains(string(ev1), want) {
			t.Errorf("journal missing %s:\n%s", want, ev1)
		}
	}
}

// TestDerivePath checks per-run output path derivation.
func TestDerivePath(t *testing.T) {
	cases := []struct {
		base     string
		i, total int
		want     string
	}{
		{"", 0, 3, ""},
		{"out.jsonl", 0, 1, "out.jsonl"},
		{"out.jsonl", 0, 3, "out.000.jsonl"},
		{"out.jsonl", 2, 3, "out.002.jsonl"},
		{"dir/out", 1, 2, "dir/out.001"},
	}
	for _, c := range cases {
		if got := derivePath(c.base, c.i, c.total); got != c.want {
			t.Errorf("derivePath(%q, %d, %d) = %q, want %q", c.base, c.i, c.total, got, c.want)
		}
	}
}

// goldenTrace is the SHA-256 of the -trace-out export for CI's trace-smoke
// scenario, captured when bass-sim still had -polling and both network
// drivers produced these bytes.
const goldenTrace = "286110ecdc484eb8f9c49b5beb5ffe17ae015626b5488cf7e7859f5ff778a141"

// TestTraceOutDeterministicAcrossDrivers runs CI's faulted, seeded trace-smoke
// scenario twice with -trace-out and demands byte-identical Chrome trace JSON
// equal to the export both network drivers once agreed on — the causal trace
// is part of the simulation's observable output.
func TestTraceOutDeterministicAcrossDrivers(t *testing.T) {
	sc := scenario{
		Topology:           "lan",
		LANNodes:           4,
		App:                "camera",
		Scheduler:          "bfs",
		HorizonSec:         300,
		Seed:               7,
		Migration:          true,
		MonitorIntervalSec: 30,
		Faults: []faults.Event{
			{AtSec: 60, Type: faults.NodeCrash, Node: "node2"},
			{AtSec: 240, Type: faults.NodeRecover, Node: "node2"},
		},
	}
	path := writeScenario(t, sc)
	dir := t.TempDir()

	read := func(name string) []byte {
		t.Helper()
		tr := filepath.Join(dir, name+"-trace.json")
		var out strings.Builder
		if err := run([]string{"-trace-out", tr, path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "trace: ") {
			t.Fatalf("output missing trace summary line:\n%s", out.String())
		}
		raw, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	event1 := read("event1")
	event2 := read("event2")
	if len(event1) == 0 {
		t.Fatal("trace export is empty")
	}
	if string(event1) != string(event2) {
		t.Error("same-seed traces differ")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(event1)); got != goldenTrace {
		t.Errorf("trace digest %s, want golden %s", got, goldenTrace)
	}
	var trace struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(event1, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for i, te := range trace.TraceEvents {
		if te.Name == "" || te.Ph == "" {
			t.Fatalf("trace event %d missing name/ph: %+v", i, te)
		}
		if te.Ph != "M" && te.Ts == nil {
			t.Fatalf("trace event %d (%s) missing ts", i, te.Name)
		}
		counts[te.Ph]++
	}
	if counts["X"] == 0 || counts["s"] == 0 || counts["s"] != counts["f"] {
		t.Errorf("trace shape off: %d slices, %d flow starts, %d flow ends",
			counts["X"], counts["s"], counts["f"])
	}
}

// TestJournalCauseChainsResolveToProbes pins the PR's headline acceptance
// criterion end to end through the CLI: in a run with bandwidth-violation
// migrations and in one with fault-driven failovers, every migration and
// failover journal event carries a cause chain that resolves back to a
// concrete probe sample, with the full candidate scoreboard attached.
func TestJournalCauseChainsResolveToProbes(t *testing.T) {
	scenarios := map[string]scenario{
		// The throttled citylab uplink drives the SFU through repeated
		// bandwidth-violation migrations.
		"migration": {
			Topology: "citylab", App: "videoconf", Scheduler: "bfs",
			HorizonSec: 900, Seed: 5, Migration: true, MonitorIntervalSec: 30,
		},
		// The crashed LAN node strands components and drives failovers.
		"failover": {
			Topology: "lan", LANNodes: 4, App: "camera", Scheduler: "bfs",
			HorizonSec: 300, Seed: 9, Migration: true, MonitorIntervalSec: 30,
			Faults: []faults.Event{
				{AtSec: 60, Type: faults.NodeCrash, Node: "node2"},
				{AtSec: 240, Type: faults.NodeRecover, Node: "node2"},
			},
		},
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			path := writeScenario(t, sc)
			ev := filepath.Join(t.TempDir(), "events.jsonl")
			if err := run([]string{"-events-out", ev, path}, io.Discard); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(ev)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := obs.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			want := obs.EventMigration
			if name == "failover" {
				want = obs.EventFailover
			}
			checked := 0
			for _, e := range events {
				if e.Type != want {
					continue
				}
				checked++
				if e.Span == 0 || e.Cause == 0 {
					t.Fatalf("%s event lacks span/cause: %+v", want, e)
				}
				chain := obs.CauseChain(events, e.Span)
				if len(chain) < 2 {
					t.Fatalf("%s event has no resolvable cause chain: %+v", want, e)
				}
				if root := chain[len(chain)-1]; !root.IsProbeSample() {
					t.Errorf("%s cause chain roots at %s, want a probe sample", want, root.Type)
				}
				if board := obs.Scoreboard(events, e); len(board) == 0 {
					t.Errorf("%s event has no candidate scoreboard: %+v", want, e)
				}
			}
			if checked == 0 {
				t.Fatalf("scenario produced no %s events; journal has %d events", want, len(events))
			}
		})
	}
}

// TestExecuteRejectsBadFaultSchedule checks schedule validation surfaces as
// an execute error.
func TestExecuteRejectsBadFaultSchedule(t *testing.T) {
	sc := scenario{
		Topology:   "lan",
		HorizonSec: 30,
		Faults:     []faults.Event{{AtSec: 5, Type: faults.NodeCrash, Node: "no-such-node"}},
	}
	if err := execute(sc, io.Discard); err == nil {
		t.Error("invalid fault target: want error")
	}
}
