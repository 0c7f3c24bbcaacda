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

// TestRunSLOKeyEnablesEvaluator checks the scenario file's "slo" key
// reaches the run.
func TestRunSLOKeyEnablesEvaluator(t *testing.T) {
	sc := exampleScenario()
	sc.HorizonSec = 120
	sc.SLO = true
	path := writeScenario(t, sc)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slo: specs=3") {
		t.Errorf("\"slo\": true did not enable the evaluator:\n%s", out.String())
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
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	// Single run: no per-run headers.
	if strings.Contains(out.String(), "===") {
		t.Errorf("single run printed headers:\n%s", out.String())
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing config: want error")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.json")}, io.Discard); err == nil {
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

// scenarioContract is a seeded, faulted scenario run once through the CLI.
// The JSON is written as a user would write it. The goldens are SHA-256
// digests of stdout (output paths replaced by "DIR") and of each dump; a
// dump is written (-events-out, -metrics-out) only when the contract has a
// golden for it. trace pins the journal's Chrome trace export (what
// `bass-trace convert` writes).
type scenarioContract struct {
	name, scenario                  string
	stdout, journal, metrics, trace string
	// wantLines must each start a stdout line; wantEvents must each appear
	// in the journal.
	wantLines, wantEvents []string
	causes                obs.CauseCounts
}

// crashScenario crashes node2 at 60 s and brings it back at 240 s.
const crashScenario = `{
  "topology": "lan", "lanNodes": 4, "app": "camera",
  "scheduler": "bfs", "horizonSec": 300, "seed": 7,
  "migration": true, "monitorIntervalSec": 30,
  "faults": [
    {"atSec": 60, "type": "node-crash", "node": "node2"},
    {"atSec": 240, "type": "node-recover", "node": "node2"}
  ]
}`

// scenarioContracts are the rows of TestScenarioContracts.
var scenarioContracts = []scenarioContract{
	{
		name: "chaos",
		scenario: `{
  "topology": "lan", "lanNodes": 4, "app": "camera",
  "scheduler": "bfs", "horizonSec": 300, "seed": 7,
  "migration": true, "monitorIntervalSec": 30,
  "faults": [
    {"atSec": 60, "type": "node-crash", "node": "node2"},
    {"atSec": 240, "type": "node-recover", "node": "node2"}
  ],
  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 90,
            "linkFlapsPerHour": 12, "meanLinkDowntimeSec": 20}
}`,
		stdout:    "7be60a54027a46a728c1f8083dd3dfe64b9e88ef65567db4bc8cf4a05b4afa88",
		journal:   "61bea9452deb2a439a8525ffd030a4a57aeb159d03d28e44eec53af5edf60812",
		wantLines: []string{"recovery: "},
	},
	{
		name: "slo",
		scenario: `{
  "topology": "lan", "lanNodes": 4, "app": "camera",
  "scheduler": "bfs", "horizonSec": 900, "seed": 7,
  "migration": true, "monitorIntervalSec": 30, "slo": true,
  "faults": [
    {"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node2"},
    {"atSec": 420, "type": "link-up", "linkA": "node1", "linkB": "node2"}
  ]
}`,
		stdout:     "88fde9834692c80dd2fd9a061c2189f3934310621283b2600a2a169e340b3c29",
		journal:    "283234e993651dc5c646e1cb48228333fc2aadbbf2ea47a2716cb688d8cc3205",
		wantLines:  []string{"slo: specs=3 "},
		wantEvents: []string{`"type":"alert_fired"`},
		causes:     obs.CauseCounts{Alerts: 2},
	},
	{
		name: "longevity",
		scenario: `{
  "topology": "lan", "lanNodes": 4, "app": "camera",
  "scheduler": "bfs", "horizonSec": 900, "seed": 42,
  "migration": true, "reconcile": true, "monitorIntervalSec": 30,
  "faults": [
    {"atSec": 60, "type": "node-crash", "node": "node2"},
    {"atSec": 240, "type": "node-recover", "node": "node2"}
  ],
  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 120,
            "linkFlapsPerHour": 6, "meanLinkDowntimeSec": 30}
}`,
		stdout:    "e057fd3ba90e4e39526b67474767bf87bab26a472b0e1465ead16b2c328a911b",
		journal:   "895277373b06b3246f908487e0c6c57a7cb9a24e0a3e5b2ce16f84916f9caf3d",
		wantLines: []string{"reconcile: converged=true drift=0 "},
		causes:    obs.CauseCounts{Drifts: 6},
	},
}

// TestScenarioContracts runs each row once through the CLI with -events-out
// and checks its contracts (see checkContract).
func TestScenarioContracts(t *testing.T) {
	for _, c := range scenarioContracts {
		t.Run(c.name, func(t *testing.T) { checkContract(t, c) })
	}
}

// TestEventsOutDeterministic runs the crash scenario with -events-out and
// -metrics-out: the journal and metric dump equal their goldens (same seed,
// same bytes, across commits), the journal is non-empty, one JSON object per
// line, and records the node failure, cordon and failover.
func TestEventsOutDeterministic(t *testing.T) {
	checkContract(t, scenarioContract{
		scenario:   crashScenario,
		stdout:     "f6680455e482aa4b9491104564b1ea78b2f1f8887139f3156176befff70aa2c5",
		journal:    "a7a6bfb7088b27e3ba7f121892b42aaddf30988755344b6296bc878eac77c99f",
		metrics:    "dc44a1f5132f0d1189ee89aae2de375022e0e939aeab5f4704f071ac02ea8b06",
		wantLines:  []string{"journal: ", "metrics: "},
		wantEvents: []string{`"type":"node_down"`, `"type":"cordon"`, `"type":"failover"`},
	})
}

// TestTraceOutDeterministicAcrossDrivers runs the crash scenario with
// -events-out and converts the journal as bass-trace convert does: the
// Chrome trace equals the golden captured when bass-sim still had -polling
// and both network drivers produced these bytes (then via -trace-out).
func TestTraceOutDeterministicAcrossDrivers(t *testing.T) {
	checkContract(t, scenarioContract{
		scenario:  crashScenario,
		stdout:    "aebe7f76d9f5ff3a37407edbd575847984ea5af144b00df039e8f000f00d144d",
		journal:   "a7a6bfb7088b27e3ba7f121892b42aaddf30988755344b6296bc878eac77c99f",
		trace:     "286110ecdc484eb8f9c49b5beb5ffe17ae015626b5488cf7e7859f5ff778a141",
		wantLines: []string{"journal: "},
	})
}

// checkContract runs c once through the CLI and checks: stdout and every
// dump equal their goldens; c's lines start stdout lines; a journal has c's
// events, is one JSON object per line, and every decision's cause chain
// passes obs.CheckCauses with exactly c.causes gated; its Chrome trace
// export has name/ph/ts on every event and balanced flow links.
func checkContract(t *testing.T, c scenarioContract) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(c.scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	evPath := filepath.Join(dir, "events.jsonl")
	mtPath := filepath.Join(dir, "metrics.json")
	var args []string
	if c.journal != "" {
		args = append(args, "-events-out", evPath)
	}
	if c.metrics != "" {
		args = append(args, "-metrics-out", mtPath)
	}
	var out strings.Builder
	if err := run(append(args, path), &out); err != nil {
		t.Fatal(err)
	}
	stdout := strings.ReplaceAll(out.String(), dir, "DIR")
	pin(t, "stdout", []byte(stdout), c.stdout)
	for _, want := range c.wantLines {
		if !strings.HasPrefix(stdout, want) && !strings.Contains(stdout, "\n"+want) {
			t.Errorf("no stdout line starts with %q:\n%s", want, stdout)
		}
	}
	if c.metrics != "" {
		pin(t, "metrics", readFile(t, mtPath), c.metrics)
	}
	if c.journal == "" {
		return
	}

	journal := readFile(t, evPath)
	pin(t, "journal", journal, c.journal)
	if len(journal) == 0 {
		t.Fatal("journal is empty")
	}
	for _, want := range c.wantEvents {
		if !bytes.Contains(journal, []byte(want)) {
			t.Errorf("journal missing %s", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(journal), "\n"), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line is not JSON: %v\n%s", err, line)
		}
	}
	events, err := obs.ReadJSONL(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.CheckCauses(events); err != nil {
		t.Error(err)
	} else if n != c.causes {
		t.Errorf("cause check gated %+v, want %+v", n, c.causes)
	}
	if c.trace != "" {
		var trace bytes.Buffer
		if err := obs.WriteChromeTrace(&trace, events); err != nil {
			t.Fatal(err)
		}
		pin(t, "trace", trace.Bytes(), c.trace)
		checkTraceShape(t, trace.Bytes())
	}
}

// pin fails unless data's SHA-256 is the golden want.
func pin(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("%s digest %s, want golden %s", what, got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkTraceShape checks a Chrome trace export parses, every event carries
// name and ph (and ts, unless metadata), and flow starts pair with flow ends.
func checkTraceShape(t *testing.T, raw []byte) {
	t.Helper()
	var trace struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
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
