package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bass/internal/cluster"
	"bass/internal/faults"
	"bass/internal/obs"
	"bass/internal/scenario"
	"bass/internal/trace"
)

// execute runs sc as bass-sim runs a config file: through its JSON and
// scenario.Decode, with no journal or metric dump.
func execute(sc scenario.Spec, out io.Writer) error {
	raw, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	spec, err := scenario.Decode(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return executeObserved(spec, out, "", "")
}

func writeScenario(t *testing.T, sc scenario.Spec) string {
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
	sc := scenario.Spec{
		Topology:   "lan",
		Apps:       []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 20, ClientNode: "node3"}}},
		Scheduler:  "longest-path",
		HorizonSec: 60,
		Seed:       1,
	}
	if err := execute(sc, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteVideoconf(t *testing.T) {
	sc := scenario.Spec{
		Topology:   "citylab",
		Apps:       []scenario.App{{Videoconf: &scenario.Videoconf{ParticipantsPerNode: 2}}},
		Scheduler:  "bfs",
		HorizonSec: 60,
		Seed:       1,
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
	sc := scenario.Spec{
		Topology:   "lan",
		Apps:       []scenario.App{{Videoconf: &scenario.Videoconf{ParticipantsPerNode: 2}}},
		Scheduler:  "bfs",
		HorizonSec: 300,
		Seed:       42,
		Migration:  true,
		SLO:        true,
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
	if err := execute(scenario.Spec{Topology: "moon"}, io.Discard); err == nil {
		t.Error("unknown topology: want error")
	}
	if err := execute(scenario.Spec{App: "pacman"}, io.Discard); err == nil {
		t.Error("unknown app: want error")
	}
	if err := execute(scenario.Spec{Scheduler: "random"}, io.Discard); err == nil {
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
	if _, err := scenario.Load(path); err != nil {
		t.Fatalf("-example is not a valid scenario: %v\n%s", err, out.String())
	}
}

// TestRunRejectsUnknownKeys pins strict decoding: a key outside the schema —
// a typo, or one this version no longer reads — fails the whole invocation,
// naming the file and the key, before any scenario runs.
func TestRunRejectsUnknownKeys(t *testing.T) {
	for _, extra := range []string{
		`"pollingNet": true`,
		`"shards": 4`,
		`"evalWorkers": 4`,
		`"migraton": true`,
		// The lan sizing keys and client host that "nodes" replaced.
		`"lanNodes": 4`,
		`"lanNodeCPU": 8`,
		`"clientHost": "client"`,
	} {
		checkRejected(t, extra, strings.SplitN(extra, `"`, 3)[1])
	}
}

// TestRunRejectsBadValues pins validation: a value that would otherwise
// silently become a default, be ignored, or fail only once its simulation
// is built fails the whole invocation, naming the file and the key, before
// any scenario runs.
func TestRunRejectsBadValues(t *testing.T) {
	for _, c := range []struct{ extra, key string }{
		{`"horizonSec": -5`, "horizonSec"},
		{`"apps": [{"socialnet": {"rps": -10}}]`, "rps"},
		{`"apps": [{"videoconf": {"publishMbps": -1}}]`, "publishMbps"},
		{`"apps": [{"videoconf": {"clients": {"node2": -3}}}]`, "clients"},
		{`"apps": [{"camera": {"frameKB": -30}}]`, "frameKB"},
		{`"apps": [{"camera": {"pinCamera": "node9"}}]`, "pinCamera"},
		{`"apps": [{"stream": {"name": "s", "components": [{"name": "a", "cpu": -1}]}}]`, "cpu"},
		{`"apps": [{"stream": {"name": "s", "components": [{"name": "a", "pin": "node9"}]}}]`, "pin"},
		{`"apps": [{"stream": {"name": "s", "components": [{"name": "a"}], "edges": [{"from": "a", "to": "b", "mbps": 1}]}}]`, "edge"},
		{`"apps": [{}]`, "apps[0]"},
		{`"apps": [{"camera": {}, "socialnet": {}}]`, "apps[0]"},
		{`"apps": [{"camera": {}}, {"camera": {}}]`, "apps[1]"},
		{`"app": "camera", "apps": [{"camera": {}}]`, "app"},
		{`"monitorIntervalSec": -30`, "monitorIntervalSec"},
		// The batch search's budget and width are no keys.
		{`"batch": true, "batchK": 2`, "batchK"},
		{`"batch": true, "batchBudget": -1`, "batchBudget"},
		{`"chaos": {"protected": ["ghost"]}`, "protected"},
		{`"chaos": {"linkFlapsPerHour": -6}`, "linkFlapsPerHour"},
		{`"apps": [{"socialnet": {"clientNode": "nodeX"}}]`, "clientNode"},
		{`"faults": [{"atSec": 5, "type": "node-crash", "node": "node9"}]`, "faults"},
		{`"app": "pacman"`, "app"},
		{`"scheduler": "random"`, "scheduler"},
		{`"topology": "moon"`, "topology"},
		{`"migrationDowntimeSec": -4.3`, "migrationDowntimeSec"},
		// Pins on CityLab's unschedulable control host.
		{`"topology": "citylab", "apps": [{"camera": {"pinCamera": "node0"}}]`, "pinCamera"},
		{`"topology": "citylab", "apps": [{"videoconf": {"initialNode": "node0"}}]`, "initialNode"},
		{`"topology": "citylab", "apps": [{"stream": {"name": "s", "components": [{"name": "a", "pin": "node0"}]}}]`, "a.pin"},
		{`"links": [{"a": "node1", "b": "node9", "mbps": 5}]`, "links[0]"},
		{`"links": [{"egress": "node1", "mbps": 5}, {"a": "node2", "b": "node1", "mbps": 5}]`, "links[1]"},
		{`"links": [{"egress": "node1", "mbps": 5, "csv": "t.csv"}]`, "links[0]"},
		{`"links": [{"egress": "node1", "mbps": -5}]`, "links[0].mbps"},
		{`"links": [{"egress": "node1", "phases": [{"durationSec": 0, "mbps": 5}]}]`, "links[0].phases[0].durationSec"},
		{`"controller": {"utilizationThreshold": 1.5}`, "controller.utilizationThreshold"},
		{`"controller": {"goodputFloor": -0.1}`, "controller.goodputFloor"},
		{`"controller": {"headroomMbps": -2}`, "controller.headroomMbps"},
		{`"controller": {"cooldownSec": -30}`, "controller.cooldownSec"},
		{`"controller": {"reMigrationSec": -1}`, "controller.reMigrationSec"},
		{`"controller": {"cooldown": 30}`, "cooldown"},
		{`"controller": {"utilizationThreshold": 0, "goodputFloor": 0, "headroomMbps": 0, "cooldownSec": 0, "reMigrationSec": 0}`, "controller"},
		{`"packLimit": 1.5`, "packLimit"},
		{`"packLimit": -0.8`, "packLimit"},
		{`"scheduler": "k3s", "packLimit": 0.8`, "packLimit"},
		{`"reservedCPU": -1`, "reservedCPU"},
		// The SLO tick runs only in the control loop, which only migration
		// starts.
		{`"slo": true, "migration": false`, "slo"},
		{`"app": "socialnet", "slo": true, "faults": [{"atSec": 10, "type": "node-crash", "node": "node2"}]`, "migration"},
		// The schema has no "reconcile" key: the reconciler runs whenever
		// migration does. A scenario that still names it is rejected, with
		// or without migration, naming the key.
		{`"reconcile": true`, "reconcile"},
		{`"migration": true, "reconcile": true, "faults": [{"atSec": 10, "type": "node-crash", "node": "node2"}]`, `unknown field "reconcile"`},
		// Cluster lists and custom topologies.
		{`"nodes": [{"name": "node1", "cpu": 4}, {"name": "node1", "cpu": 4}]`, "nodes[1].name"},
		{`"nodes": [{"name": "", "cpu": 4}]`, "nodes[0].name"},
		{`"topology": "citylab", "nodes": [{"name": "node1", "cpu": 4}]`, "nodes"},
		{`"topology": "custom"`, "nodes"},
		{`"topology": "custom", "nodes": [{"name": "a"}], "links": [{"a": "a", "b": "ghost", "mbps": 5}]`, "links[0]"},
		{`"nodes": [{"name": "node1", "cpu": -4}]`, "nodes[0].cpu"},
		{`"nodes": [{"name": "node1", "cpu": 1e400}]`, "cpu"},
		{`"nodes": [{"name": "node1", "memoryMB": -1}]`, "nodes[0].memoryMB"},
		{`"nodes": [{"name": "node1", "memoryMB": 1e400}]`, "memoryMB"},
		// A custom link's latency is fixed: the entry has no key for it.
		{`"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"a": "a", "b": "b", "mbps": 5, "latencyMs": 3}]`, "latencyMs"},
		{`"topology": "custom", "nodes": [{"name": "a"}, {"name": "b"}], "links": [{"egress": "a", "mbps": 5}]`, "links[0].egress"},
	} {
		checkRejected(t, c.extra, c.key)
	}
}

// TestRunRejectsBadTraceFiles: a links entry's missing or malformed CSV
// fails the invocation before any config runs, naming the config, the key,
// the trace file and, for a bad row, its line.
func TestRunRejectsBadTraceFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte("offset_s,mbps\n0,5\n1,5\n2,fast\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ csv, want string }{
		{"missing.csv", filepath.Join(dir, "missing.csv")},
		{"bad.csv", filepath.Join(dir, "bad.csv") + ": trace: line 4"},
	} {
		checkRejectedIn(t, dir, `"links": [{"egress": "node2", "mbps": 5}, {"egress": "node1", "csv": "`+c.csv+`"}]`,
			"links[1].csv", c.want)
	}
}

// TestRunRejectsOverflowingSeconds: seconds whose nanoseconds overflow a
// time.Duration would wrap to a short or negative time (a horizon that runs
// zero frames, a fault that fires at once), so they fail validation, naming
// the key.
func TestRunRejectsOverflowingSeconds(t *testing.T) {
	for _, c := range []struct{ extra, key string }{
		{`"horizonSec": 10000000000`, "horizonSec"},
		{`"monitorIntervalSec": 10000000000`, "monitorIntervalSec"},
		{`"faults": [{"atSec": 1e300, "type": "node-crash", "node": "node2"}]`, "faults[0].atSec"},
		{`"chaos": {"nodeCrashesPerHour": 1, "meanNodeDowntimeSec": 1e300}`, "meanNodeDowntimeSec"},
		{`"chaos": {"linkFlapsPerHour": 1, "meanLinkDowntimeSec": 1e300}`, "meanLinkDowntimeSec"},
		{`"chaos": {"probeLossWindowsPerHour": 1, "meanProbeLossWindowSec": 1e300}`, "meanProbeLossWindowSec"},
		{`"controller": {"cooldownSec": 1e300}`, "controller.cooldownSec"},
		{`"controller": {"reMigrationSec": 1e300}`, "controller.reMigrationSec"},
	} {
		checkRejected(t, c.extra, c.key)
	}
}

// checkRejected runs a good config and then a bad one (a three-node LAN,
// unless extra names the topology, plus extra) and demands an error naming
// the bad file and key, with nothing printed.
func checkRejected(t *testing.T, extra, key string) {
	t.Helper()
	checkRejectedIn(t, t.TempDir(), extra, key, "")
}

// checkRejectedIn is checkRejected with the bad config written to dir and
// an error that also names want.
func checkRejectedIn(t *testing.T, dir, extra, key, want string) {
	t.Helper()
	good := writeScenario(t, exampleScenario())
	bad := filepath.Join(dir, "bad.json")
	raw := `{"horizonSec": 30, ` + extra + `}`
	if !strings.Contains(extra, `"topology"`) {
		raw = `{"topology": "lan", "horizonSec": 30, ` + extra + `}`
	}
	if err := os.WriteFile(bad, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{good, bad}, &out)
	if err == nil {
		t.Errorf("%s: want error", extra)
		return
	}
	if !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q should name the file, the key and %q", extra, err, want)
	}
	if out.Len() != 0 {
		t.Errorf("%s: output produced before the config was rejected:\n%s", extra, out.String())
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
	lan := scenario.Spec{
		Topology:   "lan",
		Apps:       []scenario.App{{Socialnet: &scenario.Socialnet{RPS: 10}}},
		Scheduler:  "lp",
		HorizonSec: 30,
		Seed:       5,
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
	sc := scenario.Spec{
		Topology:           "lan",
		Nodes:              lanNodes(4),
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
		Chaos: &scenario.Chaos{LinkFlapsPerHour: 12, MeanLinkDowntimeSec: 20},
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
	// files are testdata files copied beside the config.
	files []string
	// wantLines must each start a stdout line; wantEvents must each appear
	// in the journal.
	wantLines, wantEvents []string
	causes                obs.CauseCounts
}

// lan4 is a four-node LAN, each node as the default LAN's: 16 cores and
// 65,536 MB.
const lan4 = `"topology": "lan", "nodes": [
    {"name": "node1", "cpu": 16, "memoryMB": 65536}, {"name": "node2", "cpu": 16, "memoryMB": 65536},
    {"name": "node3", "cpu": 16, "memoryMB": 65536}, {"name": "node4", "cpu": 16, "memoryMB": 65536}]`

// lanNodes is lan4's first n nodes in Go.
func lanNodes(n int) []cluster.Node {
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node%d", i+1), CPU: 16, MemoryMB: 65536}
	}
	return nodes
}

// crashScenario crashes node2 at 60 s and brings it back at 240 s.
const crashScenario = `{
  ` + lan4 + `, "app": "camera",
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
  ` + lan4 + `, "app": "camera",
  "scheduler": "bfs", "horizonSec": 300, "seed": 7,
  "migration": true, "monitorIntervalSec": 30,
  "faults": [
    {"atSec": 60, "type": "node-crash", "node": "node2"},
    {"atSec": 240, "type": "node-recover", "node": "node2"}
  ],
  "chaos": {"nodeCrashesPerHour": 6, "meanNodeDowntimeSec": 90,
            "linkFlapsPerHour": 12, "meanLinkDowntimeSec": 20}
}`,
		stdout:    "b7dac9525763624ded85d4fb1b4d4ef4cf8986a014a67ff518b08df745e42769",
		journal:   "8bb0c544277f0cbb26e132d010f4b4b6a9e5e534a35516ed2bbb706b5f582420",
		wantLines: []string{"recovery: ", "reconcile: converged=true drift=0 "},
		causes:    obs.CauseCounts{Drifts: 3},
	},
	{
		name: "slo",
		scenario: `{
  ` + lan4 + `, "app": "camera",
  "scheduler": "bfs", "horizonSec": 900, "seed": 7,
  "migration": true, "monitorIntervalSec": 30, "slo": true,
  "faults": [
    {"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node2"},
    {"atSec": 420, "type": "link-up", "linkA": "node1", "linkB": "node2"}
  ]
}`,
		stdout:     "f2a7c8c587255e8cabe48b22aa20f450ea58e47fa24c439a1c42398a0ecc3c73",
		journal:    "283234e993651dc5c646e1cb48228333fc2aadbbf2ea47a2716cb688d8cc3205",
		wantLines:  []string{"slo: specs=3 "},
		wantEvents: []string{`"type":"alert_fired"`},
		causes:     obs.CauseCounts{Alerts: 2},
	},
	{
		name: "longevity",
		scenario: `{
  ` + lan4 + `, "app": "camera",
  "scheduler": "bfs", "horizonSec": 900, "seed": 42,
  "migration": true, "monitorIntervalSec": 30,
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
	{
		// The camera pipeline and then a pinned producer→consumer stream,
		// whose direct link goes down for three minutes: the pair reroutes.
		name: "apps",
		scenario: `{
  ` + lan4 + `, "scheduler": "bfs", "horizonSec": 600, "seed": 3,
  "migration": true, "monitorIntervalSec": 30,
  "apps": [
    {"camera": {}},
    {"stream": {"name": "pair", "sampleGoodput": true,
      "components": [{"name": "producer", "cpu": 1, "pin": "node1"},
                     {"name": "consumer", "cpu": 1, "pin": "node4"}],
      "edges": [{"from": "producer", "to": "consumer", "mbps": 5}]}}
  ],
  "faults": [
    {"atSec": 120, "type": "link-down", "linkA": "node1", "linkB": "node4"},
    {"atSec": 300, "type": "link-up", "linkA": "node1", "linkB": "node4"}
  ]
}`,
		stdout:     "4935b18bc317f63cb79f345265f6dfde77cda2bd715cd1dc72d41cf63e237e38",
		journal:    "dc619d6babdeb5bf06fa3e80b36314ec68031edde7b3a1c9cd8823d9ea9d3d1a",
		wantLines:  []string{"camera: ", "stream pair: ", "faults: link-down=1 link-up=1"},
		wantEvents: []string{`"app":"pair"`, `"type":"fault"`},
	},
	{
		// CityLab with node1-node3 replaying a 30 s CSV trace (a relative
		// path, read beside the config) and node4's egress throttled to
		// 2 Mbps from 60 s to 180 s.
		name: "links",
		scenario: `{
  "topology": "citylab", "scheduler": "bfs", "horizonSec": 300, "seed": 5,
  "migration": true, "monitorIntervalSec": 30,
  "apps": [{"socialnet": {"rps": 50}}],
  "links": [
    {"a": "node1", "b": "node3", "csv": "node1-node3.csv"},
    {"egress": "node4", "phases": [{"durationSec": 60, "mbps": 25}, {"durationSec": 120, "mbps": 2},
                                   {"durationSec": 120, "mbps": 25}]}
  ]
}`,
		files:     []string{"node1-node3.csv"},
		stdout:    "6cff498a49c5e296eb8d261396e52504bea10a6ac35f33f5f8f1ed3a91befeaf",
		journal:   "9f9b6a51632208618249e4457d83837c574ab9127c0d87cf80eba0729901a711",
		wantLines: []string{"socialnet (15000 requests): "},
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
// line, and records the node failure, cordon and re-placement.
func TestEventsOutDeterministic(t *testing.T) {
	checkContract(t, scenarioContract{
		scenario:   crashScenario,
		stdout:     "e7ed60cd47908aa6d9c78801297cb23db6fd9624dd0d886ab3912f574a820a17",
		journal:    "2a97ae04c840d2bc4f4a9bc180cfb941f745c17bebc3e5bd9a43cc78b07fd9bd",
		metrics:    "2c7da7601947f426c64bdd0a1d1605f12b6fd143e9e0aee7613d7d335416f4ac",
		wantLines:  []string{"journal: ", "metrics: "},
		wantEvents: []string{`"type":"node_down"`, `"type":"cordon"`, `"type":"reconcile_action"`},
		causes:     obs.CauseCounts{Drifts: 2},
	})
}

// TestTraceOutDeterministic runs the crash scenario with -events-out and
// converts the journal as bass-trace convert does: the Chrome trace equals
// its golden.
func TestTraceOutDeterministic(t *testing.T) {
	checkContract(t, scenarioContract{
		scenario:  crashScenario,
		stdout:    "5c4683cd265f9d63e4bf25b74769d99d46907f6637ed229beebcf9d4113a8828",
		journal:   "2a97ae04c840d2bc4f4a9bc180cfb941f745c17bebc3e5bd9a43cc78b07fd9bd",
		trace:     "1600d9c0c4e005abbfae57a62ed3842dae09322a18bab5da622e503c22182154",
		wantLines: []string{"journal: "},
		causes:    obs.CauseCounts{Drifts: 2},
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
	for _, f := range c.files {
		if err := os.WriteFile(filepath.Join(dir, f), readFile(t, filepath.Join("testdata", f)), 0o644); err != nil {
			t.Fatal(err)
		}
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

// TestJournalCauseChainsResolveToProbes pins the cause contract end to end
// through the CLI: in a run with bandwidth-violation migrations and in one
// with fault-driven re-placements, every migration and every reconciler
// placement carries a cause chain that resolves back to a concrete probe
// sample, with the full candidate scoreboard attached. A re-placement's
// chain runs reconcile_action → reconcile_drift → evacuate → cordon →
// node_down and on to the failed probes.
func TestJournalCauseChainsResolveToProbes(t *testing.T) {
	scenarios := map[string]scenario.Spec{
		// The throttled citylab uplink drives the SFU through repeated
		// bandwidth-violation migrations.
		"migration": {
			Topology: "citylab", App: "videoconf", Scheduler: "bfs",
			HorizonSec: 900, Seed: 5, Migration: true, MonitorIntervalSec: 30,
		},
		// The crashed LAN node strands components the reconciler re-places.
		"failover": {
			Topology: "lan", Nodes: lanNodes(4), App: "camera", Scheduler: "bfs",
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
			want, via := obs.EventMigration, []obs.EventType(nil)
			if name == "failover" {
				want = obs.EventReconcileAction
				via = []obs.EventType{obs.EventReconcileAction, obs.EventReconcileDrift,
					obs.EventEvacuate, obs.EventCordon, obs.EventNodeDown}
			}
			checked := 0
			for _, e := range events {
				if e.Type != want || e.To == "" { // a placement, not a failed attempt
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
				for i, typ := range via {
					if i >= len(chain) || chain[i].Type != typ {
						t.Fatalf("%s cause chain %v, want it to start %v", want, chainTypes(chain), via)
					}
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

func chainTypes(chain []obs.Event) []obs.EventType {
	types := make([]obs.EventType, len(chain))
	for i, ev := range chain {
		types[i] = ev.Type
	}
	return types
}

// TestExecuteRejectsBadFaultSchedule checks schedule validation surfaces as
// an execute error.
func TestExecuteRejectsBadFaultSchedule(t *testing.T) {
	sc := scenario.Spec{
		Topology:   "lan",
		HorizonSec: 30,
		Faults:     []faults.Event{{AtSec: 5, Type: faults.NodeCrash, Node: "no-such-node"}},
	}
	if err := execute(sc, io.Discard); err == nil {
		t.Error("invalid fault target: want error")
	}
}

// TestTracegenCSVReplaysBitForBit runs tracegen to a CSV and bass-sim on a
// CityLab config whose links entry cites it: stdout and journal equal a Go
// run whose node2-node3 link carries the generator's own trace, because
// WriteCSV prints each sample in its shortest round-tripping form.
func TestTracegenCSVReplaysBitForBit(t *testing.T) {
	cliDir, goDir := t.TempDir(), t.TempDir()
	csv := filepath.Join(cliDir, "volatile.csv")
	gen := exec.Command("go", "run", "bass/cmd/tracegen", "-profile", "volatile", "-duration", "5m", "-seed", "7", "-out", csv)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}
	path := filepath.Join(cliDir, "sc.json")
	if err := os.WriteFile(path, []byte(`{"topology": "citylab", "app": "socialnet", "horizonSec": 300, "seed": 3,
  "migration": true, "links": [{"a": "node2", "b": "node3", "csv": "volatile.csv"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var cli strings.Builder
	if err := run([]string{"-events-out", filepath.Join(cliDir, "events.jsonl"), path}, &cli); err != nil {
		t.Fatal(err)
	}

	cfg := trace.CityLabVolatile(7)
	cfg.Duration, cfg.Step = 5*time.Minute, time.Second
	generated, err := trace.Generate("volatile", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var phases []scenario.Phase // one a sample
	for _, v := range generated.Samples() {
		phases = append(phases, scenario.Phase{DurationSec: 1, Mbps: v})
	}
	var direct strings.Builder
	if err := executeObserved(scenario.Spec{ReservedCPU: 1, Links: []scenario.Link{{A: "node2", B: "node3", Phases: phases}},
		Apps: []scenario.App{{Socialnet: &scenario.Socialnet{}}}, HorizonSec: 300, Seed: 3, Migration: true,
	}, &direct, filepath.Join(goDir, "events.jsonl"), ""); err != nil {
		t.Fatal(err)
	}
	if a, b := strings.ReplaceAll(cli.String(), cliDir, "DIR"), strings.ReplaceAll(direct.String(), goDir, "DIR"); a != b {
		t.Errorf("bass-sim on the CSV printed\n%s\nthe Go run\n%s", a, b)
	}
	if !bytes.Equal(readFile(t, filepath.Join(cliDir, "events.jsonl")), readFile(t, filepath.Join(goDir, "events.jsonl"))) {
		t.Error("journals differ")
	}
}
