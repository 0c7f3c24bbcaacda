package main

import (
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"bass/internal/experiments"
)

// runOne executes a single named experiment straight from the registry.
func runOne(name string, seed int64, quick bool) ([]experiments.Table, error) {
	job, ok := experiments.Lookup(strings.ToLower(name))
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return job.Run(experiments.Params{Seed: seed, Quick: quick})
}

func TestRunOneQuickExperiments(t *testing.T) {
	// Fast experiments run at full scale; heavier ones in quick mode.
	for _, name := range []string{"fig2", "fig6", "fig8", "fig15a"} {
		tables, err := runOne(name, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tables) == 0 {
			t.Errorf("%s: no tables", name)
		}
	}
	for _, name := range []string{"fig4", "fig12", "table3"} {
		tables, err := runOne(name, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tab := range tables {
			if !strings.Contains(tab.String(), "==") {
				t.Errorf("%s: table missing title: %q", name, tab.String())
			}
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if _, err := runOne("fig99", 1, true); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestRunRejectsMalformedInput(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("no experiments: want error")
	}
	if err := run([]string{"fig99"}, io.Discard); err == nil {
		t.Error("unknown experiment: want error")
	}
	// Fail-fast: a bad name anywhere in the list must error before any
	// simulation output is produced.
	var out strings.Builder
	if err := run([]string{"fig2", "not-an-experiment"}, &out); err == nil {
		t.Error("unknown experiment in list: want error")
	}
	if out.Len() != 0 {
		t.Errorf("output produced before validation failed:\n%s", out.String())
	}
	if err := run([]string{"-replicas", "0", "fig2"}, io.Discard); err == nil {
		t.Error("replicas=0: want error")
	}
	if err := run([]string{"-bogus-flag"}, io.Discard); err == nil {
		t.Error("unknown flag: want error")
	}
}

// TestRunRejectsBadShards pins that the retired -shards flag fails loudly:
// every count is now a bad one, and a script still passing it must exit
// non-zero before any output rather than run something it did not ask for.
func TestRunRejectsBadShards(t *testing.T) {
	for _, n := range []string{"1", "4"} {
		var out strings.Builder
		if err := run([]string{"-shards", n, "fig8"}, &out); err == nil {
			t.Errorf("-shards %s: want error", n)
		}
		if out.Len() != 0 {
			t.Errorf("-shards %s: output produced before the flag was rejected:\n%s", n, out.String())
		}
	}
}

// stripTiming removes the elapsed-time lines, the only legitimately
// nondeterministic part of benchtab output.
var timingLine = regexp.MustCompile(`(?m)^\(.* completed in .*\)\n`)

func stripTiming(s string) string { return timingLine.ReplaceAllString(s, "") }

// TestRunParallelMatchesSequential runs the CLI end to end at both worker
// counts and demands identical output modulo timing lines.
func TestRunParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	args := []string{"-quick", "-replicas", "2", "-seed", "7", "fig8", "fig2"}

	var seq, par strings.Builder
	if err := run(append([]string{"-workers", "1"}, args...), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-workers", "8"}, args...), &par); err != nil {
		t.Fatal(err)
	}
	if stripTiming(seq.String()) != stripTiming(par.String()) {
		t.Errorf("parallel output diverges:\n--- sequential ---\n%s--- parallel ---\n%s",
			seq.String(), par.String())
	}
	// Replicated runs are labelled with their seed, job-major order kept.
	for _, want := range []string{"fig8 seed=7", "fig8 seed=8", "fig2 seed=7", "fig2 seed=8"} {
		if !strings.Contains(seq.String(), want) {
			t.Errorf("missing %q label:\n%s", want, seq.String())
		}
	}
	if i, j := strings.Index(seq.String(), "Fig 8"), strings.Index(seq.String(), "Fig 2"); i > j {
		t.Error("job-major output order not preserved")
	}
}
