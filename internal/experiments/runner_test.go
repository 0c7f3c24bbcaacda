package experiments

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCanonicalOrderMatchesRegistry(t *testing.T) {
	canon := CanonicalOrder()
	seen := map[string]bool{}
	for _, name := range canon {
		if seen[name] {
			t.Errorf("duplicate %q in CanonicalOrder", name)
		}
		seen[name] = true
		if _, ok := Lookup(name); !ok {
			t.Errorf("CanonicalOrder lists unregistered job %q", name)
		}
	}
	if got, want := len(canon), len(JobNames()); got != want {
		t.Errorf("CanonicalOrder has %d jobs, registry %d: %v vs %v",
			got, want, canon, JobNames())
	}
	if names := JobNames(); !sort.StringsAreSorted(names) {
		t.Errorf("JobNames not sorted: %v", names)
	}
}

func TestReplicateSeedOrdered(t *testing.T) {
	runs := Replicate([]string{"fig2", "fig8"}, 10, 3, true)
	if len(runs) != 6 {
		t.Fatalf("runs = %d, want 6", len(runs))
	}
	want := []Run{
		{Job: "fig2", Params: Params{Seed: 10, Quick: true}},
		{Job: "fig2", Params: Params{Seed: 11, Quick: true}},
		{Job: "fig2", Params: Params{Seed: 12, Quick: true}},
		{Job: "fig8", Params: Params{Seed: 10, Quick: true}},
		{Job: "fig8", Params: Params{Seed: 11, Quick: true}},
		{Job: "fig8", Params: Params{Seed: 12, Quick: true}},
	}
	for i, r := range runs {
		if r != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestExecuteUnknownJob(t *testing.T) {
	res := ExecuteStream([]Run{{Job: "fig99"}}, 2, nil)
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("unknown job: want error, got %+v", res)
	}
}

// render flattens results the way benchtab prints them, minus timing lines.
func render(results []Result) string {
	var b strings.Builder
	for _, res := range results {
		if res.Err != nil {
			b.WriteString("error: " + res.Err.Error() + "\n")
			continue
		}
		for _, tab := range res.Tables {
			b.WriteString(tab.String())
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestParallelMatchesSequential is the harness's core guarantee: the exact
// fig2/fig8/table2 reproductions, fanned out over 8 workers with per-seed
// replicas, must render byte-identically to the 1-worker (sequential) run.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	runs := Replicate([]string{"fig2", "fig8", "table2"}, 42, 2, true)

	sequential := render(ExecuteStream(runs, 1, nil))
	var mu sync.Mutex
	var streamed []Result
	parallel := render(ExecuteStream(runs, 8, func(r Result) {
		mu.Lock()
		streamed = append(streamed, r)
		mu.Unlock()
	}))

	if sequential != parallel {
		t.Errorf("parallel output diverges from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
			sequential, parallel)
	}
	if !strings.Contains(sequential, "Fig 2") || !strings.Contains(sequential, "Fig 8") ||
		!strings.Contains(sequential, "Table 2") {
		t.Errorf("missing expected tables:\n%s", sequential)
	}
	// Streaming must emit in submission order regardless of completion order.
	if len(streamed) != len(runs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(runs))
	}
	for i, res := range streamed {
		if res.Run != runs[i] {
			t.Errorf("stream position %d got %+v, want %+v", i, res.Run, runs[i])
		}
		if res.Err != nil {
			t.Errorf("%s seed %d: %v", res.Run.Job, res.Run.Params.Seed, res.Err)
		}
	}
}

// TestRunsAreSeedDeterministic re-executes one seed twice in the same
// process and demands byte equality — the foundation the parallel
// equivalence above rests on.
func TestRunsAreSeedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	runs := Replicate([]string{"fig8"}, 7, 1, true)
	a := render(ExecuteStream(runs, 1, nil))
	b := render(ExecuteStream(runs, 1, nil))
	if a != b {
		t.Errorf("same seed, different output:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
