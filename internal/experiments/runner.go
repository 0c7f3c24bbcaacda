package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Params configures one execution of a registered experiment job.
type Params struct {
	// Seed drives every random source in the run; equal Params yield
	// byte-identical tables.
	Seed int64
	// Quick shrinks horizons and sweep sizes for smoke runs.
	Quick bool
}

// Horizon scales a full experiment horizon down in quick mode.
func (p Params) Horizon(full time.Duration) time.Duration {
	if p.Quick {
		return full / 4
	}
	return full
}

// Job is a named, self-contained experiment: one table or figure of the
// paper's evaluation. Jobs are pure functions of Params — they share no
// mutable state, so any number may run on concurrent goroutines.
type Job struct {
	Name string
	Run  func(Params) ([]Table, error)
}

var registry = map[string]Job{}

// register is called from init functions in the fig*/table*/ablations files;
// each experiment entry point registers itself.
func register(name string, run func(Params) ([]Table, error)) {
	if _, dup := registry[name]; dup {
		panic("experiments: duplicate job " + name)
	}
	registry[name] = Job{Name: name, Run: run}
}

// Lookup returns the job registered under name.
func Lookup(name string) (Job, bool) {
	j, ok := registry[name]
	return j, ok
}

// JobNames returns every registered job name, sorted.
func JobNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CanonicalOrder lists every job in the paper's presentation order — the
// order `benchtab all` runs them in. A test pins it against the registry.
func CanonicalOrder() []string {
	return []string{
		"fig2", "fig4", "fig5", "fig6", "fig8", "fig10", "fig11",
		"fig12", "fig13", "table1", "table2", "fig14a", "fig14b",
		"fig14cd", "fig15a", "fig15b", "fig16", "table3", "table4",
		"ablate-pack", "ablate-cooldown", "ablate-probe", "chaos",
		"longevity", "batchablation", "alertquality",
	}
}

// Run is one scheduled execution of a named job.
type Run struct {
	Job    string
	Params Params
}

// Result pairs a Run with its outcome.
type Result struct {
	Run     Run
	Tables  []Table
	Err     error
	Elapsed time.Duration
}

// Replicate expands the named jobs into per-seed replicas: for each job, one
// Run per seed in [seed, seed+replicas). The returned order is job-major,
// seed-ascending — the deterministic aggregation order Execute preserves.
func Replicate(names []string, seed int64, replicas int, quick bool) []Run {
	if replicas < 1 {
		replicas = 1
	}
	runs := make([]Run, 0, len(names)*replicas)
	for _, name := range names {
		for r := 0; r < replicas; r++ {
			runs = append(runs, Run{Job: name, Params: Params{Seed: seed + int64(r), Quick: quick}})
		}
	}
	return runs
}

// Execute runs every Run across a bounded worker pool and returns results in
// input order. workers <= 0 defaults to GOMAXPROCS. Because jobs are pure
// functions of Params and aggregation is by submission index, the returned
// results — and anything rendered from them — are byte-identical whatever
// the worker count.
func Execute(runs []Run, workers int) []Result {
	return ExecuteStream(runs, workers, nil)
}

// ExecuteStream is Execute with streaming: emit (if non-nil) is called on
// the caller's goroutine, once per run, strictly in input order, as soon as
// each result and all its predecessors are ready.
func ExecuteStream(runs []Run, workers int, emit func(Result)) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	results := make([]Result, len(runs))
	if len(runs) == 0 {
		return results
	}
	ready := make([]chan struct{}, len(runs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = execute(runs[i])
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range runs {
			idx <- i
		}
		close(idx)
	}()
	for i := range runs {
		<-ready[i]
		if emit != nil {
			emit(results[i])
		}
	}
	wg.Wait()
	return results
}

func execute(r Run) (res Result) {
	start := time.Now()
	res.Run = r
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("experiments: job %q panicked: %v", r.Job, p)
		}
	}()
	job, ok := Lookup(r.Job)
	if !ok {
		res.Err = fmt.Errorf("experiments: unknown job %q", r.Job)
		return res
	}
	res.Tables, res.Err = job.Run(r.Params)
	return res
}
