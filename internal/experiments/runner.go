package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Params configures one execution of an experiment job.
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

// jobs lists every job in the paper's presentation order, the order
// `benchtab all` runs them in.
var jobs = []Job{
	{"fig2", func(p Params) ([]Table, error) {
		return oneTable(runFig2(p.Seed, p.Horizon(20*time.Minute)))
	}},
	{"fig4", func(p Params) ([]Table, error) {
		participants := []int{2, 4, 6, 8, 10, 12, 14}
		if p.Quick {
			participants = []int{4, 10, 14}
		}
		return oneTable(runFig4(p.Seed, participants, 3))
	}},
	{"fig5", func(p Params) ([]Table, error) {
		return oneTable(runFig5(p.Seed))
	}},
	{"fig6", func(Params) ([]Table, error) {
		return oneTable(runFig6())
	}},
	{"fig8", func(p Params) ([]Table, error) {
		return oneTable(runFig8(p.Seed))
	}},
	{"fig10", func(p Params) ([]Table, error) {
		return oneTable(runFig10(p.Seed, p.Horizon(30*time.Minute)))
	}},
	{"fig11", func(p Params) ([]Table, error) {
		rates := []float64{100, 200, 300}
		if p.Quick {
			rates = []float64{100, 300}
		}
		return oneTable(runFig11(p.Seed, rates))
	}},
	{"fig12", func(p Params) ([]Table, error) {
		intervals := []int{30, 60, 90, 0}
		if p.Quick {
			intervals = []int{30, 0}
		}
		return oneTable(runFig12(p.Seed, intervals))
	}},
	{"fig13", func(p Params) ([]Table, error) {
		r, err := fig13Sweep(p)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table(), r.Table1()}, nil
	}},
	{"table1", func(p Params) ([]Table, error) {
		r, err := fig13Sweep(p)
		if err != nil {
			return nil, err
		}
		return []Table{r.Table1()}, nil
	}},
	{"table2", func(p Params) ([]Table, error) {
		return oneTable(runTable2(p.Seed, p.Horizon(20*time.Minute)))
	}},
	{"fig14a", func(p Params) ([]Table, error) {
		return oneTable(runFig14a(p.Seed))
	}},
	{"fig14b", func(p Params) ([]Table, error) {
		return oneTable(runFig14b(p.Seed))
	}},
	{"fig14cd", func(p Params) ([]Table, error) {
		thresholds := []int{25, 50, 65, 75, 95}
		headrooms := []int{10, 20, 30}
		if p.Quick {
			thresholds = []int{25, 65, 95}
			headrooms = []int{20}
		}
		return oneTable(runFig14cd(p.Seed, thresholds, headrooms))
	}},
	{"fig15a", func(Params) ([]Table, error) {
		return []Table{fig15aTable()}, nil
	}},
	{"fig15b", func(p Params) ([]Table, error) {
		return oneTable(runFig15b(p.Seed))
	}},
	{"fig16", func(p Params) ([]Table, error) {
		thresholds := []int{25, 50, 65, 75, 95}
		if p.Quick {
			thresholds = []int{25, 65, 95}
		}
		return oneTable(runFig16(p.Seed, thresholds))
	}},
	{"table3", func(p Params) ([]Table, error) {
		r, err := runTable34(table34Trials(p.Quick))
		if err != nil {
			return nil, err
		}
		return []Table{r.Table3()}, nil
	}},
	{"table4", func(p Params) ([]Table, error) {
		r, err := runTable34(table34Trials(p.Quick))
		if err != nil {
			return nil, err
		}
		return []Table{r.Table4()}, nil
	}},
	{"ablate-pack", func(p Params) ([]Table, error) {
		return oneTable(runAblationPackLimit(p.Seed, nil))
	}},
	{"ablate-cooldown", func(p Params) ([]Table, error) {
		return oneTable(runAblationCooldown(p.Seed, nil))
	}},
	{"ablate-probe", func(p Params) ([]Table, error) {
		return oneTable(runAblationProbeInterval(p.Seed, nil))
	}},
	{"chaos", func(p Params) ([]Table, error) {
		return oneTable(runChaos(p.Seed, p.Horizon(20*time.Minute)))
	}},
	{"longevity", func(p Params) ([]Table, error) {
		r, _, err := runLongevity(p.Seed, p.Horizon(80*time.Minute))
		return oneTable(r, err)
	}},
	{"batchablation", func(p Params) ([]Table, error) {
		sweep := batchSweep(p.Seed, p.Quick)
		entries := make([]batchEntry, 0, len(sweep))
		for _, opts := range sweep {
			e, err := runBatchPair(opts)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
		}
		return []Table{batchAblationTable(entries)}, nil
	}},
	{"alertquality", func(p Params) ([]Table, error) {
		return oneTable(runAlertQuality(alertQualityOptions{Seed: p.Seed, Horizon: p.Horizon(2 * time.Hour)}))
	}},
}

// oneTable is the body of a job whose harness renders a single table.
func oneTable[R interface{ Table() Table }](r R, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return []Table{r.Table()}, nil
}

// Lookup returns the job named name.
func Lookup(name string) (Job, bool) {
	for _, j := range jobs {
		if j.Name == name {
			return j, true
		}
	}
	return Job{}, false
}

// CanonicalOrder lists every job name in the paper's presentation order.
func CanonicalOrder() []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	return names
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
// seed-ascending — the deterministic aggregation order ExecuteStream preserves.
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

// ExecuteStream runs every Run across a bounded worker pool and returns
// results in input order. workers <= 0 defaults to GOMAXPROCS. Because jobs
// are pure functions of Params and aggregation is by submission index, the
// returned results — and anything rendered from them — are byte-identical
// whatever the worker count. emit (if non-nil) is called on the caller's
// goroutine, once per run, strictly in input order, as soon as each result
// and all its predecessors are ready.
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
