// Command benchtab regenerates the tables and figures of the BASS paper's
// evaluation on the simulated substrate.
//
// Usage:
//
//	benchtab [-seed N] [-quick] [-workers N] [-replicas N]
//	         [-cpuprofile FILE] [-memprofile FILE] <experiment>...
//	benchtab all
//
// Experiments, in the order `all` runs them: the paper's fig2 fig4 fig5 fig6
// fig8 fig10 fig11 fig12 fig13 table1 table2 fig14a fig14b fig14cd fig15a
// fig15b fig16 table3 table4; the design-choice ablations ablate-pack
// ablate-cooldown ablate-probe; and the robustness and placement studies
// chaos longevity batchablation alertquality.
//
// Experiments run as jobs on a bounded worker pool (-workers, default
// GOMAXPROCS); -replicas R fans each experiment out over seeds
// seed..seed+R-1. Output order — and, modulo timing lines, output bytes —
// is identical whatever the worker count.
//
// How fast the simulator itself runs is measured by `go run ./bench`, not
// here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bass/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "simulation seed")
	quick := fs.Bool("quick", false, "shorter horizons and smaller sweeps")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel experiment jobs (1 = sequential)")
	replicas := fs.Int("replicas", 1, "per-seed replicas of each experiment (seed, seed+1, ...)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: memprofile:", err)
			}
			f.Close()
		}()
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiments given; try: benchtab all")
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.CanonicalOrder()
	}
	// Fail fast on malformed input: every name must resolve before any
	// simulation starts, so CI can gate on the exit code.
	for i, name := range names {
		names[i] = strings.ToLower(name)
		if _, ok := experiments.Lookup(names[i]); !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)",
				name, strings.Join(experiments.CanonicalOrder(), " "))
		}
	}
	if *replicas < 1 {
		return fmt.Errorf("replicas must be >= 1, got %d", *replicas)
	}

	runs := experiments.Replicate(names, *seed, *replicas, *quick)
	var firstErr error
	experiments.ExecuteStream(runs, *workers, func(res experiments.Result) {
		label := res.Run.Job
		if *replicas > 1 {
			label = fmt.Sprintf("%s seed=%d", label, res.Run.Params.Seed)
		}
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", label, res.Err)
			}
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", label, res.Err)
			return
		}
		for _, t := range res.Tables {
			fmt.Fprintln(stdout, t.String())
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", label, res.Elapsed.Round(time.Millisecond))
	})
	return firstErr
}
