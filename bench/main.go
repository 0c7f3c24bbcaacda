// Command bench is the repository's one benchmark: five named, seeded
// workloads built through the public API of internal/*, each rep run in a
// fresh child process and timed from outside (set-up, run, teardown), with a
// correctness gate, a traced pass that attributes run time to layers, and a
// comparator. See README.md in this directory.
//
//	go run ./bench                       # every workload, 5 reps + traced pass
//	go run ./bench -quick                # smoke sizes, seconds; never for claims
//	go run ./bench -list                 # every metric: unit, kind, direction, bound
//	go run ./bench -out a.json           # results file, for -compare
//	go run ./bench -compare a.json b.json
//
// The benchmark driver runs one workload per invocation:
//
//	go run ./bench --workload city-flows --seed 7 --seconds 12 --trace 0
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

type options struct {
	workloads []workloadDef
	seed      int64
	reps      int
	seconds   int
	trace     bool
	traceOut  string
	quick     bool
	out       string
}

func main() {
	var (
		workloadList = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		seed         = flag.Int64("seed", 42, "workload seed (1337 is held out for later claims)")
		reps         = flag.Int("reps", 5, "untraced reps per workload, interleaved across workloads")
		seconds      = flag.Int("seconds", 0, "driver mode: measure one workload for about this long and end with the driver's JSON line")
		trace        = flag.Int("trace", 1, "1 = run the traced pass and report per-layer metrics (driver mode: only those); 0 = end-to-end only")
		traceOut     = flag.String("trace-out", "", "Chrome trace-event file for the traced pass (default: under the OS temp dir; none in driver mode)")
		quick        = flag.Bool("quick", false, "tiny sizes, whole run in seconds — smoke only, never for claims")
		list         = flag.Bool("list", false, "list every metric with unit, kind, direction and bound, then exit")
		out          = flag.String("out", "", "write the results JSON here")
		compare      = flag.Bool("compare", false, "compare two results files: -compare BASE.json NEW.json")
		manifestOut  = flag.String("manifest", "", "write BENCHMARK.json here (- = stdout), then exit")
		child        = flag.Bool("child", false, "internal: run one rep in this process and print its result")
		variant      = flag.String("variant", "", "internal: ratio-rep switch for -child (shards2, workers2, greedy)")
	)
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
		return
	case *manifestOut != "":
		if err := writeManifestFile(*manifestOut); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	opts := options{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace != 0,
		traceOut: *traceOut, quick: *quick, out: *out}
	if *workloadList == "" {
		opts.workloads = workloads
	}
	for _, name := range strings.Split(*workloadList, ",") {
		if name == "" {
			continue
		}
		def, ok := findWorkload(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", name, workloadNames()))
		}
		opts.workloads = append(opts.workloads, def)
	}

	var err error
	switch {
	case *child:
		err = runChild(opts, *variant)
	case opts.seconds > 0:
		err = runDriver(opts)
	default:
		err = runSuite(os.Stdout, opts)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func writeManifestFile(path string) error {
	if path == "-" {
		return writeManifest(os.Stdout)
	}
	return writeFile(path, writeManifest)
}

// writeFile creates path, lets write fill it, and reports the first error,
// Close's included.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// variantParams maps a ratio rep's name to the switch it flips.
func variantParams(p buildParams, variant string) (buildParams, error) {
	switch variant {
	case "":
	case "shards2":
		p.shards = 2
	case "workers2":
		p.evalWorkers = 2
	case "greedy":
		p.greedy = true
	default:
		return p, fmt.Errorf("unknown variant %q", variant)
	}
	return p, nil
}

// runChild is one rep: this process builds and runs exactly one workload
// once, so heap state never leaks between reps and VmHWM is the rep's own.
func runChild(opts options, variant string) error {
	if len(opts.workloads) != 1 {
		return fmt.Errorf("-child needs exactly one -workload")
	}
	p, err := variantParams(buildParams{seed: opts.seed, quick: opts.quick}, variant)
	if err != nil {
		return err
	}
	var tr *tracer
	if opts.trace {
		tr = &tracer{out: opts.traceOut}
	}
	res, err := runRep(opts.workloads[0], p, variant, tr)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnRep re-executes this binary as a child for one rep and decodes what it
// reports. Children run one at a time: the load comes from one process.
func spawnRep(opts options, def workloadDef, variant string, traced bool, traceOut string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", def.name, "-seed", fmt.Sprint(opts.seed), "-variant", variant, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-trace-out", traceOut)
	}
	if opts.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("rep of %s failed: %w", def.name, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("rep of %s: bad result: %w", def.name, err)
	}
	return &res, nil
}

// defaultTraceOut names the suite's trace file for one workload: under the OS
// temp dir, never inside the repository.
func defaultTraceOut(opts options, def workloadDef) string {
	if opts.traceOut != "" {
		ext := filepath.Ext(opts.traceOut)
		return strings.TrimSuffix(opts.traceOut, ext) + "-" + def.name + ext
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("bass-bench-%s-seed%d.trace.json", def.name, opts.seed))
}
