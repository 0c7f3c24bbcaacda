// Command bass-trace inspects BASS decision journals (the JSONL files
// bass-sim -events-out writes and bassd's /journal endpoint serves).
//
// Usage:
//
//	bass-trace explain journal.jsonl            # decisions with cause chains + scoreboards
//	bass-trace explain -component b journal.jsonl
//	bass-trace convert -o trace.json journal.jsonl   # Chrome trace-event / Perfetto export
//	bass-trace check trace.json                 # validate an exported trace's schema
//	bass-trace check journal.jsonl              # validate reconcile drift cause chains
//
// explain walks every decision event (schedule, migration, failover,
// reconcile drift/action/converged, SLO alert fired/resolved, and their
// rejections) back to root cause through Cause spans — typically a concrete
// probe sample — and renders the candidate scoreboard the scheduler
// evaluated, one row per node with its score terms and typed rejection.
// Alert events render with their budget-burn context: the long-window burn
// rate against the tier threshold and the error budget remaining. convert is
// the one Chrome trace-event export of a journal (bass-sim and bassd write
// only the JSONL). check verifies
// an exported trace parses and every entry carries the required name/ph/ts
// fields; handed a JSONL journal instead, it runs obs.CheckCauses: every
// reconcile_drift and alert event's cause chain must resolve to a concrete
// probe sample or an injected fault.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"bass/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bass-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bass-trace <explain|convert|check> [flags] <file>")
	}
	switch args[0] {
	case "explain":
		return runExplain(args[1:], stdout)
	case "convert":
		return runConvert(args[1:], stdout)
	case "check":
		return runCheck(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want explain, convert, or check)", args[0])
	}
}

// readJournal loads a JSONL journal from a path ("-" = stdin).
func readJournal(path string) ([]obs.Event, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadJSONL(r)
}

// decisionTypes are the event types explain narrates, in journal order.
var decisionTypes = map[obs.EventType]bool{
	obs.EventSchedule:           true,
	obs.EventMigration:          true,
	obs.EventMigrationRejected:  true,
	obs.EventFailover:           true,
	obs.EventFailoverQueued:     true,
	obs.EventReconcileDrift:     true,
	obs.EventReconcileAction:    true,
	obs.EventReconcileDegraded:  true,
	obs.EventReconcileShed:      true,
	obs.EventReconcileRestore:   true,
	obs.EventReconcileConverged: true,
	obs.EventAlertFired:         true,
	obs.EventAlertResolved:      true,
}

func runExplain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bass-trace explain", flag.ContinueOnError)
	component := fs.String("component", "", "only explain decisions about this component")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bass-trace explain [-component X] <journal.jsonl>")
	}
	events, err := readJournal(fs.Arg(0))
	if err != nil {
		return err
	}
	printed := 0
	for _, ev := range events {
		if !decisionTypes[ev.Type] {
			continue
		}
		if *component != "" && ev.Component != *component {
			continue
		}
		printDecision(stdout, events, ev)
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(stdout, "no decision events in journal")
	}
	return nil
}

// printDecision renders one decision: headline, cause chain back to the root
// probe sample, and the candidate scoreboard the pass evaluated.
func printDecision(w io.Writer, events []obs.Event, ev obs.Event) {
	fmt.Fprintf(w, "t=%.0fs %s %s\n", ev.At.Seconds(), ev.Type, headline(ev))
	if chain := obs.CauseChain(events, ev.Span); len(chain) > 1 {
		fmt.Fprintln(w, "  cause chain:")
		for _, link := range chain[1:] {
			fmt.Fprintf(w, "    t=%.0fs %s %s\n", link.At.Seconds(), link.Type, headline(link))
		}
		if root := chain[len(chain)-1]; root.IsProbeSample() {
			fmt.Fprintln(w, "    (root is a concrete probe sample)")
		}
	}
	if board := obs.Scoreboard(events, ev); len(board) > 0 {
		fmt.Fprintln(w, "  candidates:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "    NODE\tSCORE\tDEPS\tLOCAL\tREMOTE\tVERDICT")
		for _, c := range board {
			verdict := c.Reason
			if verdict == "" {
				verdict = "chosen"
			}
			fmt.Fprintf(tw, "    %s\t%.2f\t%.0f\t%.2f\t%.2f\t%s\n",
				c.Node, c.Value, c.Want, c.Local, c.Remote, verdict)
		}
		tw.Flush()
	}
}

// headline renders an event's subject: who moved where and why.
func headline(ev obs.Event) string {
	if ev.Type == obs.EventAlertFired || ev.Type == obs.EventAlertResolved {
		// SLO alerts carry budget-burn context: the long-window burn rate
		// against the tier threshold, and the error budget left at the
		// transition.
		return fmt.Sprintf("%s %s — burn %.1fx (threshold %.1fx), budget %.1f%% left",
			ev.SLO, ev.Reason, ev.Value, ev.Want, 100*ev.Budget)
	}
	s := ""
	switch {
	case ev.App != "" && ev.Component != "":
		s = ev.App + "/" + ev.Component
	case ev.Component != "":
		s = ev.Component
	case ev.Node != "":
		s = ev.Node
	case ev.Link != "":
		s = ev.Link
	case ev.Flow != "":
		s = ev.Flow
	}
	if ev.From != "" || ev.To != "" {
		s += fmt.Sprintf(": %s -> %s", ev.From, ev.To)
	}
	if ev.Value != 0 || ev.Want != 0 {
		s += fmt.Sprintf(" (%.2f/%.2f)", ev.Value, ev.Want)
	}
	if ev.Reason != "" {
		s += " — " + ev.Reason
	}
	return s
}

func runConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bass-trace convert", flag.ContinueOnError)
	out := fs.String("o", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bass-trace convert [-o trace.json] <journal.jsonl>")
	}
	events, err := readJournal(fs.Arg(0))
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		w = f
	}
	return obs.WriteChromeTrace(w, events)
}

func runCheck(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bass-trace check", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bass-trace check <trace.json | journal.jsonl>")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
		// Not a Chrome trace export: try journal mode, which validates the
		// reconcile causal contract instead of the trace schema.
		events, jerr := obs.ReadJSONL(bytes.NewReader(raw))
		if jerr != nil || len(events) == 0 {
			if err == nil {
				err = fmt.Errorf("no trace events")
			}
			return fmt.Errorf("%s: neither trace JSON (%v) nor journal JSONL (%v)", fs.Arg(0), err, jerr)
		}
		n, err := obs.CheckCauses(events)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		fmt.Fprintf(stdout, "ok: %d journal events, %d/%d drift and %d/%d alert events resolve to probe samples or faults\n",
			len(events), n.Drifts, n.Drifts, n.Alerts, n.Alerts)
		return nil
	}
	counts := map[string]int{}
	for i, te := range trace.TraceEvents {
		if te.Name == "" {
			return fmt.Errorf("%s: event %d has no name", fs.Arg(0), i)
		}
		if te.Ph == "" {
			return fmt.Errorf("%s: event %d (%s) has no ph", fs.Arg(0), i, te.Name)
		}
		// Slices and flow bindings are timestamped; metadata (ph M) is not.
		if te.Ph != "M" && te.Ts == nil {
			return fmt.Errorf("%s: event %d (%s, ph %s) has no ts", fs.Arg(0), i, te.Name, te.Ph)
		}
		if te.Pid == nil {
			return fmt.Errorf("%s: event %d (%s) has no pid", fs.Arg(0), i, te.Name)
		}
		counts[te.Ph]++
	}
	fmt.Fprintf(stdout, "ok: %d trace events (%d slices, %d flow links)\n",
		len(trace.TraceEvents), counts["X"], counts["s"]+counts["f"])
	return nil
}
