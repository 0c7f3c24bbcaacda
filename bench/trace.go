package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bass/internal/sim"
)

// eventClass is the layer an engine event is attributed to, decided from
// outside by which public counter moved while it ran.
type eventClass uint8

const (
	classOther     eventClass = iota // no layer counter moved: app timers, transfers, absorbed passes
	classPass                        // simnet.AllocStats.FullPasses advanced
	classReconcile                   // a reconciler counter advanced
	classControl                     // ControlStats.Cycles advanced
	classFault                       // Topology.AvailabilityEpoch advanced
	classDrain                       // same-time events after the epoch sentinel, run as one Engine.Run
	numClasses
)

var classNames = [numClasses]string{"sim.other", "simnet.pass", "reconcile", "core.control", "faults.apply", "epoch.drain"}

// layerCounters is the snapshot of public counters taken around every event.
type layerCounters struct {
	cycles     int    // ControlStats.Cycles
	wallNS     int64  // ControlStats.WallNS
	fullPasses uint64 // simnet.AllocStats.FullPasses
	reconcile  int    // drifts + actions + sheds + restores
	availEpoch uint64 // Topology.AvailabilityEpoch
}

// classify attributes one event. The order is containment: a fault applies
// topology state (which reallocates and may drift), a control cycle migrates
// (which reallocates), a reconcile action re-attaches streams (ditto); a bare
// water-filling pass is what is left.
func classify(before, after layerCounters) eventClass {
	switch {
	case after.availEpoch != before.availEpoch:
		return classFault
	case after.cycles != before.cycles:
		return classControl
	case after.reconcile != before.reconcile:
		return classReconcile
	case after.fullPasses != before.fullPasses:
		return classPass
	}
	return classOther
}

// span is one recorded interval. Event spans have an epoch span as parent,
// epoch spans the run span, the run span the workload span; all spans of a
// rep share the workload name as their identifier.
type span struct {
	class      eventClass
	parent     int32 // index into tracer.spans; -1 for the workload span
	start, end time.Duration
}

// tracer drives the engine one event at a time and keeps every span in
// memory until the rep ends.
type tracer struct {
	workload string
	snap     func() layerCounters
	t0       time.Time
	spans    []span
	// runSpan and lastEpoch index the run span and the newest epoch span.
	runSpan, lastEpoch int32
	// controlNS sums control-event durations; wallNS the part of them
	// ControlStats.WallNS covers.
	controlNS, wallNS int64
	out               string // Chrome trace file, "" = none
}

const (
	spanWorkload eventClass = numClasses + iota
	spanRun
	spanEpoch
)

func (tr *tracer) now() time.Duration { return time.Since(tr.t0) }

// begin opens the workload and run spans.
func (tr *tracer) begin(workload string, in *instance) {
	tr.workload = workload
	tr.snap = in.layerCounters
	tr.t0 = time.Now()
	tr.spans = append(tr.spans[:0], span{class: spanWorkload, parent: -1}, span{class: spanRun, parent: 0})
	tr.runSpan = 1
}

// layerCounters reads the public counters event classification rests on.
func (in *instance) layerCounters() layerCounters {
	c := layerCounters{
		fullPasses: in.net.AllocStats().FullPasses,
		availEpoch: in.topo.AvailabilityEpoch(),
	}
	if in.sim != nil {
		cs := in.sim.Orch.ControlStats()
		c.cycles, c.wallNS = cs.Cycles, cs.WallNS
		if rec := in.sim.Orch.Reconciler(); rec != nil {
			c.reconcile = rec.DriftsSeen() + rec.ActionsTotal() + rec.Sheds() + rec.Restores()
		}
	}
	return c
}

// runEpoch advances the engine to until one event at a time. Engine.Step has
// no horizon, so a sentinel event marks the boundary; events already queued
// for exactly until run before it, and the ones scheduled for until while the
// epoch ran are drained by a final Engine.Run — together exactly the events
// an untraced Run(until) executes, in the same order.
func (tr *tracer) runEpoch(eng *sim.Engine, until time.Duration) error {
	epochIdx := int32(len(tr.spans))
	tr.lastEpoch = epochIdx
	tr.spans = append(tr.spans, span{class: spanEpoch, parent: tr.runSpan, start: tr.now()})
	reached := false
	eng.At(until, func() { reached = true })
	before := tr.snap()
	for !reached {
		start := tr.now()
		if !eng.Step() {
			break
		}
		end := tr.now()
		if reached {
			break // the sentinel itself is not a span
		}
		after := tr.snap()
		tr.record(classify(before, after), epochIdx, start, end, before, after)
		before = after
	}
	start := tr.now()
	err := eng.Run(until)
	end := tr.now()
	if after := tr.snap(); after != before {
		tr.record(classify(before, after), epochIdx, start, end, before, after)
	} else if end-start > time.Microsecond {
		tr.spans = append(tr.spans, span{class: classDrain, parent: epochIdx, start: start, end: end})
	}
	tr.spans[epochIdx].end = tr.now()
	return err
}

func (tr *tracer) record(c eventClass, parent int32, start, end time.Duration, before, after layerCounters) {
	tr.spans = append(tr.spans, span{class: c, parent: parent, start: start, end: end})
	if c == classControl {
		tr.controlNS += (end - start).Nanoseconds()
		tr.wallNS += after.wallNS - before.wallNS
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// it its children cover. Children of one parent never overlap here (one
// goroutine), so the covered part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// finish closes the open spans, folds every event span's self time into its
// class, and writes the Chrome trace if asked.
func (tr *tracer) finish(res *repResult) {
	// The run span ends with its last epoch; its self time is the goodput
	// sampling between epochs — the bench's own work, off the clock.
	tr.spans[0].end = tr.now()
	tr.spans[tr.runSpan].end = tr.spans[tr.lastEpoch].end
	var classNS [numClasses]time.Duration
	var passMS []float64
	var runNS time.Duration
	self := selfTimes(tr.spans)
	for i, s := range tr.spans {
		switch {
		case s.class == spanEpoch:
			runNS += s.end - s.start
		case s.class < numClasses:
			classNS[s.class] += self[i]
			if s.class == classPass {
				passMS = append(passMS, msOf(s.end-s.start))
			}
		}
	}
	v := res.Values
	v["sim.other_self_s"] = (classNS[classOther] + classNS[classDrain]).Seconds()
	v["simnet.pass_self_s"] = classNS[classPass].Seconds()
	if len(passMS) > 0 {
		v["simnet.pass_ms_p50"] = percentile(passMS, 500)
		res.N["simnet.pass_ms_p50"] = len(passMS)
	}
	v["reconcile.event_self_s"] = classNS[classReconcile].Seconds()
	v["faults.apply_self_s"] = classNS[classFault].Seconds()
	// A control event's duration splits into what ControlStats.WallNS covers
	// (reported as core.control_self_s from the counter itself) and the tail
	// it omits.
	v["core.epoch_tail_self_s"] = float64(tr.controlNS-tr.wallNS) / 1e9
	if n := v["apps.requests"] + v["apps.frames"]; n > 0 {
		v["apps.event_self_us"] = v["sim.other_self_s"] * 1e6 / n
	}
	var attributed time.Duration
	for _, ns := range classNS {
		attributed += ns
	}
	v["bench.attributed_frac"] = attributed.Seconds() / runNS.Seconds()
	res.RunS = runNS.Seconds()
	if tr.out != "" {
		if err := tr.writeChrome(); err != nil {
			res.Violations = append(res.Violations, "trace file: "+err.Error())
		}
	}
}

// chromeEvent is one Chrome trace-event ("X" = complete event, µs units).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Consecutive events of one class within an epoch are coalesced
// into one slice carrying their count and summed duration, so a half-million
// event rep stays a readable file; the self-time sums above use every span.
func (tr *tracer) writeChrome() (err error) {
	f, err := os.Create(tr.out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	structural := map[eventClass]string{spanWorkload: "workload", spanRun: "run", spanEpoch: "epoch"}
	var run *chromeEvent
	var runParent int32
	flush := func() error {
		if run == nil {
			return nil
		}
		ev := *run
		run = nil
		return emit(ev)
	}
	for _, s := range tr.spans {
		if name, ok := structural[s.class]; ok {
			if err := flush(); err != nil {
				return err
			}
			// Structural spans nest on one track above the events.
			ev := chromeEvent{Name: name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
				Args: map[string]any{"workload": tr.workload, "parent": s.parent}}
			if err := emit(ev); err != nil {
				return err
			}
			continue
		}
		name := classNames[s.class]
		if run != nil && run.Name == name && runParent == s.parent {
			run.Args["events"] = run.Args["events"].(int) + 1
			run.Args["busy_us"] = run.Args["busy_us"].(float64) + us(s.end-s.start)
			run.Dur = us(s.end) - run.Ts
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		runParent = s.parent
		run = &chromeEvent{Name: name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 2,
			Args: map[string]any{"workload": tr.workload, "parent": s.parent, "events": 1, "busy_us": us(s.end - s.start)}}
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
