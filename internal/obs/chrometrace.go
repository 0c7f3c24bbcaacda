package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace-event export: the journal rendered as a Perfetto-loadable
// span tree. Each journal event becomes a complete ("X") slice on a track
// per pipeline stage (probes, verdicts, scheduler, actions, network), and
// every Cause link becomes a flow-event pair ("s" at the cause, "f" at the
// effect) so Perfetto draws the probe→verdict→migration arrows. Output is a
// pure function of the event slice — same journal, same bytes — so the
// byte-identical-at-equal-seeds guarantee extends to exported traces.

// chromeEvent is one entry of the trace-event JSON array. Field names and
// semantics follow the Chrome trace-event format; ts/dur are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Cat  string  `json:"cat,omitempty"`
	ID   string  `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
	Args any     `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// Trace tracks, one per pipeline stage. Constant tids keep output stable.
const (
	trackProbes    = 1
	trackVerdicts  = 2
	trackScheduler = 3
	trackActions   = 4
	trackNetwork   = 5
)

var trackNames = []struct {
	tid  int
	name string
}{
	{trackProbes, "probes"},
	{trackVerdicts, "verdicts"},
	{trackScheduler, "scheduler"},
	{trackActions, "actions"},
	{trackNetwork, "network"},
}

// trackOf maps an event type to its display track.
func trackOf(t EventType) int {
	switch t {
	case EventProbeFull, EventProbeHeadroom, EventProbeError, EventHeadroomViolation:
		return trackProbes
	case EventMigrationCandidate, EventNodeDown, EventNodeRecovered,
		EventReconcileDrift, EventAlertFired, EventAlertResolved:
		return trackVerdicts
	case EventDeploy, EventSchedule, EventSchedCandidate:
		return trackScheduler
	case EventFault, EventFlowParked, EventFlowResumed, EventTransferFailed:
		return trackNetwork
	default: // migration, cordon, evacuate, reconcile actions, ...
		return trackActions
	}
}

// sliceDurUS is the rendered width of each event slice: events are instants
// in virtual time, but 1 ms slices stay visible at Perfetto's default zoom.
const sliceDurUS = 1000

// WriteChromeTrace renders events (journal order) as Chrome trace-event
// JSON. Load the result at ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = make([]chromeEvent, 0, 2*len(events)+len(trackNames)+1)
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: struct {
			Name string `json:"name"`
		}{"bass decision loop"},
	})
	for _, tr := range trackNames {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tr.tid,
			Args: struct {
				Name string `json:"name"`
			}{tr.name},
		})
	}
	us := func(ev Event) float64 { return float64(ev.At.Nanoseconds()) / 1e3 }
	for _, ev := range events {
		args := ev
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: string(ev.Type),
			Ph:   "X",
			Ts:   us(ev),
			Dur:  sliceDurUS,
			Pid:  1,
			Tid:  trackOf(ev.Type),
			Args: &args,
		})
	}
	// Cause links as flow events. Each link gets its own flow id (the
	// effect's span) so a cause with many effects binds each arrow cleanly.
	idx := IndexBySpan(events)
	for _, ev := range events {
		if ev.Cause == 0 || ev.Span == 0 {
			continue
		}
		ci, ok := idx[ev.Cause]
		if !ok {
			continue // cause evicted from the ring: no arrow
		}
		cause := events[ci]
		id := strconv.FormatUint(ev.Span, 10)
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "cause", Ph: "s", Ts: us(cause), Pid: 1,
				Tid: trackOf(cause.Type), Cat: "cause", ID: id},
			chromeEvent{Name: "cause", Ph: "f", BP: "e", Ts: us(ev), Pid: 1,
				Tid: trackOf(ev.Type), Cat: "cause", ID: id},
		)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
