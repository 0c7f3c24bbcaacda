// Package dash defines the live dashboard frame bassd streams over /stream
// and bass-top renders: a periodic snapshot of SLO budgets and burn rates,
// firing alerts, per-link headroom, and recent control-plane activity,
// carried as Server-Sent Events (one JSON frame per "data:" event). The
// frame is the wire contract between the daemon and the dashboard; keep it
// backward-compatible or bump the SchemaVersion.
package dash

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"bass/internal/obs"
	"bass/internal/slo"
)

// SchemaVersion identifies the frame layout; bass-top refuses frames from a
// different major version.
const SchemaVersion = 1

// LinkStat is one link's (or live peer's) latest probe reading.
type LinkStat struct {
	Link         string  `json:"link"`
	HeadroomMbps float64 `json:"headroomMbps"`
	CapacityMbps float64 `json:"capacityMbps,omitempty"`
	// AgeSec is how stale the reading is, seconds since the last probe.
	AgeSec float64 `json:"ageSec"`
}

// Frame is one dashboard snapshot.
type Frame struct {
	Schema int `json:"schema"`
	// AtMs is the snapshot's wall-clock timestamp (sim frames carry virtual
	// milliseconds since start instead).
	AtMs   int64  `json:"atMs"`
	Sweeps uint64 `json:"sweeps"`
	// Firing counts currently open alerts across all specs and tiers.
	Firing int              `json:"firing"`
	SLOs   []slo.SpecStatus `json:"slos,omitempty"`
	Links  []LinkStat       `json:"links,omitempty"`
	// Alerts are the newest alert_fired/alert_resolved journal events,
	// oldest first; Activity the newest migration/recovery/reconcile ones.
	Alerts   []obs.Event `json:"alerts,omitempty"`
	Activity []obs.Event `json:"activity,omitempty"`

	JournalEvents  int    `json:"journalEvents"`
	JournalDropped uint64 `json:"journalDropped,omitempty"`
}

// WriteFrame writes one frame as an SSE data event.
func WriteFrame(w io.Writer, f Frame) error {
	f.Schema = SchemaVersion
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// ReadFrames consumes an SSE stream, calling fn for each decoded frame until
// fn returns false or the stream ends. Non-data SSE lines (comments,
// heartbeats, event names) are skipped.
func ReadFrames(r io.Reader, fn func(Frame) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		payload := strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		if payload == "" {
			continue
		}
		var f Frame
		if err := json.Unmarshal([]byte(payload), &f); err != nil {
			return fmt.Errorf("dash: bad frame: %w", err)
		}
		if f.Schema != SchemaVersion {
			return fmt.Errorf("dash: frame schema %d, want %d", f.Schema, SchemaVersion)
		}
		if !fn(f) {
			return nil
		}
	}
	return sc.Err()
}

// IsAlert reports whether an event belongs in the frame's alert pane.
func IsAlert(t obs.EventType) bool {
	return t == obs.EventAlertFired || t == obs.EventAlertResolved
}

// IsActivity reports whether an event belongs in the frame's activity pane.
func IsActivity(t obs.EventType) bool {
	switch t {
	case obs.EventMigration, obs.EventEvacuate, obs.EventNodeDown, obs.EventNodeRecovered,
		obs.EventReconcileDrift, obs.EventReconcileAction, obs.EventReconcileDegraded,
		obs.EventReconcileShed, obs.EventReconcileRestore:
		return true
	}
	return false
}

// RecentAlerts returns the newest n alert events of a slice, oldest first:
// what Journal.Tail(n, IsAlert) reads off a journal.
func RecentAlerts(events []obs.Event, n int) []obs.Event {
	return tail(events, n, IsAlert)
}

// RecentActivity returns the newest n migration/recovery/reconcile events of
// a slice, oldest first: what Journal.Tail(n, IsActivity) reads off a
// journal.
func RecentActivity(events []obs.Event, n int) []obs.Event {
	return tail(events, n, IsActivity)
}

func tail(events []obs.Event, n int, keep func(obs.EventType) bool) []obs.Event {
	var out []obs.Event
	for i := len(events) - 1; i >= 0 && len(out) < n; i-- {
		if keep(events[i].Type) {
			out = append(out, events[i])
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
