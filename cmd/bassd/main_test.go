package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bass/internal/dash"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/netem"
	"bass/internal/netmon"
	"bass/internal/obs"
)

// testSelf is the probe address of the daemon under test.
const testSelf = "127.0.0.1:9100"

// fakeNet scripts the peers a test monitor probes: a flood reads the peer's
// capacity, a paced probe achieves the lesser of its pacing rate and the
// peer's available rate, and a peer with an error fails every probe.
type fakeNet struct {
	capMbps   map[string]float64
	availMbps map[string]float64
	err       map[string]error
	// paced records the pacing rate of every headroom probe, in call order.
	paced []float64
}

func (f *fakeNet) probe(addr, kind string, _ time.Duration, rateMbps float64) (netem.ProbeResult, error) {
	if err := f.err[addr]; err != nil {
		return netem.ProbeResult{}, err
	}
	if kind == "flood" {
		return netem.ProbeResult{Mbps: f.capMbps[addr]}, nil
	}
	f.paced = append(f.paced, rateMbps)
	return netem.ProbeResult{Mbps: min(rateMbps, f.availMbps[addr])}, nil
}

// testMonitor builds a monitor over a fresh plane without starting its probe
// loop, its probes scripted by the returned fakeNet; tests drive sweeps and
// the clock by hand.
func testMonitor(t *testing.T, peers []string, journal *obs.Journal, store *metricstore.Store) (*monitor, *fakeNet) {
	t.Helper()
	plane := obs.NewPlane(journal, store, func() time.Duration { return 0 })
	mon, err := newMonitor(testSelf, peers, journal, plane, 30*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeNet{capMbps: map[string]float64{}, availMbps: map[string]float64{}, err: map[string]error{}}
	mon.prober.probe = fake.probe
	return mon, fake
}

func testMux(t *testing.T) (*http.ServeMux, *metricstore.Store, *obs.Journal) {
	t.Helper()
	store := metricstore.New(0)
	journal := obs.NewJournal(0)
	stats := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	mon, _ := testMonitor(t, nil, journal, store)
	return newHTTPMux(stats, store, journal, mon), store, journal
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	mux, _, _ := testMux(t)
	rec := get(t, mux, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz Content-Type = %q, want application/json", ct)
	}
	var st healthState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/healthz body is not valid JSON: %v", err)
	}
	if st.Status != "ok" || st.Peers != 0 {
		t.Errorf("/healthz = %+v, want status ok with 0 peers", st)
	}
}

// TestHealthzStale pins the readiness contract: with peers configured, a
// monitor that has not completed a sweep within three intervals reports
// "stale" and 503; a fresh sweep flips it back to ok.
func TestHealthzStale(t *testing.T) {
	store := metricstore.New(0)
	journal := obs.NewJournal(0)
	mon, _ := testMonitor(t, []string{"127.0.0.1:9101"}, journal, store)
	stats := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	mux := newHTTPMux(stats, store, journal, mon)

	// Freshly started: no sweep yet, but startup itself is recent.
	if rec := get(t, mux, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh monitor /healthz status = %d, want 200", rec.Code)
	}

	// Jump the clock past the staleness horizon (3 × 30s interval).
	mon.clock = func() time.Time { return time.Now().Add(10 * 30 * time.Second) }
	rec := get(t, mux, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale monitor /healthz status = %d, want 503", rec.Code)
	}
	var st healthState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "stale" || st.LastSweepAgeSec <= st.StaleAfterSec {
		t.Errorf("stale /healthz = %+v, want status stale with age > threshold", st)
	}

	// A completed sweep at the advanced clock restores readiness.
	mon.finishSweep()
	if rec := get(t, mux, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("post-sweep /healthz status = %d, want 200", rec.Code)
	}
}

// TestStreamServesFrames checks /stream speaks SSE: an immediate frame with
// the current schema, journal counters, SLO snapshot and the monitor's link
// reading.
func TestStreamServesFrames(t *testing.T) {
	store := metricstore.New(0)
	journal := obs.NewJournal(0)
	peer := "127.0.0.1:9101"
	mon, fake := testMonitor(t, []string{peer}, journal, store)
	fake.capMbps[peer], fake.availMbps[peer] = 24, 4.5
	mon.startup()
	mon.sweep()
	stats := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	srv := httptest.NewServer(newHTTPMux(stats, store, journal, mon))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/stream?interval=100ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("/stream Content-Type = %q, want text/event-stream", ct)
	}
	var got dash.Frame
	if err := dash.ReadFrames(resp.Body, func(f dash.Frame) bool {
		got = f
		return false // first frame is enough
	}); err != nil {
		t.Fatal(err)
	}
	if got.Schema != dash.SchemaVersion || got.Sweeps != 2 {
		t.Errorf("frame schema/sweeps = %d/%d, want %d/2", got.Schema, got.Sweeps, dash.SchemaVersion)
	}
	if len(got.SLOs) != 2 {
		t.Errorf("frame has %d SLOs, want the 2 registered specs", len(got.SLOs))
	}
	link := mesh.MakeLinkID(testSelf, peer).String()
	if len(got.Links) != 1 || got.Links[0].Link != link || got.Links[0].HeadroomMbps != 4.5 || got.Links[0].CapacityMbps != 24 {
		t.Errorf("frame links = %+v, want %s at 4.5 of 24 Mbps", got.Links, link)
	}
	if got.JournalEvents == 0 || len(got.Alerts) != 0 {
		t.Errorf("frame journal/alerts = %d/%d, want probe events and no alerts", got.JournalEvents, len(got.Alerts))
	}

	if rec := get(t, newHTTPMux(stats, store, journal, mon), "/stream?interval=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("/stream?interval=bogus status = %d, want 400", rec.Code)
	}
}

func TestPprofIndex(t *testing.T) {
	mux, _, _ := testMux(t)
	rec := get(t, mux, "/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ index missing profile listing:\n%s", rec.Body.String())
	}
}

// Prometheus text exposition format 0.0.4, the subset the store emits:
// comment lines (# ...) and sample lines `name{labels} value [timestamp]`.
var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (gauge|counter|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\S+)( [0-9-]+)?$`)
)

// validatePromText checks every line of a text-exposition body and returns
// the metric names that carried samples.
func validatePromText(t *testing.T, body string) map[string]int {
	t.Helper()
	samples := make(map[string]int)
	typed := make(map[string]bool)
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed comment %q", i+1, line)
				continue
			}
			typed[m[1]] = true
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", i+1, line)
			continue
		}
		name := m[1]
		if !typed[name] {
			t.Errorf("line %d: sample %q precedes its # TYPE line", i+1, name)
		}
		value := m[len(m)-2]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: value %q not a float: %v", i+1, value, err)
		}
		samples[name]++
	}
	return samples
}

func TestMetricsEndpointIsValidPrometheusText(t *testing.T) {
	mux, store, _ := testMux(t)
	at := time.UnixMilli(1700000000000)
	store.Append("link_capacity_mbps", map[string]string{"link": "127.0.0.1:9100-127.0.0.1:9101"}, at, 24.5)
	store.Append("link_headroom_mbps", map[string]string{"link": "127.0.0.1:9100-127.0.0.1:9101"}, at.Add(time.Second), 4.25)
	store.Append("link_headroom_mbps", map[string]string{"link": `weird"link\n`}, at.Add(time.Second), 1)

	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want text/plain version=0.0.4", ct)
	}
	samples := validatePromText(t, rec.Body.String())
	if samples["link_capacity_mbps"] != 1 || samples["link_headroom_mbps"] != 2 {
		t.Errorf("sample counts = %v, want link_capacity_mbps:1 link_headroom_mbps:2\n%s",
			samples, rec.Body.String())
	}
}

func TestMetricsEndpointEmptyStore(t *testing.T) {
	mux, _, _ := testMux(t)
	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", rec.Code)
	}
	validatePromText(t, rec.Body.String())
}

// seedJournal fills the journal with a short probe→violation chain.
func seedJournal(journal *obs.Journal) []obs.Event {
	events := []obs.Event{
		{At: 1 * time.Second, Type: obs.EventProbeHeadroom, Span: 1, Link: "127.0.0.1:9101", Value: 4, Want: 5},
		{At: 1 * time.Second, Type: obs.EventHeadroomViolation, Span: 2, Cause: 1, Link: "127.0.0.1:9101", Value: 4, Want: 5},
		{At: 31 * time.Second, Type: obs.EventProbeHeadroom, Span: 3, Link: "127.0.0.1:9101", Value: 6, Want: 5},
	}
	for _, ev := range events {
		journal.Append(ev)
	}
	return events
}

func TestJournalEndpointTailsJSONL(t *testing.T) {
	mux, _, journal := testMux(t)
	events := seedJournal(journal)

	rec := get(t, mux, "/journal")
	if rec.Code != http.StatusOK {
		t.Fatalf("/journal status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/journal Content-Type = %q, want application/x-ndjson", ct)
	}
	got, err := obs.ReadJSONL(rec.Body)
	if err != nil {
		t.Fatalf("/journal body is not valid JSONL: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("/journal returned %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}

	// ?n= tails the newest events.
	rec = get(t, mux, "/journal?n=2")
	got, err = obs.ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Span != 2 || got[1].Span != 3 {
		t.Errorf("/journal?n=2 = %+v, want the last two events", got)
	}

	// n larger than the journal returns everything; invalid n is a 400.
	rec = get(t, mux, "/journal?n=100")
	if got, _ = obs.ReadJSONL(rec.Body); len(got) != len(events) {
		t.Errorf("/journal?n=100 returned %d events, want %d", len(got), len(events))
	}
	if rec := get(t, mux, "/journal?n=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("/journal?n=-1 status = %d, want 400", rec.Code)
	}
	if rec := get(t, mux, "/journal?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("/journal?n=bogus status = %d, want 400", rec.Code)
	}
}

func TestJournalEndpointEmpty(t *testing.T) {
	mux, _, _ := testMux(t)
	rec := get(t, mux, "/journal")
	if rec.Code != http.StatusOK {
		t.Fatalf("/journal status = %d, want 200", rec.Code)
	}
	if got, err := obs.ReadJSONL(rec.Body); err != nil || len(got) != 0 {
		t.Errorf("empty journal: %d events, err %v", len(got), err)
	}
}

// eventLine renders the fields of a probe event that a sweep determines.
func eventLine(ev obs.Event) string {
	return fmt.Sprintf("%s %s %g/%g", ev.Type, ev.Link, ev.Value, ev.Want)
}

// TestSweepJournalsNetmonVerdicts drives startup and four sweeps over three
// scripted peers, one dead from the start, and pins the journal they leave,
// event for event: the verdicts, causes and schema are netmon's, each
// headroom probe paces at paceFactor × the link's target, and a dead peer
// counts one failure per sweep.
func TestSweepJournalsNetmonVerdicts(t *testing.T) {
	journal := obs.NewJournal(0)
	p1, p2, p3 := "127.0.0.1:9101", "127.0.0.1:9102", "127.0.0.1:9103"
	// Peers out of order: probes still go in sorted link order.
	mon, fake := testMonitor(t, []string{p2, p3, p1}, journal, metricstore.New(0))
	l1, l2, l3 := mesh.MakeLinkID(testSelf, p1), mesh.MakeLinkID(testSelf, p2), mesh.MakeLinkID(testSelf, p3)
	for _, p := range []string{p1, p2} {
		fake.capMbps[p], fake.availMbps[p] = 40, 40
	}
	fake.err[p3] = errors.New("no route to host")
	// Each sweep's journal, as eventLines.
	var sweeps [][]string
	seen := 0
	step := func(f func()) {
		f()
		evs := journal.Events()
		var lines []string
		for _, ev := range evs[seen:] {
			lines = append(lines, eventLine(ev))
		}
		sweeps = append(sweeps, lines)
		seen = len(evs)
	}

	step(mon.startup)
	step(mon.sweep) // first observations: Changed
	step(mon.sweep) // quiet
	fake.capMbps[p1], fake.availMbps[p1] = 4, 4
	step(mon.sweep) // p1 drops below its 8 Mbps target
	fake.err[p1] = errors.New("connection refused")
	step(mon.sweep)

	dead := "probe_error " + l3.String() + " 0/0"
	want := [][]string{
		{"probe_full " + l1.String() + " 40/0", "probe_full " + l2.String() + " 40/0", dead},
		{dead, "probe_headroom " + l1.String() + " 8.8/8", "probe_headroom " + l2.String() + " 8.8/8",
			"probe_full " + l1.String() + " 40/0", "probe_full " + l2.String() + " 40/0"},
		{dead, "probe_headroom " + l1.String() + " 8.8/8", "probe_headroom " + l2.String() + " 8.8/8"},
		{dead, "probe_headroom " + l1.String() + " 4/8", "headroom_violation " + l1.String() + " 4/8",
			"probe_headroom " + l2.String() + " 8.8/8", "probe_full " + l1.String() + " 4/0"},
		{dead, "probe_error " + l1.String() + " 0/0", "probe_headroom " + l2.String() + " 8.8/8"},
	}
	if !reflect.DeepEqual(sweeps, want) {
		t.Errorf("journal by sweep:\n got %q\nwant %q", sweeps, want)
	}

	events := journal.Events()
	for i, ev := range events {
		if ev.Type == obs.EventHeadroomViolation && (i == 0 || ev.Cause != events[i-1].Span || ev.Cause == 0) {
			t.Errorf("violation %+v does not cite the probe before it", ev)
		}
	}
	if _, err := obs.CheckCauses(events); err != nil {
		t.Error(err)
	}
	for id, fails := range map[mesh.LinkID]int{l1: 1, l2: 0, l3: 5} {
		if v, err := mon.net.View(id); err != nil || v.ConsecutiveFailures != fails {
			t.Errorf("%s view = %+v (%v), want ConsecutiveFailures %d", id, v, err, fails)
		}
	}
	wantPaced := []float64{8.8, 8.8, 8.8, 8.8, 8.8, 8.8, 8.8}
	if !reflect.DeepEqual(fake.paced, wantPaced) {
		t.Errorf("pacing rates = %v, want %v", fake.paced, wantPaced)
	}
}

// TestSweepRechecksStaleCapacity pins recovery after a lasting dip. Once a
// capacity probe caches the dipped rate, headroom probes pace under it and
// read the same on a recovered link, so only the capacity recheck after
// recheckSweeps intervals restores the estimate and the 8 Mbps target. A
// peer lost after startup counts one failure per sweep, the recheck sweep
// included.
func TestSweepRechecksStaleCapacity(t *testing.T) {
	journal := obs.NewJournal(0)
	p1, p2 := "127.0.0.1:9101", "127.0.0.1:9102"
	mon, fake := testMonitor(t, []string{p1, p2}, journal, metricstore.New(0))
	var shift time.Duration
	mon.clock = func() time.Time { return time.Now().Add(shift) }
	l1, l2 := mesh.MakeLinkID(testSelf, p1), mesh.MakeLinkID(testSelf, p2)
	setRate := func(mbps float64) { fake.capMbps[p1], fake.availMbps[p1] = mbps, mbps }
	setRate(40)
	fake.capMbps[p2], fake.availMbps[p2] = 40, 40
	view := func(id mesh.LinkID) netmon.LinkView {
		v, err := mon.net.View(id)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	mon.startup()
	fake.err[p2] = errors.New("connection refused")
	mon.sweep()
	setRate(4)
	mon.sweep() // violation; the capacity probe reads 4
	mon.sweep() // paced at 0.88, reads 0.88: Changed, the capacity probe reads 4 again
	setRate(40)
	mon.sweep() // recovered, but still paced at 0.88: quiet
	if got := view(l1).CapacityMbps; got != 4 {
		t.Fatalf("capacity before the recheck = %g, want the dipped 4", got)
	}
	shift = recheckSweeps * mon.interval
	mon.sweep()
	if v := view(l1); v.CapacityMbps != 40 || v.HeadroomMbps != 8 {
		t.Fatalf("after the recheck: capacity %g, target %g; want 40 and 8", v.CapacityMbps, v.HeadroomMbps)
	}
	setRate(4)
	seen := len(journal.Events())
	mon.sweep()
	var violations []string
	for _, ev := range journal.Events()[seen:] {
		if ev.Type == obs.EventHeadroomViolation {
			violations = append(violations, eventLine(ev))
		}
	}
	if want := []string{"headroom_violation " + l1.String() + " 4/8"}; !reflect.DeepEqual(violations, want) {
		t.Errorf("second drop: violations %q, want %q", violations, want)
	}
	if got := view(l2).ConsecutiveFailures; got != 6 {
		t.Errorf("%s failed %d times in 6 sweeps, want 6", l2, got)
	}
}

// TestSweepOverShapedPeers runs the monitor over two real shaped probe
// servers and shrinks one, restores it, and shrinks it again: each drop
// gives that peer's link a headroom violation and a capacity probe that sees
// it, the restore a capacity probe that sees the full rate (so the second
// violation is judged against the restored target), and the other peer's
// link never a violation.
func TestSweepOverShapedPeers(t *testing.T) {
	var srvs []*netem.ProbeServer
	for range 2 {
		shaper, err := netem.NewTokenBucket(40, 128*1024)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := netem.NewProbeServer("127.0.0.1:0", shaper)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve()
		}()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		srvs = append(srvs, srv)
	}
	journal := obs.NewJournal(0)
	plane := obs.NewPlane(journal, metricstore.New(0), func() time.Duration { return 0 })
	mon, err := newMonitor(testSelf, []string{srvs[0].Addr(), srvs[1].Addr()}, journal, plane,
		30*time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mon.startup()
	mon.sweep()

	shaped := mesh.MakeLinkID(testSelf, srvs[0].Addr()).String()
	// sweepAt reshapes the first server and sweeps once, returning the
	// sweep's violations and the reshaped link's capacity probes.
	sweepAt := func(mbps float64) (violations []obs.Event, capacities []float64) {
		if err := srvs[0].SetRate(mbps); err != nil {
			t.Fatal(err)
		}
		seen := len(journal.Events())
		mon.sweep()
		for _, ev := range journal.Events()[seen:] {
			switch {
			case ev.Type == obs.EventHeadroomViolation:
				violations = append(violations, ev)
			case ev.Type == obs.EventProbeFull && ev.Link == shaped:
				capacities = append(capacities, ev.Value)
			}
		}
		return violations, capacities
	}
	violations, capacities := sweepAt(4)
	if len(violations) != 1 || violations[0].Link != shaped || len(capacities) != 1 || capacities[0] >= 10 {
		t.Errorf("drop: violations %+v, capacity probes %v; want one on %s and one probe under 10 Mbps",
			violations, capacities, shaped)
	}
	// The headroom probe, paced under the dipped estimate, reads a material
	// change; a violation here is the other link's or a pacing miss.
	violations, capacities = sweepAt(40)
	for _, ev := range violations {
		if ev.Link != shaped {
			t.Errorf("restore: violation %+v on the unshaped link", ev)
		}
	}
	if len(capacities) != 1 || capacities[0] < 30 {
		t.Errorf("restore: capacity probes %v, want one of about 40 Mbps", capacities)
	}
	violations, _ = sweepAt(4)
	if len(violations) != 1 || violations[0].Link != shaped || violations[0].Want < 6 || violations[0].Want > 10 {
		t.Errorf("second drop: violations %+v, want one on %s against a target of about 8 Mbps", violations, shaped)
	}
	for _, ev := range journal.Events() {
		if ev.Type == obs.EventProbeError {
			t.Errorf("probe error: %+v", ev)
		}
	}
	if _, err := obs.CheckCauses(journal.Events()); err != nil {
		t.Error(err)
	}
}

// TestNewMonitorRejectsBadPeers checks the -peers entries the star topology
// cannot hold.
func TestNewMonitorRejectsBadPeers(t *testing.T) {
	plane := obs.NewPlane(obs.NewJournal(0), metricstore.New(0), func() time.Duration { return 0 })
	for name, peers := range map[string][]string{
		"empty":     {"127.0.0.1:9101", ""},
		"duplicate": {"127.0.0.1:9101", "127.0.0.1:9101"},
		"self":      {testSelf},
	} {
		if _, err := newMonitor(testSelf, peers, obs.NewJournal(0), plane, time.Second, time.Second); err == nil {
			t.Errorf("%s: peers %q accepted", name, peers)
		}
	}
}

// TestPublishFrameReadsTail pins the dashboard's read of a full default
// journal: the frame's alert and activity rows are the newest of each kind,
// as the slice readers pick them from every event, and building the frame
// allocates for the rows it shows, not for the ring (Events alone copies
// every retained event, 16,384 × 240 B).
func TestPublishFrameReadsTail(t *testing.T) {
	journal := obs.NewJournal(0)
	mon, _ := testMonitor(t, []string{"127.0.0.1:9101"}, journal, metricstore.New(0))
	for i := 0; journal.Dropped() == 0; i++ {
		ev := obs.Event{At: time.Duration(i) * time.Millisecond, Type: obs.EventProbeHeadroom, Link: "a-b", Value: float64(i)}
		switch {
		case i%701 == 0:
			ev.Type, ev.SLO = obs.EventAlertFired, "mesh/headroom"
		case i%499 == 0:
			ev.Type, ev.App = obs.EventMigration, fmt.Sprintf("app%d", i)
		}
		journal.Append(ev)
	}
	mon.publishFrame()
	f := mon.currentFrame()
	events := journal.Events()
	if want := dash.RecentAlerts(events, frameRows); len(f.Alerts) != frameRows || !reflect.DeepEqual(f.Alerts, want) {
		t.Errorf("frame alerts = %d rows %+v, want %+v", len(f.Alerts), f.Alerts, want)
	}
	if want := dash.RecentActivity(events, frameRows); len(f.Activity) != frameRows || !reflect.DeepEqual(f.Activity, want) {
		t.Errorf("frame activity = %d rows %+v, want %+v", len(f.Activity), f.Activity, want)
	}
	if f.JournalEvents != len(events) || f.JournalDropped != journal.Dropped() {
		t.Errorf("frame counts %d events, %d dropped; want %d and %d", f.JournalEvents, f.JournalDropped, len(events), journal.Dropped())
	}

	allocs := testing.AllocsPerRun(20, mon.publishFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		mon.publishFrame()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("publishFrame on a full journal: %.0f allocs, %d B per frame", allocs, bytes)
	// Two 16-row panes are 2 × 16 × 240 B = 7.5 KiB; the SLO snapshot and
	// link rows add a few hundred bytes.
	if allocs > 32 || bytes > 16<<10 {
		t.Errorf("publishFrame allocates %.0f times, %d B per frame on a full journal; want ≤ 32 and ≤ 16 KiB", allocs, bytes)
	}
}
