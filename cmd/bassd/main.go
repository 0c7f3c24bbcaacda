// Command bassd is the live BASS network-monitor daemon: the simulation's
// net-monitor (package netmon, §4.2) over real sockets. It runs an
// iperf3-like probe server (optionally traffic-shaped to emulate a
// constrained wireless link) and monitors a star of links, one from its own
// probe address to each peer: one max-capacity probe per link at startup,
// then headroom probes every interval, and a fresh max-capacity probe of
// every link whose headroom changed or was violated, or whose capacity
// estimate is ten intervals old. The verdicts, failure streaks, journal
// events and metric series are netmon's; only the prober, which measures
// through netem, is the daemon's own. Measurements land in an embedded
// Prometheus-like store, served over HTTP.
//
// Endpoints:
//
//	GET /stats          — raw probe history (JSON)
//	GET /api/v1/query   — metric queries (metric=link_capacity_mbps|link_headroom_mbps, label.link=<addr>-<addr>, endpoints sorted)
//	GET /api/v1/metrics — metric names
//	GET /metrics        — Prometheus text exposition (latest sample per series)
//	GET /journal        — decision journal as JSONL (?n=K tails the last K events)
//	GET /trace          — journal as Chrome trace-event JSON (Perfetto-loadable)
//	GET /stream         — live dashboard frames as Server-Sent Events (?interval=1s; see internal/dash, cmd/bass-top)
//	GET /healthz        — readiness probe (JSON; 503 once the monitor goes stale)
//	GET /debug/pprof/   — runtime profiling (CPU, heap, goroutines, ...)
//
// The daemon runs the SLO evaluator live: the simulation's mesh-headroom
// spec over every monitored link plus a monitor-cadence spec, evaluated after
// each probe sweep with the same burn-rate ladder the simulation uses, so
// /journal carries alert_fired/alert_resolved events and /stream carries
// budgets.
//
// Example (two shaped daemons on loopback):
//
//	bassd -probe-listen 127.0.0.1:9101 -http 127.0.0.1:9201 -shape-mbps 25 &
//	bassd -probe-listen 127.0.0.1:9102 -http 127.0.0.1:9202 -shape-mbps 25 \
//	      -peers 127.0.0.1:9101 -interval 5s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bass/internal/dash"
	"bass/internal/mesh"
	"bass/internal/metricstore"
	"bass/internal/netem"
	"bass/internal/netmon"
	"bass/internal/obs"
	"bass/internal/slo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bassd", flag.ContinueOnError)
	probeListen := fs.String("probe-listen", "127.0.0.1:9101", "probe server listen address")
	httpListen := fs.String("http", "127.0.0.1:9201", "HTTP stats/metrics listen address")
	shapeMbps := fs.Float64("shape-mbps", 0, "shape inbound probe traffic to this rate (0 = unshaped)")
	peers := fs.String("peers", "", "comma-separated peer probe addresses to monitor")
	interval := fs.Duration("interval", 30*time.Second, "headroom probing interval")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var shaper *netem.TokenBucket
	if *shapeMbps > 0 {
		var err error
		shaper, err = netem.NewTokenBucket(*shapeMbps, 128*1024)
		if err != nil {
			return err
		}
	}
	probeSrv, err := netem.NewProbeServer(*probeListen, shaper)
	if err != nil {
		return err
	}
	log.Printf("bassd: probe server on %s (shaped: %v)", probeSrv.Addr(), *shapeMbps > 0)

	store := metricstore.New(0)
	journal := obs.NewJournal(0)
	start := time.Now()
	plane := obs.NewPlane(journal, store, func() time.Duration { return time.Since(start) })

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	// Probes last netmon's probeDuration, 1 s.
	mon, err := newMonitor(probeSrv.Addr(), peerList, journal, plane, *interval, time.Second)
	if err != nil {
		return err
	}
	mux := newHTTPMux(netem.NewStatsHandler(probeSrv), store, journal, mon)
	httpSrv := &http.Server{Addr: *httpListen, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	go func() {
		if serr := probeSrv.Serve(); serr != nil && !errors.Is(serr, netem.ErrServerClosed) {
			errc <- serr
			return
		}
		errc <- nil
	}()
	go func() {
		log.Printf("bassd: http on %s", *httpListen)
		if herr := httpSrv.ListenAndServe(); herr != nil && !errors.Is(herr, http.ErrServerClosed) {
			errc <- herr
			return
		}
		errc <- nil
	}()

	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		mon.run(ctx)
	}()

	select {
	case <-ctx.Done():
		log.Print("bassd: shutting down")
	case err = <-errc:
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	_ = probeSrv.Close()
	<-monitorDone
	return err
}

// newHTTPMux assembles the daemon's HTTP surface: probe stats, the query
// API, Prometheus text exposition, the decision journal (JSONL tail and
// Chrome-trace views), the SSE dashboard stream, a readiness endpoint, and
// pprof. The default mux is avoided deliberately — pprof's init() registers
// there, and an explicit mux keeps the surface auditable and testable.
func newHTTPMux(stats http.Handler, store *metricstore.Store, journal *obs.Journal, mon *monitor) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/stats", stats)
	mux.Handle("/api/v1/", store.Handler())
	mux.Handle("/metrics", store.PrometheusHandler())
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		events := journal.Events()
		if q := r.URL.Query().Get("n"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obs.WriteJSONL(w, events)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, journal.Events())
	})
	mux.HandleFunc("/stream", mon.serveStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := mon.healthStatus()
		w.Header().Set("Content-Type", "application/json")
		if st.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// paceFactor scales a link's headroom target into the rate its headroom
// probe paces at. A probe paced exactly at the target reads slightly under it
// through a token-bucket shaper, so the verdict would flap; at 1.1× an
// unconstrained link reads at or above the target, and a link shrunk below
// the target reads well under it. netmon still accounts the probe's overhead
// at the paper's 10 % of capacity.
const paceFactor = 1.1

// recheckSweeps is how many intervals a capacity estimate may age before a
// sweep floods the link again: a paced probe cannot read above its pace, so
// once a dip shrinks the estimate only a fresh flood sees the link recover.
// At the default 30 s interval that is one 1 s flood per link per 5 minutes.
const recheckSweeps = 10

// peerProber measures the daemon's star of links over real sockets for
// netmon.Monitor. Every link joins the daemon's own probe address to one
// peer's probe server.
type peerProber struct {
	self     string
	topo     *mesh.Topology
	mon      *netmon.Monitor // read for each link's headroom target
	duration time.Duration
	skip     map[mesh.LinkID]bool // links whose capacity probe failed this sweep
	// probe is netem.Probe; tests script it.
	probe func(addr, kind string, duration time.Duration, rateMbps float64) (netem.ProbeResult, error)
}

// peer returns the probe address at the far end of a link.
func (p *peerProber) peer(id mesh.LinkID) string {
	if id.A == p.self {
		return id.B
	}
	return id.A
}

// ProbeCapacity floods the link's peer.
func (p *peerProber) ProbeCapacity(id mesh.LinkID) (float64, error) {
	res, err := p.probe(p.peer(id), "flood", p.duration, 0)
	return res.Mbps, err
}

// ProbeSpareAll paces a probe to each peer in sorted link order at
// paceFactor × the link's headroom target and reports the achieved rate. A
// link with no capacity estimate has no target, and rate 0 would flood it,
// so it is skipped, as is a link in skip: its failed capacity probe is its
// one counted failure this sweep.
func (p *peerProber) ProbeSpareAll(visit func(id mesh.LinkID, spareMbps float64, err error)) {
	for _, l := range p.topo.Links() {
		v, _ := p.mon.View(l.ID) // every topology link has a view
		if v.CapacityMbps <= 0 || p.skip[l.ID] {
			continue
		}
		res, err := p.probe(p.peer(l.ID), "rate", p.duration, paceFactor*v.HeadroomMbps)
		visit(l.ID, res.Mbps, err)
	}
}

// monitor owns the probing loop and everything derived from it: the netmon
// monitor and its prober, the SLO evaluator (both must only ever run on the
// monitor goroutine — the same serial-evaluation contract the simulated
// control plane keeps), the health signals behind /healthz, and the latest
// dashboard frame behind /stream. HTTP handlers read only the mutex-guarded
// caches, never the monitor or the evaluator.
type monitor struct {
	net      *netmon.Monitor
	prober   *peerProber
	peers    int
	journal  *obs.Journal
	eval     *slo.Evaluator
	gapH     obs.MetricHandle
	interval time.Duration
	clock    func() time.Time

	mu        sync.Mutex
	start     time.Time
	sweeps    uint64
	lastSweep time.Time
	frame     dash.Frame
}

// newMonitor builds the star topology from self (the daemon's probe address)
// to each peer, the netmon monitor over it, and the evaluator and health
// state. A peer that is empty, repeated or self is an error. The SLO specs
// are the simulation's: mesh-wide probed headroom and the monitor's own
// cadence (good ≤ 2 intervals between sweeps).
func newMonitor(self string, peers []string, journal *obs.Journal, plane *obs.Plane,
	interval, probeFor time.Duration) (*monitor, error) {
	topo := mesh.NewTopology()
	topo.AddNode(self)
	for _, peer := range peers {
		if peer == "" {
			return nil, errors.New("bassd: empty peer address")
		}
		topo.AddNode(peer)
		// netmon never reads capacity traces, so links carry none.
		if err := topo.AddLink(self, peer, nil, 0); err != nil {
			return nil, err
		}
	}
	m := &monitor{
		prober:   &peerProber{self: self, topo: topo, duration: probeFor, probe: netem.Probe},
		peers:    len(peers),
		journal:  journal,
		interval: interval,
		clock:    time.Now,
	}
	m.start = m.clock()
	m.net = netmon.New(topo, m.prober, func() time.Duration { return m.clock().Sub(m.start) })
	m.net.SetObserver(plane)
	m.prober.mon = m.net
	m.eval = slo.New(plane, slo.Config{Interval: interval})
	m.gapH = plane.MetricHandle(obs.MetricControlEpochGap, nil)
	specs := []slo.Spec{
		{Name: "mesh/headroom", Kind: slo.LinkHeadroom},
		{Name: "monitor/loop", Kind: slo.ControlLatency},
	}
	for _, s := range specs {
		if err := m.eval.Register(s); err != nil {
			return nil, err
		}
	}
	m.publishFrame()
	return m, nil
}

// run is the paper's probing schedule: startup, then one sweep every
// interval. Every probe observation and verdict is journaled by netmon with
// the schema the simulated stack emits, so /journal and /trace show live
// decisions in the same format.
func (m *monitor) run(ctx context.Context) {
	if m.peers == 0 {
		<-ctx.Done()
		return
	}
	m.startup()
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		m.sweep()
	}
}

// startup measures every link's capacity. Unlike netmon's FullProbeAll it
// does not stop at the first dead peer.
func (m *monitor) startup() {
	for _, v := range m.net.Views() {
		m.fullProbe(v.ID)
	}
	m.finishSweep()
}

// sweep is one monitoring interval: a capacity probe of each link that has
// no estimate yet or one older than recheckSweeps intervals, a headroom
// sweep, and a fresh capacity probe of each link the sweep reports (its
// headroom changed or was violated, the rule the simulated controller
// follows). A link whose capacity probe fails gets no headroom probe, so a
// dead peer counts one failure per sweep.
func (m *monitor) sweep() {
	since := m.clock().Sub(m.start)
	m.prober.skip = map[mesh.LinkID]bool{}
	for _, v := range m.net.Views() {
		if v.CapacityMbps <= 0 || since-v.LastFullProbe >= recheckSweeps*m.interval {
			m.prober.skip[v.ID] = m.fullProbe(v.ID) != nil
		}
	}
	events, fails := m.net.HeadroomProbeAll()
	for _, pe := range fails {
		log.Printf("bassd: %v", pe)
	}
	for _, ev := range events {
		m.fullProbe(ev.Link)
	}
	m.finishSweep()
}

// fullProbe refreshes one link's capacity; a failure is already journaled.
func (m *monitor) fullProbe(id mesh.LinkID) error {
	err := m.net.FullProbe(id)
	if err != nil {
		log.Printf("bassd: %v", err)
	}
	return err
}

// finishSweep is the monitor's epoch tail, mirroring the simulated control
// plane: record the sweep-to-sweep gap, tick the SLO evaluator, refresh the
// health clock and the dashboard frame.
func (m *monitor) finishSweep() {
	now := m.clock()
	m.mu.Lock()
	if m.sweeps > 0 {
		m.gapH.Emit(now.Sub(m.lastSweep).Seconds())
	}
	m.sweeps++
	m.lastSweep = now
	m.mu.Unlock()
	m.eval.Tick()
	m.publishFrame()
}

// publishFrame rebuilds the cached /stream frame. Called from the monitor
// goroutine only (the evaluator snapshot is not concurrency-safe).
func (m *monitor) publishFrame() {
	events := m.journal.Events()
	now := m.clock()
	f := dash.Frame{
		AtMs:           now.UnixMilli(),
		Firing:         m.eval.Firing(),
		SLOs:           m.eval.Snapshot(),
		Alerts:         dash.RecentAlerts(events, 16),
		Activity:       dash.RecentActivity(events, 16),
		JournalEvents:  len(events),
		JournalDropped: m.journal.Dropped(),
	}
	// A link shows once it has a capacity estimate; its headroom is the
	// last probed spare, its age counted from its latest probe.
	since := now.Sub(m.start)
	for _, v := range m.net.Views() {
		if v.CapacityMbps > 0 {
			f.Links = append(f.Links, dash.LinkStat{
				Link:         v.ID.String(),
				HeadroomMbps: v.SpareMbps,
				CapacityMbps: v.CapacityMbps,
				AgeSec:       (since - max(v.LastFullProbe, v.LastHeadroomProbe)).Seconds(),
			})
		}
	}
	m.mu.Lock()
	f.Sweeps = m.sweeps
	m.frame = f
	m.mu.Unlock()
}

// currentFrame returns the latest dashboard frame.
func (m *monitor) currentFrame() dash.Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frame
}

// serveStream is the /stream handler: the current frame immediately, then a
// frame per refresh interval (?interval=, default 1s, floor 100ms) until the
// client goes away.
func (m *monitor) serveStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	refresh := time.Second
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			http.Error(w, "interval must be a positive duration", http.StatusBadRequest)
			return
		}
		if d < 100*time.Millisecond {
			d = 100 * time.Millisecond
		}
		refresh = d
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if err := dash.WriteFrame(w, m.currentFrame()); err != nil {
		return
	}
	fl.Flush()
	ticker := time.NewTicker(refresh)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if err := dash.WriteFrame(w, m.currentFrame()); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// healthState is the /healthz document.
type healthState struct {
	// Status is "ok", or "stale" once the monitor has missed three sweep
	// intervals (the readiness signal — /healthz then returns 503).
	Status          string  `json:"status"`
	Peers           int     `json:"peers"`
	Sweeps          uint64  `json:"sweeps"`
	LastSweepAgeSec float64 `json:"lastSweepAgeSec,omitempty"`
	StaleAfterSec   float64 `json:"staleAfterSec,omitempty"`
	AlertsFiring    int     `json:"alertsFiring"`
	JournalEvents   int     `json:"journalEvents"`
	// JournalDropped is the journal's ring-overflow counter — how far the
	// retained window lags behind everything ever emitted.
	JournalDropped uint64 `json:"journalDropped,omitempty"`
}

// healthStatus derives the readiness verdict. A daemon with no peers has no
// sweeps to expect and is always ready; otherwise the last completed sweep
// (or startup, before the first) must be younger than three intervals.
func (m *monitor) healthStatus() healthState {
	m.mu.Lock()
	sweeps, last, start, firing := m.sweeps, m.lastSweep, m.start, m.frame.Firing
	m.mu.Unlock()
	st := healthState{
		Status:         "ok",
		Peers:          m.peers,
		Sweeps:         sweeps,
		AlertsFiring:   firing,
		JournalEvents:  m.journal.Len(),
		JournalDropped: m.journal.Dropped(),
	}
	if m.peers == 0 {
		return st
	}
	ref := start
	if sweeps > 0 {
		ref = last
	}
	age := m.clock().Sub(ref)
	stale := 3 * m.interval
	st.LastSweepAgeSec = age.Seconds()
	st.StaleAfterSec = stale.Seconds()
	if age > stale {
		st.Status = "stale"
	}
	return st
}
