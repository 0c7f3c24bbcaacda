package reconcile

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"bass/internal/obs"
)

// fakeHost is a deterministic in-memory Host with a virtual timer queue,
// mimicking the engine contract: same-time callbacks run in schedule order.
type fakeHost struct {
	now time.Duration
	rng *rand.Rand

	timers []fakeTimer
	seq    int

	placed    map[string]string // "app/comp" -> node
	unhealthy map[string]bool
	downCause map[string]uint64

	placeNode  string // node Place lands on when it succeeds
	failPlaces int    // fail this many Place calls first
	placeCalls []Action
	evictCalls []string
	shedCalls  []string
}

type fakeTimer struct {
	at  time.Duration
	seq int
	fn  func()
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		rng:       rand.New(rand.NewSource(1)),
		placed:    make(map[string]string),
		unhealthy: make(map[string]bool),
		downCause: make(map[string]uint64),
		placeNode: "n1",
	}
}

func (h *fakeHost) key(app, comp string) string { return app + "/" + comp }

func (h *fakeHost) Now() time.Duration { return h.now }
func (h *fakeHost) Rand() *rand.Rand   { return h.rng }

func (h *fakeHost) After(d time.Duration, fn func()) {
	h.timers = append(h.timers, fakeTimer{at: h.now + d, seq: h.seq, fn: fn})
	h.seq++
}

// run advances virtual time to deadline, firing timers in (time, schedule)
// order, including timers armed by earlier timers.
func (h *fakeHost) run(deadline time.Duration) {
	for {
		best := -1
		for i, tm := range h.timers {
			if tm.at > deadline {
				continue
			}
			if best < 0 || tm.at < h.timers[best].at ||
				(tm.at == h.timers[best].at && tm.seq < h.timers[best].seq) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		tm := h.timers[best]
		h.timers = append(h.timers[:best], h.timers[best+1:]...)
		if tm.at > h.now {
			h.now = tm.at
		}
		tm.fn()
	}
	if deadline > h.now {
		h.now = deadline
	}
}

func (h *fakeHost) ObservedNode(app, comp string) string { return h.placed[h.key(app, comp)] }

func (h *fakeHost) ObservedComponents(app string) []string {
	var out []string
	for k := range h.placed {
		if strings.HasPrefix(k, app+"/") {
			out = append(out, strings.TrimPrefix(k, app+"/"))
		}
	}
	sort.Strings(out)
	return out
}

func (h *fakeHost) NodeHealthy(node string) bool  { return node != "" && !h.unhealthy[node] }
func (h *fakeHost) NodeDownCause(n string) uint64 { return h.downCause[n] }

func (h *fakeHost) Place(a Action) (string, error) {
	h.placeCalls = append(h.placeCalls, a)
	if h.failPlaces > 0 {
		h.failPlaces--
		return "", errors.New("no feasible node")
	}
	h.placed[h.key(a.App, a.Component)] = h.placeNode
	return h.placeNode, nil
}

func (h *fakeHost) Evict(app, comp string, cause uint64) error {
	h.evictCalls = append(h.evictCalls, h.key(app, comp))
	delete(h.placed, h.key(app, comp))
	return nil
}

func (h *fakeHost) Shed(app string, cause uint64) {
	h.shedCalls = append(h.shedCalls, app)
	for k := range h.placed {
		if strings.HasPrefix(k, app+"/") {
			delete(h.placed, k)
		}
	}
}

func spec1(app string, prio int, comps ...string) Spec {
	return Spec{App: app, Priority: prio, Components: comps}
}

func newTestReconciler(h *fakeHost) (*Reconciler, *obs.Plane) {
	return newReconcilerOn(h, func() time.Duration { return h.now })
}

// newReconcilerOn builds the tests' reconciler over any host, on the
// production bounds, journaling into a fresh plane on the host's clock.
func newReconcilerOn(h Host, now func() time.Duration) (*Reconciler, *obs.Plane) {
	plane := obs.NewPlane(obs.NewJournal(0), nil, now)
	plane.SetTraceSeed(1)
	r := New(Config{Epoch: 30 * time.Second}, h)
	r.SetObserver(plane)
	return r, plane
}

func eventsOf(p *obs.Plane, t obs.EventType) []obs.Event {
	var out []obs.Event
	for _, ev := range p.Journal().Events() {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

func TestDriftToPlacedToConverged(t *testing.T) {
	h := newFakeHost()
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera", "filter"))
	h.placed["cam/camera"] = "n1"
	h.placed["cam/filter"] = "n2"
	if r.Tick(); !r.Converged() {
		t.Fatal("fully placed spec must start converged")
	}

	// Node n2 dies: filter drifts via NoteDrift with a cause span.
	h.unhealthy["n2"] = true
	delete(h.placed, "cam/filter")
	r.NoteDrift("cam", "filter", DriftDeadNode, "n2", 77)
	h.run(h.now) // fire the kick

	if !r.Converged() {
		t.Fatalf("expected convergence after kick, drift=%d", r.OutstandingDrift())
	}
	if got := h.placed["cam/filter"]; got != "n1" {
		t.Fatalf("filter placed on %q, want n1", got)
	}
	drifts := eventsOf(plane, obs.EventReconcileDrift)
	if len(drifts) != 1 || drifts[0].Cause != 77 || drifts[0].Reason != "dead-node" {
		t.Fatalf("bad drift events: %+v", drifts)
	}
	acts := eventsOf(plane, obs.EventReconcileAction)
	if len(acts) != 1 || acts[0].Cause != drifts[0].Span || acts[0].To != "n1" {
		t.Fatalf("action must cite the drift span: %+v", acts)
	}
	conv := eventsOf(plane, obs.EventReconcileConverged)
	if len(conv) != 1 || conv[0].Cause != acts[0].Span {
		t.Fatalf("converged must cite the last action: %+v", conv)
	}
}

func TestScanSelfDetectsDeadNodeDrift(t *testing.T) {
	h := newFakeHost()
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	h.placed["cam/camera"] = "n9"
	h.unhealthy["n9"] = true
	h.downCause["n9"] = 55

	r.Tick()
	h.run(h.now)
	if !r.Converged() || h.placed["cam/camera"] != "n1" {
		t.Fatalf("scan must converge the dead-node drift, placed=%v", h.placed)
	}
	drifts := eventsOf(plane, obs.EventReconcileDrift)
	if len(drifts) != 1 || drifts[0].Cause != 55 {
		t.Fatalf("self-detected drift must cite the node-down span: %+v", drifts)
	}
}

func TestNoteDriftDeduplicates(t *testing.T) {
	h := newFakeHost()
	h.failPlaces = 1000
	r, _ := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	r.NoteDrift("cam", "camera", driftMissing, "", 1)
	r.NoteDrift("cam", "camera", driftMissing, "", 2)
	r.NoteDrift("nosuch", "x", driftMissing, "", 3)
	if r.DriftsSeen() != 1 {
		t.Fatalf("drifts seen = %d, want 1 (dedup + unknown app ignored)", r.DriftsSeen())
	}
}

func TestLadderEscalatesThroughRungs(t *testing.T) {
	h := newFakeHost()
	h.failPlaces = 1 << 30
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	r.NoteDrift("cam", "camera", driftMissing, "", 1)
	h.run(h.now + 10*time.Minute)

	deg := eventsOf(plane, obs.EventReconcileDegraded)
	var rungs []string
	for _, ev := range deg {
		rungs = append(rungs, ev.Reason)
	}
	want := []string{"reroute", "shed", "park"}
	if len(rungs) != 3 || rungs[0] != want[0] || rungs[1] != want[1] || rungs[2] != want[2] {
		t.Fatalf("escalation rungs = %v, want %v", rungs, want)
	}
	if r.DegradedMode() != RungPark {
		t.Fatalf("degraded mode = %v, want park", r.DegradedMode())
	}
	// Parked drift keeps retrying at the max backoff — no wedge, no spin.
	before := len(h.placeCalls)
	h.run(h.now + 2*time.Minute)
	after := len(h.placeCalls)
	if after == before {
		t.Fatal("parked drift stopped retrying")
	}
	if after-before > 30 {
		t.Fatalf("parked drift retried %d times in 2min: spinning", after-before)
	}
	// Capacity returns: the parked drift must converge without a restart.
	h.failPlaces = 0
	h.run(h.now + 2*time.Minute)
	if !r.Converged() {
		t.Fatal("parked drift failed to converge when capacity returned")
	}
}

func TestShedPicksStrictlyLowerPriorityVictim(t *testing.T) {
	h := newFakeHost()
	h.failPlaces = 2 * retryBudget // exhaust migrate + reroute budgets, land on shed
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("hi", 2, "a"))
	r.SetSpec(spec1("mid", 1, "b"))
	r.SetSpec(spec1("lo", 0, "c"))
	h.placed["mid/b"] = "n1"
	h.placed["lo/c"] = "n1"

	r.NoteDrift("hi", "a", driftMissing, "", 1)
	h.run(h.now + 5*time.Minute)

	if len(h.shedCalls) != 1 || h.shedCalls[0] != "lo" {
		t.Fatalf("shed calls = %v, want [lo]", h.shedCalls)
	}
	sheds := eventsOf(plane, obs.EventReconcileShed)
	if len(sheds) != 1 || sheds[0].App != "lo" {
		t.Fatalf("shed events = %+v", sheds)
	}
	if h.placed["hi/a"] == "" {
		t.Fatal("hi/a still unplaced after shedding lo")
	}
	// Restore: the first epoch tick after the cooldown re-admits the shed
	// app and re-places it.
	h.run(h.now + restoreCooldown)
	r.Tick()
	h.run(h.now)
	if len(eventsOf(plane, obs.EventReconcileRestore)) != 1 {
		t.Fatal("expected exactly one restore event")
	}
	if h.placed["lo/c"] == "" {
		t.Fatal("restored app was not re-placed")
	}
	if !r.Converged() {
		t.Fatalf("expected full convergence after restore, drift=%d", r.OutstandingDrift())
	}
	if r.Sheds() != 1 || r.Restores() != 1 {
		t.Fatalf("sheds=%d restores=%d, want 1/1", r.Sheds(), r.Restores())
	}
}

func TestEqualPrioritiesNeverShedEachOther(t *testing.T) {
	h := newFakeHost()
	h.failPlaces = 1 << 30
	r, _ := newTestReconciler(h)
	r.SetSpec(spec1("a", 1, "x"))
	r.SetSpec(spec1("b", 1, "y"))
	h.placed["b/y"] = "n1"
	r.NoteDrift("a", "x", driftMissing, "", 1)
	h.run(h.now + 10*time.Minute)
	if len(h.shedCalls) != 0 {
		t.Fatalf("equal-priority app was shed: %v", h.shedCalls)
	}
}

func TestExternalResolutionClosesDrift(t *testing.T) {
	h := newFakeHost()
	h.failPlaces = 1 << 30
	r, _ := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	r.NoteDrift("cam", "camera", driftMissing, "", 1)
	h.run(h.now) // kick fails to place
	if r.Converged() {
		t.Fatal("should still be drifted")
	}
	// Another path (say, an operator or a migration) places it meanwhile.
	h.placed["cam/camera"] = "n3"
	r.Tick()
	if !r.Converged() {
		t.Fatal("externally resolved drift must close on the next scan")
	}
}

func TestUnexpectedComponentEvicted(t *testing.T) {
	h := newFakeHost()
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	h.placed["cam/camera"] = "n1"
	h.placed["cam/ghost"] = "n2"
	r.Tick()
	if len(h.evictCalls) != 1 || h.evictCalls[0] != "cam/ghost" {
		t.Fatalf("evictions = %v, want [cam/ghost]", h.evictCalls)
	}
	drifts := eventsOf(plane, obs.EventReconcileDrift)
	if len(drifts) != 1 || drifts[0].Reason != "unexpected" {
		t.Fatalf("unexpected drift not journaled: %+v", drifts)
	}
	if !r.Converged() {
		t.Fatal("eviction must leave the system converged")
	}
}

func TestTickIsIdempotent(t *testing.T) {
	h := newFakeHost()
	r, plane := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "camera"))
	h.placed["cam/camera"] = "n1"
	for i := 0; i < 5; i++ {
		r.Tick()
	}
	if len(h.placeCalls) != 0 || len(h.evictCalls) != 0 || len(h.shedCalls) != 0 {
		t.Fatalf("idempotent ticks acted: place=%d evict=%d shed=%d",
			len(h.placeCalls), len(h.evictCalls), len(h.shedCalls))
	}
	for _, ev := range plane.Journal().Events() {
		if ev.Type != obs.EventReconcileConverged {
			t.Fatalf("quiet tick journaled %s", ev.Type)
		}
	}
	if r.ActionsTotal() != 0 {
		t.Fatalf("actions total = %d on a converged system", r.ActionsTotal())
	}
}

func TestActionBudgetBoundsThrash(t *testing.T) {
	h := newFakeHost()
	r, _ := newTestReconciler(h)
	r.SetSpec(spec1("cam", 1, "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"))
	r.Tick() // scan opens 10 drifts, act is budget-capped
	if len(h.placeCalls) != maxActionsPerEpoch {
		t.Fatalf("actions this epoch = %d, want budget %d", len(h.placeCalls), maxActionsPerEpoch)
	}
	if want := 10 - maxActionsPerEpoch; r.OutstandingDrift() != want {
		t.Fatalf("outstanding drift = %d, want %d", r.OutstandingDrift(), want)
	}
}
