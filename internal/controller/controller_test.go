package controller

import (
	"testing"
	"time"

	"bass/internal/dag"
	"bass/internal/mesh"
	"bass/internal/netmon"
	"bass/internal/scheduler"
	"bass/internal/sim"
	"bass/internal/simnet"
)

type fixture struct {
	eng  *sim.Engine
	net  *simnet.Network
	mon  *netmon.Monitor
	ctrl *Controller
	g    *dag.Graph
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	topo := mesh.Line([]string{"a", "b"}, 25, time.Millisecond, time.Hour)
	eng := sim.NewEngine(1)
	net := simnet.New(eng, topo)
	net.Start()
	mon := netmon.New(topo, net.Prober(), eng.Now)
	if err := mon.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "x", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "y", CPU: 1})
	g.MustAddEdge("x", "y", 8)
	return &fixture{
		eng:  eng,
		net:  net,
		mon:  mon,
		ctrl: New(mon, cfg, eng.Now),
		g:    g,
	}
}

// cycleResult is one monitoring cycle's outcome for the fixture's single
// application.
type cycleResult struct {
	CycleObservation
	AppDecision
	Report scheduler.MigrationReport // Algorithm 3's output, pre-cooldown
}

// runCycle drives one single-application monitoring cycle the way the
// orchestrator does: Observe, then Algorithm 3 over usages read after the
// probe sweep, ResolveApp, and FinishCycle.
func (f *fixture) runCycle(usages func() []scheduler.DependencyUsage, fullProbe func(mesh.LinkID) error) cycleResult {
	o := f.ctrl.Observe(fullProbe)
	report := scheduler.FindMigrationCandidates(f.g, usages(), f.ctrl.Config().Migration, o.Exclude["app"])
	dec := f.ctrl.ResolveApp(&o, "app", report)
	f.ctrl.FinishCycle()
	return cycleResult{CycleObservation: o, AppDecision: dec, Report: report}
}

func badUsage() []scheduler.DependencyUsage {
	return []scheduler.DependencyUsage{{
		Component: "x", Dep: "y",
		RequiredMbps: 8, AchievedMbps: 2,
		PathCapacityMbps: 5, PathAvailableMbps: 0.5,
	}}
}

func goodUsage() []scheduler.DependencyUsage {
	return []scheduler.DependencyUsage{{
		Component: "x", Dep: "y",
		RequiredMbps: 8, AchievedMbps: 7,
		PathCapacityMbps: 25, PathAvailableMbps: 14,
	}}
}

func TestCooldownDelaysMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 60 * time.Second
	f := newFixture(t, cfg)

	// First evaluation: violation detected, cooldown starts — no migration.
	d := f.runCycle(badUsage, nil)
	if len(d.Migrate) != 0 {
		t.Errorf("migrated during cooldown: %v", d.Migrate)
	}
	if len(d.Report.Candidates) == 0 {
		t.Fatal("no candidates despite violation")
	}

	// 30 s later, still within cooldown.
	if err := f.eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	d = f.runCycle(badUsage, nil)
	if len(d.Migrate) != 0 {
		t.Errorf("migrated at 30s with 60s cooldown: %v", d.Migrate)
	}

	// 70 s after detection: migration approved.
	if err := f.eng.Run(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	d = f.runCycle(badUsage, nil)
	if len(d.Migrate) != 1 {
		t.Errorf("Migrate = %v, want the surviving candidate", d.Migrate)
	}
}

func TestTransientViolationResetsCooldown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 60 * time.Second
	f := newFixture(t, cfg)

	f.runCycle(badUsage, nil)
	if err := f.eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Violation clears: the clock must reset.
	f.runCycle(goodUsage, nil)
	if err := f.eng.Run(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Violation returns: not yet past a fresh cooldown.
	d := f.runCycle(badUsage, nil)
	if len(d.Migrate) != 0 {
		t.Errorf("transient violation migrated: %v", d.Migrate)
	}
}

func TestReMigrationGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 0
	cfg.ReMigrationInterval = 5 * time.Minute
	f := newFixture(t, cfg)

	d := f.runCycle(badUsage, nil)
	if len(d.Migrate) != 1 {
		t.Fatalf("want immediate migration with zero cooldown, got %v", d.Migrate)
	}
	comp := d.Migrate[0]
	f.ctrl.RecordMigration("app", comp)
	if f.ctrl.Migrations() != 1 {
		t.Errorf("Migrations = %d", f.ctrl.Migrations())
	}

	if err := f.eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	d = f.runCycle(badUsage, nil)
	for _, m := range d.Migrate {
		if m == comp {
			t.Error("component re-migrated within the guard interval")
		}
	}
}

func TestMigrationFailureDefersRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cooldown = 30 * time.Second
	f := newFixture(t, cfg)

	f.runCycle(badUsage, nil)
	if err := f.eng.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	d := f.runCycle(badUsage, nil)
	if len(d.Migrate) != 1 {
		t.Fatalf("Migrate = %v", d.Migrate)
	}
	f.ctrl.RecordMigrationFailure("app", d.Migrate[0])

	// Immediately after a failure the cooldown restarts.
	d = f.runCycle(badUsage, nil)
	if len(d.Migrate) != 0 {
		t.Errorf("failed migration retried without fresh cooldown: %v", d.Migrate)
	}
}

func TestEvaluateRequestsFullProbesOnHeadroomChange(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg)
	// First evaluation observes initial spare capacity (a change from
	// nothing): expect full-probe requests.
	d := f.runCycle(goodUsage, nil)
	if len(d.FullProbeLinks) == 0 {
		t.Error("no full probes requested on first headroom observation")
	}
	// Steady state: quiet.
	d = f.runCycle(goodUsage, nil)
	if len(d.FullProbeLinks) != 0 {
		t.Errorf("steady state requested probes: %v", d.FullProbeLinks)
	}
}

// failureFixture builds an a-b-c line where node c can crash while a-b stays
// probeable, plus an empty usage function.
func failureFixture(t testing.TB) (*fixture, *mesh.Topology) {
	t.Helper()
	topo := mesh.Line([]string{"a", "b", "c"}, 25, time.Millisecond, time.Hour)
	eng := sim.NewEngine(1)
	net := simnet.New(eng, topo)
	net.Start()
	mon := netmon.New(topo, net.Prober(), eng.Now)
	if err := mon.FullProbeAll(); err != nil {
		t.Fatal(err)
	}
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "x", CPU: 1})
	return &fixture{eng: eng, net: net, mon: mon, ctrl: New(mon, DefaultConfig(), eng.Now), g: g}, topo
}

func noUsage() []scheduler.DependencyUsage { return nil }

func TestNodeDownVerdictAfterKFailures(t *testing.T) {
	f, topo := failureFixture(t)
	if err := topo.SetNodeUp("c", false); err != nil {
		t.Fatal(err)
	}
	f.net.ApplyTopologyState()

	for cycle := 1; cycle <= 2; cycle++ {
		d := f.runCycle(noUsage, nil)
		if len(d.NodesDown) != 0 {
			t.Fatalf("cycle %d: premature verdict %v", cycle, d.NodesDown)
		}
		if len(d.ProbeErrors) != 1 || d.ProbeErrors[0].Link != mesh.MakeLinkID("b", "c") {
			t.Fatalf("cycle %d: probe errors = %v", cycle, d.ProbeErrors)
		}
	}
	d := f.runCycle(noUsage, nil)
	if len(d.NodesDown) != 1 || d.NodesDown[0].Node != "c" {
		t.Fatalf("third cycle verdict = %v, want [c]", d.NodesDown)
	}
	if !f.ctrl.NodeDown("c") {
		t.Error("NodeDown(c) = false after verdict")
	}
	// Standing state is not re-reported.
	d = f.runCycle(noUsage, nil)
	if len(d.NodesDown) != 0 {
		t.Errorf("verdict repeated: %v", d.NodesDown)
	}

	// Recovery transitions back exactly once.
	if err := topo.SetNodeUp("c", true); err != nil {
		t.Fatal(err)
	}
	f.net.ApplyTopologyState()
	d = f.runCycle(noUsage, nil)
	if len(d.NodesRecovered) != 1 || d.NodesRecovered[0].Node != "c" {
		t.Errorf("recovery = %v, want [c]", d.NodesRecovered)
	}
	if f.ctrl.NodeDown("c") {
		t.Error("NodeDown(c) still true after recovery")
	}
}

func TestProbeLossAloneNeverKillsAConnectedNode(t *testing.T) {
	f, _ := failureFixture(t)
	// b-c probes are lossy, but b's other link (a-b) keeps answering: b must
	// never be declared down, and c (whose only link is lossy) must be —
	// indistinguishable from a crash, which is the detector's stated limit.
	f.net.SetProbeLoss(mesh.MakeLinkID("b", "c"), true)
	var cDown bool
	for i := 0; i < 5; i++ {
		d := f.runCycle(noUsage, nil)
		for _, v := range d.NodesDown {
			if v.Node == "b" {
				t.Fatalf("cycle %d: declared b down with a healthy link", i)
			}
			if v.Node == "c" {
				cDown = true
			}
		}
	}
	if !cDown {
		t.Error("c (all links lossy) never declared down")
	}
}

func TestEvaluateSurfacesFullProbeErrors(t *testing.T) {
	f, topo := failureFixture(t)
	// Prime spare-capacity history so the next sweep reports changes.
	f.runCycle(noUsage, nil)
	// Load a link so its headroom changes, then kill it between the headroom
	// sweep's observation and nothing else: the full probe must fail and the
	// failure must surface on the decision instead of being swallowed.
	if _, err := f.net.AddStream("load", "a", "b", 20); err != nil {
		t.Fatal(err)
	}
	ab := mesh.MakeLinkID("a", "b")
	fullProbe := func(id mesh.LinkID) error {
		if id == ab {
			if err := topo.SetLinkUp("a", "b", false); err != nil {
				t.Fatal(err)
			}
		}
		return f.mon.FullProbe(id)
	}
	d := f.runCycle(noUsage, fullProbe)
	var surfaced bool
	for _, pe := range d.ProbeErrors {
		if pe.Link == ab && pe.Op == "full" {
			surfaced = true
		}
	}
	if !surfaced {
		t.Errorf("full-probe failure not surfaced; probe errors = %v", d.ProbeErrors)
	}
}

func TestDefaultConfigFilled(t *testing.T) {
	c := New(nil, Config{}, func() time.Duration { return 0 })
	if c.Config().Migration.UtilizationThreshold == 0 {
		t.Error("zero-value config not defaulted")
	}
}
