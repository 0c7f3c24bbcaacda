package scheduler

import (
	"errors"
	"reflect"
	"testing"

	"bass/internal/dag"
)

func pairGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.NewGraph("pair")
	g.MustAddComponent(dag.Component{Name: "producer", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "consumer", CPU: 1})
	g.MustAddEdge("producer", "consumer", 8)
	return g
}

func TestFindMigrationCandidatesGoodputFloor(t *testing.T) {
	// Fig 8's scenario: an 8 Mbps pair achieves only 3 Mbps because the
	// link degraded, and the link has no headroom left.
	g := pairGraph(t)
	cfg := MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0.5, HeadroomMbps: 4}
	usages := []DependencyUsage{{
		Component:         "producer",
		Dep:               "consumer",
		RequiredMbps:      8,
		AchievedMbps:      3,
		PathCapacityMbps:  7,
		PathAvailableMbps: 1,
	}}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	if len(report.Candidates) != 1 {
		t.Fatalf("candidates = %v, want exactly one of the pair", report.Candidates)
	}
	if len(report.Violating) != 2 {
		t.Errorf("violating = %v, want both endpoints", report.Violating)
	}
}

func TestFindMigrationCandidatesUtilizationTrigger(t *testing.T) {
	// Algorithm 3's scenario: the pair uses most of its quota and the link
	// cannot also hold the headroom.
	g := pairGraph(t)
	cfg := MigrationConfig{UtilizationThreshold: 0.65, GoodputFloor: 0, HeadroomMbps: 4}
	usages := []DependencyUsage{{
		Component:         "producer",
		Dep:               "consumer",
		RequiredMbps:      8,
		AchievedMbps:      7,
		PathCapacityMbps:  10, // 7 + 4 > 10: headroom squeezed
		PathAvailableMbps: 3,
	}}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	if len(report.Candidates) != 1 {
		t.Fatalf("candidates = %v, want one", report.Candidates)
	}
}

func TestFindMigrationCandidatesHealthyPair(t *testing.T) {
	g := pairGraph(t)
	cfg := DefaultMigrationConfig()
	usages := []DependencyUsage{{
		Component:         "producer",
		Dep:               "consumer",
		RequiredMbps:      8,
		AchievedMbps:      7.5,
		PathCapacityMbps:  25,
		PathAvailableMbps: 15,
	}}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	if len(report.Candidates) != 0 {
		t.Errorf("healthy pair produced candidates %v", report.Candidates)
	}
}

// TestDeadPathReportsViolated pins the degraded-to-zero regression: a path
// whose bottleneck capacity collapsed to (or below) zero used to score
// UtilizationFrac 0 — perfectly healthy — so scenario-1 migration never
// fired even though the pair could move nothing at all.
func TestDeadPathReportsViolated(t *testing.T) {
	tests := []struct {
		name string
		cfg  MigrationConfig
		d    DependencyUsage
		want bool
	}{
		{
			name: "zero capacity, scenario-1-only config",
			cfg:  MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0, HeadroomMbps: 4},
			d: DependencyUsage{RequiredMbps: 8, AchievedMbps: 0,
				PathCapacityMbps: 0, PathAvailableMbps: 0},
			want: true,
		},
		{
			name: "capacity degraded below zero by probe noise",
			cfg:  MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0, HeadroomMbps: 4},
			d: DependencyUsage{RequiredMbps: 8, AchievedMbps: 0,
				PathCapacityMbps: -0.5, PathAvailableMbps: 0},
			want: true,
		},
		{
			name: "zero capacity, goodput-floor-only config",
			cfg:  MigrationConfig{UtilizationThreshold: 0, GoodputFloor: 0.5, HeadroomMbps: 4},
			d: DependencyUsage{RequiredMbps: 8, AchievedMbps: 0,
				PathCapacityMbps: 0, PathAvailableMbps: 0},
			want: true,
		},
		{
			name: "zero capacity but pair needs no bandwidth",
			cfg:  DefaultMigrationConfig(),
			d: DependencyUsage{RequiredMbps: 0, AchievedMbps: 0,
				PathCapacityMbps: 0, PathAvailableMbps: 0},
			want: false,
		},
		{
			name: "zero capacity with migration disabled",
			cfg:  MigrationConfig{UtilizationThreshold: 0, GoodputFloor: 0, HeadroomMbps: 4},
			d: DependencyUsage{RequiredMbps: 8, AchievedMbps: 0,
				PathCapacityMbps: 0, PathAvailableMbps: 0},
			want: false,
		},
		{
			name: "healthy path stays healthy",
			cfg:  DefaultMigrationConfig(),
			d: DependencyUsage{RequiredMbps: 8, AchievedMbps: 7.5,
				PathCapacityMbps: 25, PathAvailableMbps: 15},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.cfg.violated(tt.d); got != tt.want {
				t.Errorf("violated(%+v) = %v, want %v", tt.d, got, tt.want)
			}
		})
	}
}

// TestDeadPathFracsSaturate pins the helper semantics the fix introduced: a
// path with no capacity is fully utilized (1), not idle (0).
func TestDeadPathFracsSaturate(t *testing.T) {
	d := DependencyUsage{RequiredMbps: 8, PathCapacityMbps: 0, PathAvailableMbps: 0}
	if got := d.UtilizationFrac(); got != 1 {
		t.Errorf("UtilizationFrac on dead path = %v, want 1", got)
	}
	if got := d.PathUtilizationFrac(); got != 1 {
		t.Errorf("PathUtilizationFrac on dead path = %v, want 1", got)
	}
	healthy := DependencyUsage{RequiredMbps: 8, AchievedMbps: 4, PathCapacityMbps: 16, PathAvailableMbps: 8}
	if got := healthy.UtilizationFrac(); got != 0.25 {
		t.Errorf("UtilizationFrac = %v, want 0.25", got)
	}
	if got := healthy.PathUtilizationFrac(); got != 0.5 {
		t.Errorf("PathUtilizationFrac = %v, want 0.5", got)
	}
}

// TestFindMigrationCandidatesDeadPath runs the degraded-to-zero case through
// the full Algorithm 3 pass: the pair must surface as violating and produce
// a migration candidate under a scenario-1-only config.
func TestFindMigrationCandidatesDeadPath(t *testing.T) {
	g := pairGraph(t)
	cfg := MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0, HeadroomMbps: 4}
	usages := []DependencyUsage{{
		Component:         "producer",
		Dep:               "consumer",
		RequiredMbps:      8,
		AchievedMbps:      0,
		PathCapacityMbps:  0,
		PathAvailableMbps: 0,
	}}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	if len(report.Candidates) != 1 {
		t.Fatalf("candidates = %v, want one (dead path must trigger migration)", report.Candidates)
	}
	if len(report.Violating) != 2 {
		t.Errorf("violating = %v, want both endpoints", report.Violating)
	}
}

// TestFindMigrationCandidatesDeduplicatesPairs reproduces the paper's
// Table 1 observation: two communicating components both violate, but only
// one of the pair is migrated, avoiding cascading effects.
func TestFindMigrationCandidatesDeduplicatesPairs(t *testing.T) {
	g := dag.NewGraph("chain")
	for _, name := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
	}
	g.MustAddEdge("a", "b", 10)
	g.MustAddEdge("b", "c", 6)
	cfg := MigrationConfig{UtilizationThreshold: 0.5, GoodputFloor: 0.5, HeadroomMbps: 4}
	bad := func(from, to string, req float64) DependencyUsage {
		return DependencyUsage{
			Component: from, Dep: to,
			RequiredMbps: req, AchievedMbps: req * 0.3,
			PathCapacityMbps: 5, PathAvailableMbps: 0.5,
		}
	}
	usages := []DependencyUsage{bad("a", "b", 10), bad("b", "c", 6)}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	// b has the largest total bandwidth (10+6); selecting it must remove its
	// neighbors a and c from the final list.
	if !reflect.DeepEqual(report.Candidates, []string{"b"}) {
		t.Errorf("candidates = %v, want [b]", report.Candidates)
	}
	if len(report.Violating) != 3 {
		t.Errorf("violating = %v, want all three", report.Violating)
	}
}

func TestFindMigrationCandidatesSkipsPinned(t *testing.T) {
	g := dag.NewGraph("conf")
	g.MustAddComponent(dag.Component{Name: "sfu", CPU: 2})
	g.MustAddComponent(dag.Component{Name: "viewer", Labels: dag.Pin("node2")})
	g.MustAddEdge("sfu", "viewer", 10)
	cfg := DefaultMigrationConfig()
	usages := []DependencyUsage{{
		Component: "sfu", Dep: "viewer",
		RequiredMbps: 10, AchievedMbps: 2,
		PathCapacityMbps: 4, PathAvailableMbps: 0.2,
	}}
	report := FindMigrationCandidates(g, usages, cfg, nil)
	if !reflect.DeepEqual(report.Candidates, []string{"sfu"}) {
		t.Errorf("candidates = %v, want only the movable sfu", report.Candidates)
	}
}

func migrationNodes() []NodeInfo {
	return []NodeInfo{
		{Name: "node1", FreeCPU: 8, FreeMemoryMB: 8192},
		{Name: "node2", FreeCPU: 8, FreeMemoryMB: 8192},
		{Name: "node3", FreeCPU: 8, FreeMemoryMB: 8192},
	}
}

func TestChooseMigrationTargetPrefersDependencyNode(t *testing.T) {
	g := dag.NewGraph("app")
	for _, name := range []string{"a", "b", "c"} {
		g.MustAddComponent(dag.Component{Name: name, CPU: 1})
	}
	g.MustAddEdge("a", "b", 5)
	g.MustAddEdge("a", "c", 5)
	assignment := Assignment{"a": "node1", "b": "node2", "c": "node2"}
	avail := func(_, _ string) float64 { return 100 }
	target, err := ChooseMigrationTarget(g, "a", assignment, migrationNodes(), avail, DefaultMigrationConfig())
	if err != nil {
		t.Fatalf("ChooseMigrationTarget: %v", err)
	}
	if target != "node2" {
		t.Errorf("target = %q, want node2 (hosts both dependencies)", target)
	}
}

func TestChooseMigrationTargetRequiresBandwidth(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "a", CPU: 1})
	g.MustAddComponent(dag.Component{Name: "b", CPU: 1})
	g.MustAddEdge("a", "b", 10)
	assignment := Assignment{"a": "node1", "b": "node2"}
	// Only node3 is a candidate (node2 hosts b — moving there co-locates,
	// always fine; make node2 full so bandwidth matters).
	nodes := []NodeInfo{
		{Name: "node1", FreeCPU: 8, FreeMemoryMB: 8192},
		{Name: "node2", FreeCPU: 0, FreeMemoryMB: 8192},
		{Name: "node3", FreeCPU: 8, FreeMemoryMB: 8192},
	}
	cfg := DefaultMigrationConfig() // headroom 4: needs 10+4 on the path
	t.Run("insufficient", func(t *testing.T) {
		avail := func(_, _ string) float64 { return 12 }
		if _, err := ChooseMigrationTarget(g, "a", assignment, nodes, avail, cfg); !errors.Is(err, errNoBetterNode) {
			t.Errorf("want ErrNoBetterNode, got %v", err)
		}
	})
	t.Run("sufficient", func(t *testing.T) {
		avail := func(_, _ string) float64 { return 20 }
		target, err := ChooseMigrationTarget(g, "a", assignment, nodes, avail, cfg)
		if err != nil {
			t.Fatalf("ChooseMigrationTarget: %v", err)
		}
		if target != "node3" {
			t.Errorf("target = %q, want node3", target)
		}
	})
}

func TestChooseMigrationTargetRejectsPinned(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "a", CPU: 1, Labels: dag.Pin("node1")})
	assignment := Assignment{"a": "node1"}
	avail := func(_, _ string) float64 { return 100 }
	if _, err := ChooseMigrationTarget(g, "a", assignment, migrationNodes(), avail, DefaultMigrationConfig()); !errors.Is(err, errNoBetterNode) {
		t.Errorf("want ErrNoBetterNode for pinned component, got %v", err)
	}
}

func TestChooseMigrationTargetUnknownComponent(t *testing.T) {
	g := dag.NewGraph("app")
	g.MustAddComponent(dag.Component{Name: "a", CPU: 1})
	if _, err := ChooseMigrationTarget(g, "ghost", Assignment{}, migrationNodes(), nil, DefaultMigrationConfig()); err == nil {
		t.Error("want error for unknown component")
	}
}

func BenchmarkFindMigrationCandidates(b *testing.B) {
	g := dag.NewGraph("big")
	const n = 27
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('A' + i))
		g.MustAddComponent(dag.Component{Name: names[i], CPU: 1})
	}
	var usages []DependencyUsage
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(names[i], names[i+1], float64(i+1))
		usages = append(usages, DependencyUsage{
			Component: names[i], Dep: names[i+1],
			RequiredMbps: float64(i + 1), AchievedMbps: 0.3 * float64(i+1),
			PathCapacityMbps: 5, PathAvailableMbps: 0.5,
		})
	}
	cfg := DefaultMigrationConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindMigrationCandidates(g, usages, cfg, nil)
	}
}
