package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestFig2ReproducesPaperStatistics(t *testing.T) {
	r, err := RunFig2(42, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Stable.MeanMbps-19.9) > 2 {
		t.Errorf("stable mean = %.2f, want ≈19.9", r.Stable.MeanMbps)
	}
	if math.Abs(r.Volatile.MeanMbps-7.62) > 1.2 {
		t.Errorf("volatile mean = %.2f, want ≈7.62", r.Volatile.MeanMbps)
	}
	if r.Volatile.StdPctMean <= r.Stable.StdPctMean {
		t.Errorf("volatile link (%.1f%%) not more variable than stable (%.1f%%)",
			r.Volatile.StdPctMean, r.Stable.StdPctMean)
	}
	// The 10 s rolling mean must smooth, not amplify, variation.
	if r.StableSmoothed.StdMbps > r.Stable.StdMbps {
		t.Error("rolling mean increased stable link variance")
	}
	if got := r.Table().String(); !strings.Contains(got, "Fig 2") {
		t.Errorf("table rendering broken: %q", got)
	}
}

func TestFig6MatchesPaperExactly(t *testing.T) {
	r, err := RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.BFSOrder, ","); got != "1,3,2,4,5,7,6" {
		t.Errorf("BFS order = %s, paper says 1,3,2,4,5,7,6", got)
	}
	if got := strings.Join(r.LongestPathOrder, ","); got != "1,2,4,5,7,3,6" {
		t.Errorf("longest-path order = %s, paper says 1,2,4,5,7,3,6", got)
	}
}

func TestFig4LossRisesPastBottleneck(t *testing.T) {
	r, err := RunFig4(1, []int{4, 14}, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, large := r.Rows[0], r.Rows[1]
	if small.PacketLossFrac > 0.01 {
		t.Errorf("4 participants: loss %.2f, want ≈0", small.PacketLossFrac)
	}
	if large.PacketLossFrac < 0.1 {
		t.Errorf("14 participants: loss %.2f, want significant", large.PacketLossFrac)
	}
	if large.PerClientMbps >= small.PerClientMbps {
		t.Errorf("bitrate did not degrade: %.2f vs %.2f", large.PerClientMbps, small.PerClientMbps)
	}
	pinDigest(t, "fig4 table", r.Table().String(), "62580e3cb726eb5daec0d5e6a9032b99c01c88c2e8842f65c866e4057acb5468")
}

func TestFig8TwoMigrations(t *testing.T) {
	r, err := RunFig8(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Migrations) != 2 {
		t.Fatalf("migrations = %d, want 2 (there and back)", len(r.Migrations))
	}
	first, second := r.Migrations[0], r.Migrations[1]
	if first.From != "node4" || first.To != "node1" {
		t.Errorf("first migration %s->%s, want node4->node1", first.From, first.To)
	}
	if second.From != "node1" || second.To != "node4" {
		t.Errorf("second migration %s->%s, want node1->node4", second.From, second.To)
	}
	if r.GoodputBeforeDrop < 0.99 {
		t.Errorf("goodput before drop = %.2f", r.GoodputBeforeDrop)
	}
	if r.GoodputAfterFirstMigration < 0.99 {
		t.Errorf("goodput after migration = %.2f", r.GoodputAfterFirstMigration)
	}
	if r.GoodputEnd < 0.99 {
		t.Errorf("goodput at end = %.2f", r.GoodputEnd)
	}
}

func TestFig10BassBeatsK3s(t *testing.T) {
	r, err := RunFig10(1, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig10Row{}
	for _, row := range r.Rows {
		byName[row.Scheduler] = row
	}
	bfs, k3s := byName["bass-bfs"], byName["k3s-default"]
	if bfs.MeanSec >= k3s.MeanSec {
		t.Errorf("BFS mean %.3fs not below k3s %.3fs (paper: 410 vs 433 ms)", bfs.MeanSec, k3s.MeanSec)
	}
	// BFS co-locates the heaviest edge (camera→sampler).
	var camNode, sampNode string
	for node, comps := range bfs.Placement {
		for _, c := range comps {
			switch c {
			case "camera-stream":
				camNode = node
			case "frame-sampler":
				sampNode = node
			}
		}
	}
	if camNode == "" || camNode != sampNode {
		t.Errorf("BFS split camera (%s) from sampler (%s)", camNode, sampNode)
	}
	pinDigest(t, "fig10 table", r.Table().String(), "14e6dbe785e9a8af37f5914f104b175b944024f18ffc70d9a79c5ff38386cf94")
}

func TestFig12ShorterIntervalRecoversFaster(t *testing.T) {
	r, err := RunFig12(1, []int{30, 90, 0})
	if err != nil {
		t.Fatal(err)
	}
	byInterval := map[int]Fig12Row{}
	for _, row := range r.Rows {
		byInterval[row.IntervalSec] = row
	}
	if byInterval[0].Migrations != 0 {
		t.Errorf("no-migration run migrated %d times", byInterval[0].Migrations)
	}
	if byInterval[30].Migrations == 0 {
		t.Error("30s interval never migrated")
	}
	if byInterval[30].MeanMbpsDuringRestriction <= byInterval[0].MeanMbpsDuringRestriction {
		t.Errorf("migration did not improve restricted bitrate: %.2f vs %.2f",
			byInterval[30].MeanMbpsDuringRestriction, byInterval[0].MeanMbpsDuringRestriction)
	}
	if byInterval[30].MeanMbpsDuringRestriction < byInterval[90].MeanMbpsDuringRestriction {
		t.Errorf("30s interval (%.2f) worse than 90s (%.2f)",
			byInterval[30].MeanMbpsDuringRestriction, byInterval[90].MeanMbpsDuringRestriction)
	}
	pinDigest(t, "fig12 table", r.Table().String(), "cd01dd70428bc3fcf70580ef2503c11c5db07f3c53091912df36b551b100a4c9")
}

func TestTable2BassFlatK3sInflates(t *testing.T) {
	r, err := RunTable2(42, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		sched   string
		varying bool
	}
	cells := map[key]Table2Cell{}
	for _, c := range r.Cells {
		cells[key{c.Scheduler, c.Varying}] = c
	}
	bfsStatic := cells[key{"bass-bfs", false}]
	bfsVar := cells[key{"bass-bfs", true}]
	k3sStatic := cells[key{"k3s-default", false}]
	k3sVar := cells[key{"k3s-default", true}]

	// BASS medians stay within a few percent under variation (paper: 540→538).
	if rel := math.Abs(bfsVar.MedianSec-bfsStatic.MedianSec) / bfsStatic.MedianSec; rel > 0.1 {
		t.Errorf("BFS median moved %.0f%% under variation", rel*100)
	}
	// k3s inflates under variation (paper: 577→692, ≈20%).
	if k3sVar.MedianSec <= k3sStatic.MedianSec*1.02 {
		t.Errorf("k3s median did not inflate: %.0f ms → %.0f ms",
			k3sStatic.MedianSec*1e3, k3sVar.MedianSec*1e3)
	}
	// BASS beats k3s in both scenarios.
	if bfsStatic.MedianSec >= k3sStatic.MedianSec {
		t.Error("BFS not below k3s without variation")
	}
}

func TestFig15bAffectedNodeImproves(t *testing.T) {
	r, err := RunFig15b(42)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: migration improves the median bitrate for a
	// subset of affected participants (node1 1.4→1.6 in the paper; node1 in
	// our topology too) without migrating endlessly.
	var noMig, with65 float64
	for _, row := range r.Rows {
		if row.Node != "node1" {
			continue
		}
		switch row.Strategy {
		case "no-migration":
			noMig = row.MedianBitrateMbps
		case "65%":
			with65 = row.MedianBitrateMbps
		}
	}
	if noMig == 0 || with65 == 0 {
		t.Fatalf("missing node1 rows: %+v", r.Rows)
	}
	if with65 <= noMig {
		t.Errorf("node1 bitrate did not improve with migration: %.2f vs %.2f (paper: 1.4→1.6)", with65, noMig)
	}
	if r.Migrations["65%"] == 0 {
		t.Error("65%% threshold never migrated the SFU")
	}
	if r.Migrations["65%"] > 3 {
		t.Errorf("SFU thrash: %d migrations in 10 minutes", r.Migrations["65%"])
	}
	pinDigest(t, "fig15b table", r.Table().String(), "efd17ce59d5bdcba2037c7aaf4bb0b99a839e58c83e177aa3ee0e0e005d47e6c")
}

func TestTable34Shapes(t *testing.T) {
	r, err := RunTable34(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 apps × 2 policies", len(r.Rows))
	}
	byApp := map[string]Table34Row{}
	for _, row := range r.Rows {
		if row.Policy == "bass-longest-path" {
			byApp[row.App] = row
		}
	}
	// Table 4's shape: DAG processing time grows with component count.
	if byApp["social-network"].DAGProcessUS <= byApp["camera"].DAGProcessUS {
		t.Errorf("27-component DAG (%.1fµs) not slower than 5-component (%.1fµs)",
			byApp["social-network"].DAGProcessUS, byApp["camera"].DAGProcessUS)
	}
	for app, row := range byApp {
		if row.PerComponentUS <= 0 {
			t.Errorf("%s: non-positive per-component latency", app)
		}
	}
}

func TestFig15aTableRenders(t *testing.T) {
	tab := Fig15aTable()
	if len(tab.Rows) != 6 {
		t.Errorf("Fig 15a rows = %d, want 6 links", len(tab.Rows))
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Errorf("rendered table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
}
