package experiments

import (
	"strings"
	"testing"
)

// TestHarnessSmoke exercises every remaining run* harness end-to-end with
// reduced sweeps (the fast harnesses have dedicated shape tests). The
// tables of the harnesses that share a testbed (Fig 13 with Table 1, the
// CityLab social-network figures and the ablations) are pinned by SHA-256,
// so a change to one testbed cannot silently shift another job's numbers.
// Skipped under -short.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy harness smoke test")
	}
	t.Run("fig5", func(t *testing.T) {
		r, err := runFig5(7)
		if err != nil {
			t.Fatal(err)
		}
		if r.ThrottledSec < r.CalmSec*10 {
			t.Errorf("throttle inflation too small: %.3f vs %.3f", r.ThrottledSec, r.CalmSec)
		}
		if len(r.Table().Rows) == 0 {
			t.Error("empty table")
		}
		pinDigest(t, "fig5 table", r.Table().String(), "8b8f39a85d8811dce44c851574f99e54520876cbc7fe1460171e983ce11513a8")
	})
	t.Run("fig11", func(t *testing.T) {
		r, err := runFig11(7, []float64{300})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 4 {
			t.Fatalf("rows = %d, want 2 schedulers × 2 restriction states", len(r.Rows))
		}
		// Restricted k3s must be far worse than restricted longest-path.
		var lp, k3s fig11Row
		for _, row := range r.Rows {
			if !row.Restricted {
				continue
			}
			if strings.Contains(row.Scheduler, "k3s") {
				k3s = row
			} else {
				lp = row
			}
		}
		if k3s.P99Sec < lp.P99Sec*10 {
			t.Errorf("restricted k3s p99 %.3f not ≫ longest-path %.3f", k3s.P99Sec, lp.P99Sec)
		}
		pinDigest(t, "fig11 table", r.Table().String(), "79673471ed689f76b82a466fc6902a371bb3e5b44ffb2984b0954586f6036762")
	})
	t.Run("fig13", func(t *testing.T) {
		r, err := runFig13(7, []int{30, 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 2 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		if r.Rows[0].Migrations == 0 {
			t.Error("30s interval never migrated")
		}
		if r.Rows[1].Migrations != 0 {
			t.Error("no-migration run migrated")
		}
		if len(r.Table1().Rows) == 0 {
			t.Error("Table 1 empty")
		}
		pinDigest(t, "fig13 + table1 tables", r.Table().String()+r.Table1().String(), "bce299a1fc1e08805529274ec727bc10d4a483e8c0035b4586f5641a16c07f7d")
	})
	t.Run("fig14b", func(t *testing.T) {
		r, err := runFig14b(7)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]fig14bRow{}
		for _, row := range r.Rows {
			byName[row.Variant] = row
		}
		if byName["k3s-default"].P99Sec <= byName["longest-path+mig"].P99Sec {
			t.Errorf("k3s p99 %.3f not above longest-path+mig %.3f",
				byName["k3s-default"].P99Sec, byName["longest-path+mig"].P99Sec)
		}
		pinDigest(t, "fig14b table", r.Table().String(), "7ed6718dee668abf972a3da14de35e51dace3112ae8cbb26fc49f67709477ffe")
	})
	t.Run("fig14cd", func(t *testing.T) {
		r, err := runFig14cd(7, []int{65}, []int{20})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Cells) != 2 { // 2 heuristics × 1×1
			t.Fatalf("cells = %d", len(r.Cells))
		}
		pinDigest(t, "fig14cd table", r.Table().String(), "123bb015bf5e93324eb0742e4c0e056f3d2d6ef1d9f5cb8eb3b9fb93a1855885")
	})
	t.Run("fig16", func(t *testing.T) {
		r, err := runFig16(7, []int{65, 95})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 2 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		pinDigest(t, "fig16 table", r.Table().String(), "8702196b6d4dbaa127278770a3e660a148bdeff350bee02043e9ddb366bf136f")
	})
	t.Run("fig14a", func(t *testing.T) {
		r, err := runFig14a(7)
		if err != nil {
			t.Fatal(err)
		}
		if r.RestartMeanSec <= r.BaselineMeanSec {
			t.Errorf("restart %.3f not above baseline %.3f", r.RestartMeanSec, r.BaselineMeanSec)
		}
		if len(r.CDF) == 0 {
			t.Error("empty CDF")
		}
		pinDigest(t, "fig14a table", r.Table().String(), "3b661fef8fa29790b1b133e6049d723f45765147dd3cf73c6d9924e412377f02")
	})
	t.Run("ablations", func(t *testing.T) {
		pack, err := runAblationPackLimit(7, []float64{0.8})
		if err != nil {
			t.Fatal(err)
		}
		if len(pack.Rows) != 1 || pack.Table().Title == "" {
			t.Errorf("pack ablation rows = %+v", pack.Rows)
		}
		cd, err := runAblationCooldown(7, []int{30})
		if err != nil {
			t.Fatal(err)
		}
		if len(cd.Rows) != 1 {
			t.Errorf("cooldown ablation rows = %+v", cd.Rows)
		}
		probe, err := runAblationProbeInterval(7, []int{30})
		if err != nil {
			t.Fatal(err)
		}
		if len(probe.Rows) != 1 || probe.Rows[0].Extra <= 0 {
			t.Errorf("probe ablation rows = %+v", probe.Rows)
		}
		pinDigest(t, "pack ablation table", pack.Table().String(), "b9f2a58a836461a6cc1e00a29b51c96fd61ce5243011292f69840446ff535fab")
		pinDigest(t, "cooldown ablation table", cd.Table().String(), "5187f51658f0858288e9323b28d1dd887ff6578ed1542ba63585807c574d0863")
		pinDigest(t, "probe ablation table", probe.Table().String(), "12ec5341d4bc2685aa7c543b43dac524fae41d4a0e7761a3e4b33d8ade3ebb1b")
	})
}
