package experiments

import (
	"testing"
	"time"
)

// These tests extend the driver-equivalence gate along the sharding axis:
// each headline experiment's rendered output — including the journal
// summaries embedded in the tables — must be byte-identical between the
// single-shard and sharded network drivers at equal seeds. Shard counts are
// chosen per topology (fig8 has 3 nodes, chaos 4, CityLab 5), so each run
// exercises real gateway links.

func TestFig8OutputIdenticalSharded(t *testing.T) {
	one, err := runFig8(42, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := runFig8(42, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	oneOut, shOut := one.Table().String(), sh.Table().String()
	if oneOut != shOut {
		t.Errorf("fig8 output differs across shard counts:\n--- 1 shard ---\n%s\n--- 3 shards ---\n%s", oneOut, shOut)
	}
	if one.JournalSummary != sh.JournalSummary {
		t.Errorf("fig8 journal summaries differ: %q vs %q", one.JournalSummary, sh.JournalSummary)
	}
}

func TestTable2OutputIdenticalSharded(t *testing.T) {
	const horizon = 5 * time.Minute
	one, err := runTable2(42, horizon, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := runTable2(42, horizon, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	oneOut, shOut := one.Table().String(), sh.Table().String()
	if oneOut != shOut {
		t.Errorf("table2 output differs across shard counts:\n--- 1 shard ---\n%s\n--- 4 shards ---\n%s", oneOut, shOut)
	}
}

// TestScaleRateChecksumIdenticalSharded runs a miniature city grid at one and
// four shards: every stream's horizon rate, summed in FlowID order, must be
// bit-identical, and equal to the pinned value.
func TestScaleRateChecksumIdenticalSharded(t *testing.T) {
	const want = 128.5
	for _, shards := range []int{1, 4} {
		r, err := RunScale(ScaleOptions{Nodes: 36, Flows: 150, Horizon: 10 * time.Second, Shards: shards, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if r.Shards != shards || r.Events == 0 {
			t.Fatalf("%d shard(s): empty or mis-sharded run %+v", shards, r)
		}
		if r.RateChecksum != want {
			t.Errorf("%d shard(s): rate checksum %v, want %v", shards, r.RateChecksum, want)
		}
	}
}

func TestChaosOutputIdenticalSharded(t *testing.T) {
	const horizon = 8 * time.Minute
	one, err := runChaos(42, horizon, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := runChaos(42, horizon, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	oneOut, shOut := one.Table().String(), sh.Table().String()
	if oneOut != shOut {
		t.Errorf("chaos output differs across shard counts:\n--- 1 shard ---\n%s\n--- 4 shards ---\n%s", oneOut, shOut)
	}
	if one.JournalSummary != sh.JournalSummary {
		t.Errorf("chaos journal summaries differ: %q vs %q", one.JournalSummary, sh.JournalSummary)
	}
}
