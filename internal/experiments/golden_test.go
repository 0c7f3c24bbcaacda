package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// The headline experiments' rendered output is pinned as SHA-256 literals.
// They were captured while the network driver (event-driven or once-per-second
// polling) and the shard count could still be chosen per run here, and every
// choice rendered these bytes. Polling and sharding now live on only as
// simnet's own differential references (TestEventDrivenMatchesPolling*,
// TestShardedMatchesSingleShard, TestGridPopulationGolden), so the literals
// are what keeps the experiment output from drifting. Horizons are shortened
// where the full paper horizon adds run time but no coverage.

// pinDigest fails the test when text's SHA-256 differs from want.
func pinDigest(t *testing.T, what, text, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != want {
		t.Errorf("%s digest %s, want golden %s\n%s", what, got, want, text)
	}
}

func TestFig8OutputIdenticalAcrossDrivers(t *testing.T) {
	r, err := runFig8(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Migrations) == 0 {
		t.Error("fig8 produced no migrations; the golden pins an idle run")
	}
	pinDigest(t, "fig8 table", r.Table().String(),
		"3ac3f110c4449b0d334b11c07759f20a685c4735f9a79866640f65f6f2afca8d")
}

func TestTable2OutputIdenticalAcrossDrivers(t *testing.T) {
	r, err := runTable2(42, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "table2 table", r.Table().String(),
		"24dbcc3b71e42a95a0a0c079aff2a9b648e2d440eae59518d0ddcdd8dc410e9a")
}

func TestChaosOutputIdenticalAcrossDrivers(t *testing.T) {
	r, err := runChaos(42, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "chaos table", r.Table().String(),
		"60bb01354bd1e4bb43d547f2d75ab50321237b56ed91ff3f87b44e13622df5d8")
}
