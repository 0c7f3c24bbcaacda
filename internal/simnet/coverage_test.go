package simnet

import (
	"math"
	"testing"
	"time"

	"bass/internal/mesh"
	"bass/internal/sim"
)

func lineTopoForStop(t testing.TB) *mesh.Topology {
	t.Helper()
	return mesh.Line([]string{"a", "b"}, 10, time.Millisecond, time.Hour)
}

func engNet(t testing.TB, topo *mesh.Topology) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, topo)
}

func TestAddStreamUnknownNode(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.AddStream("x", "ghost", "a", 1); err == nil {
		t.Error("unknown src: want error")
	}
	if _, err := net.AddTransfer("x", "a", "ghost", 100, 0, nil); err == nil {
		t.Error("unknown dst: want error")
	}
}

func TestSetStreamDemandUnknown(t *testing.T) {
	_, net := lineNet(t, 10)
	if err := net.SetStreamDemand(FlowID(99), 1); err == nil {
		t.Error("unknown stream: want error")
	}
}

func TestCancelUnknownTransfer(t *testing.T) {
	_, net := lineNet(t, 10)
	if err := net.CancelTransfer(FlowID(99)); err == nil {
		t.Error("unknown transfer: want error")
	}
	// Streams are not transfers.
	id, err := net.AddStream("s", "a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.CancelTransfer(id); err == nil {
		t.Error("cancelling a stream as transfer: want error")
	}
}

func TestStreamRateUnknown(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.StreamRate(FlowID(1)); err == nil {
		t.Error("unknown flow: want error")
	}
	if _, err := net.StreamLoss(FlowID(1)); err == nil {
		t.Error("unknown flow: want error")
	}
}

func TestColocatedTransferUsesBus(t *testing.T) {
	eng, net := lineNet(t, 1) // slow mesh, fast bus
	var took time.Duration
	if _, err := net.AddTransfer("local", "a", "a", 10e6, 5, func(r TransferResult) {
		took = r.Duration()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// 10 MB at the 10 Gbps bus ≈ 8 ms, far below the 5 Mbps pace cap.
	if took <= 0 || took > 100*time.Millisecond {
		t.Errorf("co-located transfer took %v", took)
	}
}

func TestBytesAndTagQueries(t *testing.T) {
	eng, net := lineNet(t, 10)
	if _, err := net.AddStream("app/a->b", "a", "b", 4); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.TagRate("app/a->b"); math.Abs(got-4) > 0.5 {
		t.Errorf("TagRate = %v", got)
	}
	streams, transfers := net.ActiveFlows()
	if streams != 1 || transfers != 0 {
		t.Errorf("ActiveFlows = %d, %d", streams, transfers)
	}
	if got := net.FlowDemandByTag("app/a->b"); got != 4 {
		t.Errorf("FlowDemandByTag = %v", got)
	}
	stats, err := net.LinkStats("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if stats.CarriedMB <= 0 {
		t.Errorf("CarriedMB = %v", stats.CarriedMB)
	}
}

func TestQueueDelayUnknownLink(t *testing.T) {
	_, net := lineNet(t, 10)
	if _, err := net.QueueDelay("a", "ghost"); err == nil {
		t.Error("unknown link: want error")
	}
	if _, err := net.LinkStats("ghost", "a"); err == nil {
		t.Error("unknown link: want error")
	}
}

func TestStopNetworkTicks(t *testing.T) {
	topo := lineTopoForStop(t)
	eng, net := engNet(t, topo)
	stop := net.Start()
	stop()
	stop() // idempotent
	before := eng.Executed()
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// One residual tick event may fire as a no-op; no ongoing tick chain.
	if eng.Executed() > before+2 {
		t.Errorf("ticks continued after stop: %d events", eng.Executed()-before)
	}
}
