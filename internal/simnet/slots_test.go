package simnet

import (
	"testing"
	"time"
)

// TestWalksSkipFlowsBornInCallbacks pins the rule that a walk over the flow
// set visits only the flows live when it started. In each case a failure
// callback cancels a transfer the walk has yet to reach, reads (the pass the
// read runs frees the cancelled flow's slot), and starts a transfer that takes
// that slot. A walk that held slots instead of FlowIDs would visit the
// newcomer there: a shed of its prefix would fail it, and a reroute would find
// it stranded, since the callback then downs the link under it.
func TestWalksSkipFlowsBornInCallbacks(t *testing.T) {
	t.Run("reroute", func(t *testing.T) {
		eng, net := lineNet(t, 100)
		late := -1 // the newcomer's callbacks, -1 until it starts
		var lateID FlowID
		_, err := net.AddTransfer("far", "a", "c", 1e9, 0, func(r TransferResult) {
			if !r.Failed {
				t.Errorf("a->c transfer finished; want it failed by the b-c outage")
			}
			if err := net.CancelTransfer(2); err != nil {
				t.Error(err)
			}
			net.AllocStats()
			id, err := net.AddTransfer("late", "a", "b", 1e9, 0, func(r TransferResult) {
				if !r.Failed {
					t.Errorf("late transfer finished; want it failed by the a-b outage")
				}
				late++
			})
			if err != nil {
				t.Fatal(err)
			}
			late, lateID = 0, id
			if err := net.topo.SetLinkUp("a", "b", false); err != nil {
				t.Fatal(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddTransfer("near", "a", "b", 1e9, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := net.topo.SetLinkUp("b", "c", false); err != nil {
			t.Fatal(err)
		}
		net.ApplyTopologyState()
		if late != 0 {
			t.Fatalf("the reroute that started transfer %d visited it (%d callbacks)", lateID, late)
		}
		net.ApplyTopologyState()
		if late != 1 {
			t.Errorf("transfer %d saw %d callbacks after the reroute that reached it, want 1", lateID, late)
		}
	})
	t.Run("shed", func(t *testing.T) {
		eng, net := lineNet(t, 100)
		late := -1
		_, err := net.AddTransfer("app/1", "a", "c", 1e9, 0, func(r TransferResult) {
			if err := net.CancelTransfer(2); err != nil {
				t.Error(err)
			}
			net.AllocStats()
			if _, err := net.AddTransfer("app/3", "a", "b", 1e9, 0, func(TransferResult) { late++ }); err != nil {
				t.Fatal(err)
			}
			late = 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.AddTransfer("app/2", "a", "b", 1e9, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if shed := net.ShedFlowsByTagPrefix("app"); shed != 1 || late != 0 {
			t.Fatalf("shed %d flows and the late transfer saw %d callbacks, want 1 and 0", shed, late)
		}
		if shed := net.ShedFlowsByTagPrefix("app"); shed != 1 || late != 1 {
			t.Errorf("second shed: %d flows and %d late callbacks, want 1 and 1", shed, late)
		}
	})
}

// TestReusedTransferSlotTakesNoStaleCompletion frees a transfer's slot with
// its completion event armed, starts a transfer that takes the slot, and
// fires the first transfer's completion as an event left behind would: before
// the newcomer's event is armed, while it is queued, and after the newcomer
// finished. None may complete anything; the newcomer completes once, on time.
func TestReusedTransferSlotTakesNoStaleCompletion(t *testing.T) {
	eng, net := lineNet(t, 100)
	first, err := net.AddTransfer("x", "a", "b", 1e6, 0, func(TransferResult) {
		t.Error("the cancelled transfer reported")
	})
	if err != nil {
		t.Fatal(err)
	}
	net.flush() // rates it and arms its completion
	s, _ := net.slotOf(first)
	xs := net.flow(s).xfer
	x := net.xfers.at(xs)
	if x.completionEv == 0 {
		t.Fatal("the first transfer's completion is not armed")
	}
	stale := x.fire
	if err := net.CancelTransfer(first); err != nil {
		t.Fatal(err)
	}
	var got []TransferResult
	second, err := net.AddTransfer("y", "a", "b", 2e6, 0, func(r TransferResult) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := net.slotOf(second); net.flow(s).xfer != xs {
		t.Fatalf("the second transfer took slot %d, want the freed slot %d", net.flow(s).xfer, xs)
	}
	stale() // the newcomer's event is not armed yet
	net.flush()
	stale() // the newcomer's event is queued
	if len(got) != 0 {
		t.Fatalf("a stale completion finished the second transfer: %+v", got)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	stale() // the slot is free again
	want := TransferResult{ID: second, Tag: "y", Bits: 16e6, Finished: 160 * time.Millisecond}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("second transfer reported %+v, want once %+v", got, want)
	}
}
