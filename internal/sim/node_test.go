package sim

import (
	"testing"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/geo"
	"vdtn/internal/mobility"
	"vdtn/internal/routing"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// TestDeliveredSetCountsFirstArrivals feeds a node repeated deliveries:
// only first arrivals count, and HasDelivered agrees with DeliveredCount.
func TestDeliveredSetCountsFirstArrivals(t *testing.T) {
	n := newNode(0, Vehicle, mobility.Stationary{At: geo.Point{}}, buffer.NewStore(units.MB(1)), routing.NewEpidemic(core.FIFOFIFO()))
	arrivals := []bundle.ID{3, 64, 3, 200, 64, 1, 63, 1}
	first := map[bundle.ID]bool{}
	for _, id := range arrivals {
		if got := n.markDelivered(id); got != !first[id] {
			t.Fatalf("markDelivered(%v) = %v, first arrival %v", id, got, !first[id])
		}
		first[id] = true
	}
	if n.DeliveredCount() != len(first) {
		t.Fatalf("DeliveredCount = %d, want %d", n.DeliveredCount(), len(first))
	}
	p := peerView{n}
	for id := bundle.ID(0); id <= 256; id++ {
		if p.HasDelivered(id) != first[id] {
			t.Fatalf("HasDelivered(%v) = %v, want %v", id, p.HasDelivered(id), first[id])
		}
	}
}

// TestDeliveredSetMatchesTrace runs a scenario and checks every node's
// delivered set against the trace: HasDelivered holds exactly for the
// (destination, message) pairs the trace delivered, and DeliveredCount is
// their number, however many duplicate arrivals there were.
func TestDeliveredSetMatchesTrace(t *testing.T) {
	for _, p := range []ProtocolKind{ProtoEpidemic, ProtoSprayAndWait, ProtoFirstContact} {
		var lg trace.Log
		c := quickConfig(61)
		c.Protocol = p
		c.Trace = lg.Append
		w, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		got := make([]map[bundle.ID]bool, w.NodeCount())
		for i := range got {
			got[i] = map[bundle.ID]bool{}
		}
		for _, ev := range lg.Events() {
			if ev.Kind == trace.Delivered {
				got[ev.B][ev.Msg] = true
			}
		}
		total := 0
		for i, ids := range got {
			n := w.Node(i)
			if n.DeliveredCount() != len(ids) {
				t.Fatalf("%v node %d: DeliveredCount %d, trace delivered %d ids", p, i, n.DeliveredCount(), len(ids))
			}
			for id := bundle.ID(0); id <= bundle.ID(r.Created)+64; id++ {
				if (peerView{n}).HasDelivered(id) != ids[id] {
					t.Fatalf("%v node %d: HasDelivered(%v) = %v, trace says %v", p, i, id, !ids[id], ids[id])
				}
			}
			total += len(ids)
		}
		if events := lg.Count(trace.Delivered); total != events-r.DeliveredDuplicate || total == 0 {
			t.Fatalf("%v: %d first deliveries, trace has %d deliveries with %d duplicates", p, total, events, r.DeliveredDuplicate)
		}
	}
}
