package routing

import (
	"fmt"
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/xrand"
)

// orderCall is one SchedulingPolicy.Order call as countingSchedule saw it.
type orderCall struct {
	n       int  // group size
	deliver bool // every message is destined to the peer (vacuous when n == 0)
	relay   bool // no message is destined to the peer (vacuous when n == 0)
}

// countingSchedule records every Order call before delegating to FIFO.
type countingSchedule struct {
	peer  int
	calls []orderCall
}

func (c *countingSchedule) Name() string { return "Counting" }

func (c *countingSchedule) Order(now float64, msgs []*bundle.Message) {
	call := orderCall{n: len(msgs), deliver: true, relay: true}
	for _, m := range msgs {
		if m.To == c.peer {
			call.relay = false
		} else {
			call.deliver = false
		}
	}
	c.calls = append(c.calls, call)
	core.FIFOSchedule{}.Order(now, msgs)
}

// TestRefreshOrderCallSequence pins the queue-rebuild contract the Random
// policy's reproducibility rests on: every Refresh calls Order once on the
// deliverable group and then once on the relay group — also when either
// group (or both) is empty — and DirectDelivery calls it exactly once.
func TestRefreshOrderCallSequence(t *testing.T) {
	const peerID = 9
	routers := []struct {
		name  string
		make  func(core.Policy) Router
		calls int // Order calls per Refresh
	}{
		{"Epidemic", func(p core.Policy) Router { return NewEpidemic(p) }, 2},
		{"SprayAndWait", func(p core.Policy) Router { return NewSprayAndWait(p, 4, true) }, 2},
		{"FirstContact", func(p core.Policy) Router { return NewFirstContact(p) }, 2},
		{"DirectDelivery", func(p core.Policy) Router { return NewDirectDelivery(p) }, 1},
	}
	// Buffer contents per case: how many messages go to the peer, and how
	// many to a third node (relay candidates for every multi-copy router).
	cases := []struct {
		name                string
		deliverable, others int
	}{
		{"both groups", 2, 3},
		{"no deliverable", 0, 3},
		{"no relay", 2, 0},
		{"empty buffer", 0, 0},
	}
	for _, rt := range routers {
		for _, tc := range cases {
			t.Run(rt.name+"/"+tc.name, func(t *testing.T) {
				sched := &countingSchedule{peer: peerID}
				r := rt.make(core.Policy{Schedule: sched, Drop: core.FIFODrop{}})
				attach(r, 1)
				id := bundle.ID(1)
				for i := 0; i < tc.deliverable; i++ {
					r.AddMessage(0, msgTo(id, 1, peerID, 0, 600))
					id++
				}
				for i := 0; i < tc.others; i++ {
					r.AddMessage(0, msgTo(id, 1, 5, 0, 600))
					id++
				}
				p := newPeer(peerID, nil)
				r.ContactUp(1, p)
				r.Refresh(2, p)

				want := []orderCall{{n: tc.deliverable, deliver: true, relay: tc.deliverable == 0}}
				if rt.calls == 2 {
					want = append(want, orderCall{n: tc.others, deliver: tc.others == 0, relay: true})
				}
				want = append(want, want...) // ContactUp, then Refresh
				if fmt.Sprint(sched.calls) != fmt.Sprint(want) {
					t.Fatalf("Order calls = %v, want %v", sched.calls, want)
				}
			})
		}
	}
}

// TestRefreshSteadyStateAllocationFree: once a peer's queue and the relay
// scratch have grown to their working size, rebuilding the queue toward a
// live peer allocates nothing, under each of the paper's Table I policies.
func TestRefreshSteadyStateAllocationFree(t *testing.T) {
	const peerID = 9
	for _, pol := range core.TableI(xrand.New(3)) {
		for _, r := range []Router{NewEpidemic(pol), NewSprayAndWait(pol, 12, true)} {
			t.Run(r.Name()+"/"+pol.Name(), func(t *testing.T) {
				attach(r, 1)
				for i := 1; i <= 40; i++ {
					to := 5 + i%3
					if i%7 == 0 {
						to = peerID
					}
					r.AddMessage(float64(i), msgTo(bundle.ID(i), 1, to, float64(i), 3600))
				}
				p := newPeer(peerID, nil)
				for i := 1; i <= 40; i += 4 { // the peer already holds some
					m := msgTo(bundle.ID(i), 1, 5, float64(i), 3600)
					p.buf.Add(0, m, nil)
				}
				r.ContactUp(50, p)
				if s := r.NextSend(50, p); s == nil {
					t.Fatal("nothing queued for the peer")
				}
				r.Refresh(50, p)
				allocs := testing.AllocsPerRun(100, func() { r.Refresh(60, p) })
				if allocs != 0 {
					t.Fatalf("steady-state Refresh allocates %v per call, want 0", allocs)
				}
			})
		}
	}
}

// TestQueueRecycledAcrossContacts checks the storage recycling keeps queue
// semantics: a queue rebuilt after pops and a push, and a queue recycled
// from an ended contact, each hold exactly the current candidates.
func TestQueueRecycledAcrossContacts(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 1)
	for i := 1; i <= 5; i++ {
		e.AddMessage(float64(i), msgTo(bundle.ID(i), 1, 5, 0, 600))
	}
	p := newPeer(2, nil)
	e.ContactUp(10, p)
	first := e.NextSend(10, p)
	e.NextSend(10, p)
	e.OnAbort(10, p, first)
	if got := fmt.Sprint(drain(e, 10, p)); got != "[M1 M3 M4 M5]" {
		t.Fatalf("after pop, pop, abort: drained %s, want [M1 M3 M4 M5]", got)
	}
	e.Refresh(11, p)
	if got := fmt.Sprint(drain(e, 11, p)); got != "[M1 M2 M3 M4 M5]" {
		t.Fatalf("rebuilt queue drained %s, want all five", got)
	}
	e.ContactDown(12, p)
	if s := e.NextSend(12, p); s != nil {
		t.Fatalf("NextSend after ContactDown = %v, want nil", s.Msg)
	}
	q := newPeer(3, nil)
	q.buf.Add(0, msgTo(2, 1, 5, 0, 600), nil)
	e.ContactUp(13, q) // reuses peer 2's storage
	if got := fmt.Sprint(drain(e, 13, q)); got != "[M1 M3 M4 M5]" {
		t.Fatalf("recycled queue drained %s, want [M1 M3 M4 M5]", got)
	}
}
