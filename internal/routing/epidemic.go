package routing

import (
	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// Epidemic is flooding-based routing (Vahdat & Becker 2000): at every
// contact, nodes exchange the messages the other side does not yet have.
// With infinite buffers and bandwidth it is delay-optimal; under resource
// constraints its performance hinges on the scheduling and dropping policy
// in force — which is exactly the knob the paper turns.
type Epidemic struct {
	pol    core.Policy
	self   int
	buf    *buffer.Store
	queues queueSet
}

// NewEpidemic returns an Epidemic router governed by the given combined
// scheduling-dropping policy.
func NewEpidemic(pol core.Policy) *Epidemic {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: Epidemic with incomplete policy")
	}
	return &Epidemic{pol: pol, queues: newQueueSet()}
}

// Name implements Router.
func (e *Epidemic) Name() string { return "Epidemic" }

// Policy returns the combined policy in force (used by reports).
func (e *Epidemic) Policy() core.Policy { return e.pol }

// Attach implements Router.
func (e *Epidemic) Attach(self int, buf *buffer.Store) {
	e.self = self
	e.buf = buf
}

// ContactUp implements Router. Epidemic keeps no encounter state; the
// contact work is building the send queue.
func (e *Epidemic) ContactUp(now float64, p Peer) { e.Refresh(now, p) }

// Refresh implements Router: it (re)builds the send queue for p —
// messages destined to p first ("exchange deliverable messages first"),
// then everything p lacks, each group in scheduling-policy order.
func (e *Epidemic) Refresh(now float64, p Peer) {
	e.queues.rebuild(now, e.buf, p, e.pol.Schedule, epidemicRelay)
}

// epidemicRelay offers p every replica it lacks.
func epidemicRelay(p Peer, m *bundle.Message) bool { return !p.Has(m.ID) }

// ContactDown implements Router.
func (e *Epidemic) ContactDown(now float64, p Peer) { e.queues.drop(p.ID()) }

// NextSend implements Router.
func (e *Epidemic) NextSend(now float64, p Peer) *Send {
	m := e.queues.next(now, e.buf, p, epidemicRelay)
	if m == nil {
		return nil
	}
	return &Send{Msg: m}
}

// OnSent implements Router. Epidemic keeps its replica after relaying; the
// only removal is the paper's rule that a node which hands a message to
// its final destination discards its own copy.
func (e *Epidemic) OnSent(now float64, p Peer, s *Send, delivered bool) {
	if delivered {
		e.buf.Remove(s.Msg.ID)
	}
}

// OnAbort implements Router: the replica stays buffered and is retried
// first if the contact resumes.
func (e *Epidemic) OnAbort(now float64, p Peer, s *Send) {
	e.queues.push(p.ID(), s.Msg)
}

// Receive implements Router: store unless duplicate or expired, evicting
// per the dropping policy.
func (e *Epidemic) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) {
		return false, nil
	}
	return e.store(now, m)
}

// AddMessage implements Router.
func (e *Epidemic) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	return e.store(now, m)
}

func (e *Epidemic) store(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	e.buf.Expire(now)
	evicted, ok := e.buf.Add(now, m, e.pol.Drop)
	return ok, evicted
}
