package routing

import (
	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// DirectDelivery is the minimal baseline: a node carries its own messages
// and hands each one over only when it meets the destination itself.
// Zero replication — the delivery-ratio floor every multi-copy protocol
// should beat.
type DirectDelivery struct {
	pol    core.Policy
	self   int
	buf    *buffer.Store
	queues queueSet
}

// NewDirectDelivery returns a DirectDelivery router. The policy orders
// deliverable messages and governs eviction (the paper's policies apply
// even to this degenerate protocol).
func NewDirectDelivery(pol core.Policy) *DirectDelivery {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: DirectDelivery with incomplete policy")
	}
	return &DirectDelivery{pol: pol, queues: newQueueSet()}
}

// Name implements Router.
func (d *DirectDelivery) Name() string { return "DirectDelivery" }

// Attach implements Router.
func (d *DirectDelivery) Attach(self int, buf *buffer.Store) {
	d.self = self
	d.buf = buf
}

// ContactUp implements Router.
func (d *DirectDelivery) ContactUp(now float64, p Peer) { d.Refresh(now, p) }

// Refresh implements Router.
func (d *DirectDelivery) Refresh(now float64, p Peer) {
	d.queues.rebuild(now, d.buf, p, d.pol.Schedule, nil)
}

// ContactDown implements Router.
func (d *DirectDelivery) ContactDown(now float64, p Peer) { d.queues.drop(p.ID()) }

// NextSend implements Router.
func (d *DirectDelivery) NextSend(now float64, p Peer) *Send {
	m := d.queues.next(now, d.buf, p, nil)
	if m == nil {
		return nil
	}
	return &Send{Msg: m}
}

// OnSent implements Router.
func (d *DirectDelivery) OnSent(now float64, p Peer, s *Send, delivered bool) {
	if delivered {
		d.buf.Remove(s.Msg.ID)
	}
}

// OnAbort implements Router.
func (d *DirectDelivery) OnAbort(now float64, p Peer, s *Send) {
	d.queues.push(p.ID(), s.Msg)
}

// Receive implements Router: DirectDelivery never accepts relays — only
// the destination takes a message off the source, and deliveries are
// handled by the simulator before Receive would be called.
func (d *DirectDelivery) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	return false, nil
}

// AddMessage implements Router.
func (d *DirectDelivery) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	d.buf.Expire(now)
	evicted, ok := d.buf.Add(now, m, d.pol.Drop)
	return ok, evicted
}

// FirstContact forwards the single copy of each message to the first
// usable contact and deletes its own replica — the message hops through
// the network with exactly one live copy (Jain, Fall, Patra 2004 baseline).
type FirstContact struct {
	pol    core.Policy
	self   int
	buf    *buffer.Store
	queues queueSet
}

// NewFirstContact returns a FirstContact router.
func NewFirstContact(pol core.Policy) *FirstContact {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: FirstContact with incomplete policy")
	}
	return &FirstContact{pol: pol, queues: newQueueSet()}
}

// Name implements Router.
func (f *FirstContact) Name() string { return "FirstContact" }

// Attach implements Router.
func (f *FirstContact) Attach(self int, buf *buffer.Store) {
	f.self = self
	f.buf = buf
}

// ContactUp implements Router.
func (f *FirstContact) ContactUp(now float64, p Peer) { f.Refresh(now, p) }

// Refresh implements Router.
func (f *FirstContact) Refresh(now float64, p Peer) {
	f.queues.rebuild(now, f.buf, p, f.pol.Schedule, firstContactRelay)
}

// firstContactRelay offers p the replicas it lacks and has never carried.
func firstContactRelay(p Peer, m *bundle.Message) bool {
	return !p.Has(m.ID) && !m.HasVisited(p.ID())
}

// ContactDown implements Router.
func (f *FirstContact) ContactDown(now float64, p Peer) { f.queues.drop(p.ID()) }

// NextSend implements Router.
func (f *FirstContact) NextSend(now float64, p Peer) *Send {
	m := f.queues.next(now, f.buf, p, firstContactRelay)
	if m == nil {
		return nil
	}
	return &Send{Msg: m}
}

// OnSent implements Router: the copy moves — the sender always forgets it.
func (f *FirstContact) OnSent(now float64, p Peer, s *Send, delivered bool) {
	f.buf.Remove(s.Msg.ID)
}

// OnAbort implements Router.
func (f *FirstContact) OnAbort(now float64, p Peer, s *Send) {
	f.queues.push(p.ID(), s.Msg)
}

// Receive implements Router.
func (f *FirstContact) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) {
		return false, nil
	}
	f.buf.Expire(now)
	evicted, ok := f.buf.Add(now, m, f.pol.Drop)
	return ok, evicted
}

// AddMessage implements Router.
func (f *FirstContact) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	f.buf.Expire(now)
	evicted, ok := f.buf.Add(now, m, f.pol.Drop)
	return ok, evicted
}
