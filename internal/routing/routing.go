// Package routing implements the DTN routing protocols the paper evaluates:
// Epidemic and binary Spray-and-Wait (whose transmission order and eviction
// are governed by the pluggable scheduling/dropping policies of
// internal/core), plus MaxProp and PRoPHET (which carry their own
// scheduling and dropping machinery), and two classic baselines
// (DirectDelivery, FirstContact).
//
// Routers are decision-makers: the simulator (internal/sim) owns contacts,
// transfers, delivery bookkeeping and statistics, and consults the router
// at each step — what to send next to a peer, what to do after a transfer,
// whether to accept an incoming replica. This keeps every protocol unit-
// testable without a full simulation.
//
// Protocol metadata exchange (PRoPHET predictability vectors, MaxProp
// likelihood vectors and ack lists) happens by direct access to the peer's
// router at contact time. This is the standard simulator shortcut (the ONE
// does the same): the metadata is tiny compared to bundles, and modelling
// its airtime would only add a constant setup cost per contact.
package routing

import (
	"slices"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// Peer is a router's view of a node it is currently in contact with.
type Peer interface {
	// ID returns the remote node id.
	ID() int
	// Has reports whether the remote buffer holds a replica of id.
	Has(id bundle.ID) bool
	// HasDelivered reports whether the remote node, as destination,
	// has already received id.
	HasDelivered(id bundle.ID) bool
	// Router returns the remote router, for protocol metadata exchange.
	Router() Router
}

// Send is one transmission decision: which buffered replica to put on the
// wire and, for copy-budget protocols, how many logical copies the receiver
// will own (0 means the protocol default of 1).
type Send struct {
	Msg            *bundle.Message
	TransferCopies int
}

// Router is a DTN routing protocol instance bound to one node.
type Router interface {
	// Name returns the protocol name as used in reports ("Epidemic", ...).
	Name() string

	// Attach binds the router to its node. Called exactly once before any
	// other method.
	Attach(self int, buf *buffer.Store)

	// ContactUp tells the router a contact with p began.
	ContactUp(now float64, p Peer)

	// ContactDown tells the router the contact with p ended.
	ContactDown(now float64, p Peer)

	// Refresh rebuilds the send queue for the ongoing contact with p
	// without applying any protocol state updates (no encounter boosts,
	// no metadata exchange). The simulator calls it when the buffer gained
	// messages mid-contact — a newly created message, or a replica relayed
	// in from a third node — so they become eligible on the live contact,
	// as they would in a continuously re-evaluating simulator.
	Refresh(now float64, p Peer)

	// NextSend returns the next transmission for p, or nil if the router
	// has nothing (more) to offer p right now. The returned message must
	// be in the router's buffer.
	NextSend(now float64, p Peer) *Send

	// OnSent reports that the transfer of s to p completed. delivered is
	// true when p was the message destination.
	OnSent(now float64, p Peer, s *Send, delivered bool)

	// OnAbort reports that the transfer of s to p was cut by contact loss.
	OnAbort(now float64, p Peer, s *Send)

	// Receive offers an incoming replica m (already stamped by
	// Message.ForwardTo) arriving from p. It returns whether the replica
	// was stored and any replicas evicted to make room.
	Receive(now float64, m *bundle.Message, from Peer) (accepted bool, evicted []*bundle.Message)

	// AddMessage injects a locally created message (the traffic source).
	AddMessage(now float64, m *bundle.Message) (accepted bool, evicted []*bundle.Message)
}

// queueSet tracks per-peer send queues between ContactUp and ContactDown.
// Queues hold buffered replicas in transmission order; entries are
// revalidated at pop time because buffer contents change while queued
// (TTL expiry, evictions, copies delivered elsewhere).
//
// Queue storage is recycled: a rebuild refills the peer's existing
// backing array, an ended contact's queue is kept for the next one, and
// the relay group is staged in one scratch slice per router, so a
// steady-state rebuild allocates nothing. The storage may still
// reference replicas already popped or left over from an older queue;
// nothing reads those slots again.
type queueSet struct {
	queues map[int]*peerQueue
	spare  []*peerQueue      // queues of ended contacts, kept for reuse
	relay  []*bundle.Message // relay-group scratch for rebuild
}

// peerQueue is one peer's send queue: msgs[head:] are pending, in
// transmission order. Popping advances head rather than reslicing, so the
// whole backing array stays available to the next rebuild.
type peerQueue struct {
	msgs []*bundle.Message
	head int
}

// relayRule reports whether a replica not destined to p should be relayed
// to p. rebuild applies it to pick the relay group, and next applies it
// again at pop time, since the answer can change while the replica waits
// (the peer may receive it from a third node).
type relayRule func(p Peer, m *bundle.Message) bool

func newQueueSet() queueSet {
	return queueSet{queues: make(map[int]*peerQueue)}
}

// queue returns peer's queue, creating (or recycling) an empty one.
func (q *queueSet) queue(peer int) *peerQueue {
	pq := q.queues[peer]
	if pq == nil {
		if n := len(q.spare); n > 0 {
			pq, q.spare = q.spare[n-1], q.spare[:n-1]
			pq.msgs, pq.head = pq.msgs[:0], 0
		} else {
			pq = new(peerQueue)
		}
		q.queues[peer] = pq
	}
	return pq
}

// set replaces peer's queue with msgs, which the queue takes over.
func (q *queueSet) set(peer int, msgs []*bundle.Message) {
	pq := q.queue(peer)
	pq.msgs, pq.head = msgs, 0
}

// rebuild expires buf's dead replicas, then refills p's queue in
// transmission order: the replicas destined to p first, then — when relay
// is non-nil — those relay accepts, each group put in sched order.
// Replicas p has already received as destination are left out. Order
// runs on each group even when it is empty, so a Random schedule sees the
// same call sequence on every rebuild: twice per call, deliverable then
// relay, or once with a nil relay.
func (q *queueSet) rebuild(now float64, buf *buffer.Store, p Peer, sched core.SchedulingPolicy, relay relayRule) {
	buf.Expire(now)
	to := p.ID()
	pq := q.queue(to)
	out, rest := pq.msgs[:0], q.relay[:0]
	for _, m := range buf.View() {
		switch {
		case m.To == to:
			if !p.HasDelivered(m.ID) {
				out = append(out, m)
			}
		case relay != nil && !p.HasDelivered(m.ID) && relay(p, m):
			rest = append(rest, m)
		}
	}
	sched.Order(now, out)
	if relay != nil {
		sched.Order(now, rest)
		out = append(out, rest...)
	}
	pq.msgs, pq.head, q.relay = out, 0, rest
}

// drop forgets peer's queue, keeping its storage for a later contact.
// The queue is emptied only when reused: contacts end far more often
// than they carry traffic, and touching the queue here costs a cache
// miss per contact.
func (q *queueSet) drop(peer int) {
	if pq := q.queues[peer]; pq != nil {
		delete(q.queues, peer)
		q.spare = append(q.spare, pq)
	}
}

// pop returns the first queued message satisfying valid, discarding
// entries that fail it. Returns nil when the queue is exhausted.
func (q *queueSet) pop(peer int, valid func(*bundle.Message) bool) *bundle.Message {
	pq := q.queues[peer]
	if pq == nil {
		return nil
	}
	for pq.head < len(pq.msgs) {
		m := pq.msgs[pq.head]
		pq.head++
		if valid(m) {
			return m
		}
	}
	return nil
}

// next pops p's first queued replica that is still worth sending, under
// the rules rebuild queued it by: still buffered, alive, not yet delivered
// to p, and destined to p or accepted by relay.
func (q *queueSet) next(now float64, buf *buffer.Store, p Peer, relay relayRule) *bundle.Message {
	to := p.ID()
	return q.pop(to, func(m *bundle.Message) bool {
		if !buf.Has(m.ID) || m.Expired(now) || p.HasDelivered(m.ID) {
			return false
		}
		return m.To == to || relay != nil && relay(p, m)
	})
}

// push re-queues a message at the front (used after an aborted transfer so
// the replica is retried first if the contact resumes).
func (q *queueSet) push(peer int, m *bundle.Message) {
	pq := q.queue(peer)
	if pq.head > 0 {
		pq.head--
		pq.msgs[pq.head] = m
		return
	}
	pq.msgs = slices.Insert(pq.msgs, 0, m)
}
