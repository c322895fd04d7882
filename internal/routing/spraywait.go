package routing

import (
	"fmt"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// SprayAndWait is the controlled-replication protocol of Spyropoulos et al.
// (WDTN 2005). Each message starts with a budget of N logical copies
// (the paper's evaluation uses N = 12). A node holding more than one copy
// "sprays" at contacts; a node with a single copy "waits" and forwards only
// to the final destination.
//
// In the binary variant (the one the paper uses), a spraying node hands
// over half its budget — the receiver gets floor(n/2) copies and the sender
// keeps ceil(n/2). In the vanilla (source-spray) variant, the source hands
// single copies to the first N-1 encountered nodes.
//
// Transmission order and overflow eviction follow the injected
// scheduling-dropping policy, as in the paper.
type SprayAndWait struct {
	pol    core.Policy
	copies int
	binary bool
	self   int
	buf    *buffer.Store
	queues queueSet
}

// NewSprayAndWait returns a Spray-and-Wait router with the given copy
// budget. binary selects the binary variant (the paper's choice).
func NewSprayAndWait(pol core.Policy, copies int, binary bool) *SprayAndWait {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: SprayAndWait with incomplete policy")
	}
	if copies < 1 {
		panic(fmt.Sprintf("routing: SprayAndWait with %d copies", copies))
	}
	return &SprayAndWait{pol: pol, copies: copies, binary: binary, queues: newQueueSet()}
}

// Name implements Router.
func (s *SprayAndWait) Name() string {
	if s.binary {
		return "SprayAndWait"
	}
	return "SprayAndWaitVanilla"
}

// Policy returns the combined policy in force.
func (s *SprayAndWait) Policy() core.Policy { return s.pol }

// Copies returns the configured copy budget N.
func (s *SprayAndWait) Copies() int { return s.copies }

// Attach implements Router.
func (s *SprayAndWait) Attach(self int, buf *buffer.Store) {
	s.self = self
	s.buf = buf
}

// ContactUp implements Router. Spray and Wait keeps no encounter state;
// the contact work is building the send queue.
func (s *SprayAndWait) ContactUp(now float64, p Peer) { s.Refresh(now, p) }

// Refresh implements Router: deliverable messages first, then — only for
// replicas still holding more than one copy — spray candidates the peer
// lacks; both groups in scheduling-policy order.
func (s *SprayAndWait) Refresh(now float64, p Peer) {
	s.queues.rebuild(now, s.buf, p, s.pol.Schedule, sprayRelay)
}

// sprayRelay offers p the replicas it lacks that still hold more than one
// copy; a single-copy replica waits for its destination.
func sprayRelay(p Peer, m *bundle.Message) bool { return m.Copies > 1 && !p.Has(m.ID) }

// ContactDown implements Router.
func (s *SprayAndWait) ContactDown(now float64, p Peer) { s.queues.drop(p.ID()) }

// NextSend implements Router.
func (s *SprayAndWait) NextSend(now float64, p Peer) *Send {
	m := s.queues.next(now, s.buf, p, sprayRelay)
	if m == nil {
		return nil
	}
	if m.To == p.ID() {
		return &Send{Msg: m} // delivery: budget irrelevant
	}
	give := m.Copies / 2 // binary: floor(n/2)
	if !s.binary {
		give = 1 // source spray: single copies
	}
	return &Send{Msg: m, TransferCopies: give}
}

// OnSent implements Router: on delivery the local replica is discarded
// (paper rule); on a spray the local budget drops by the copies handed
// over, and a replica whose budget is exhausted is removed.
func (s *SprayAndWait) OnSent(now float64, p Peer, send *Send, delivered bool) {
	if delivered {
		s.buf.Remove(send.Msg.ID)
		return
	}
	m, ok := s.buf.Get(send.Msg.ID)
	if !ok {
		return // evicted mid-transfer; nothing to update
	}
	m.Copies -= send.TransferCopies
	if m.Copies < 1 {
		s.buf.Remove(m.ID)
	}
}

// OnAbort implements Router.
func (s *SprayAndWait) OnAbort(now float64, p Peer, send *Send) {
	s.queues.push(p.ID(), send.Msg)
}

// Receive implements Router.
func (s *SprayAndWait) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) {
		return false, nil
	}
	return s.store(now, m)
}

// AddMessage implements Router: a locally created message starts with the
// full copy budget.
func (s *SprayAndWait) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	m.Copies = s.copies
	return s.store(now, m)
}

func (s *SprayAndWait) store(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	s.buf.Expire(now)
	evicted, ok := s.buf.Add(now, m, s.pol.Drop)
	return ok, evicted
}
