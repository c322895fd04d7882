package sim

import (
	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/geo"
	"vdtn/internal/mobility"
	"vdtn/internal/routing"
)

// Kind distinguishes the two node classes of the scenario.
type Kind int

// Node classes.
const (
	Vehicle Kind = iota
	Relay
)

// String names the kind.
func (k Kind) String() string {
	if k == Relay {
		return "relay"
	}
	return "vehicle"
}

// staticUntiler mirrors wireless.StaticUntiler structurally, so mobility
// models can offer the scan-skip hint without importing the radio layer.
type staticUntiler interface {
	StaticUntil(now float64) float64
}

// Node is one network participant: mobility + buffer + router + the
// delivery bookkeeping of the node as a destination.
type Node struct {
	id     int
	kind   Kind
	mob    mobility.Model
	hint   staticUntiler // mob's static-until hint, nil if it has none
	buf    *buffer.Store
	router routing.Router

	// delivered records message ids this node received as destination;
	// the node refuses duplicates forever after. nDelivered counts them.
	delivered  bundle.IDSet
	nDelivered int
}

func newNode(id int, kind Kind, mob mobility.Model, buf *buffer.Store, r routing.Router) *Node {
	hint, _ := mob.(staticUntiler)
	n := &Node{
		id:     id,
		kind:   kind,
		mob:    mob,
		hint:   hint,
		buf:    buf,
		router: r,
	}
	r.Attach(id, buf)
	return n
}

// ID implements wireless.Entity.
func (n *Node) ID() int { return n.id }

// Position implements wireless.Entity.
func (n *Node) Position(now float64) geo.Point { return n.mob.Position(now) }

// StaticUntil implements wireless.StaticUntiler by forwarding the
// mobility model's hint: the proximity scan skips this node while its
// position is pinned (a stationary relay forever, a paused walker until
// the pause ends). Models without the hint never promise stillness.
func (n *Node) StaticUntil(now float64) float64 {
	if n.hint != nil {
		return n.hint.StaticUntil(now)
	}
	return now
}

// Kind returns the node class.
func (n *Node) Kind() Kind { return n.kind }

// Router returns the node's routing protocol instance.
func (n *Node) Router() routing.Router { return n.router }

// Buffer returns the node's message store.
func (n *Node) Buffer() *buffer.Store { return n.buf }

// DeliveredCount returns how many distinct messages this node has received
// as their destination.
func (n *Node) DeliveredCount() int { return n.nDelivered }

// markDelivered records the first arrival of id; it reports whether this
// was indeed the first.
func (n *Node) markDelivered(id bundle.ID) bool {
	if n.delivered.Has(id) {
		return false
	}
	n.delivered.Add(id)
	n.nDelivered++
	return true
}

// peerView adapts a Node into the routing.Peer a remote router sees.
type peerView struct {
	n *Node
}

// ID implements routing.Peer.
func (p peerView) ID() int { return p.n.id }

// Has implements routing.Peer.
func (p peerView) Has(id bundle.ID) bool { return p.n.buf.Has(id) }

// HasDelivered implements routing.Peer.
func (p peerView) HasDelivered(id bundle.ID) bool { return p.n.delivered.Has(id) }

// Router implements routing.Peer.
func (p peerView) Router() routing.Router { return p.n.router }
