// Package buffer implements the message store of a VDTN node: a
// capacity-bounded buffer whose overflow behaviour is delegated to a
// dropping policy (internal/core) and whose contents are handed to
// scheduling policies at contact opportunities.
//
// The store keeps replicas in insertion order and indexes them by message
// id; all iteration orders are deterministic so that simulation runs are
// reproducible bit-for-bit.
package buffer

import (
	"fmt"
	"slices"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
)

// Store is one node's message buffer. The zero value is not usable;
// use NewStore.
type Store struct {
	capacity units.Bytes
	used     units.Bytes
	byID     map[bundle.ID]int // id -> index into order
	present  bundle.IDSet      // ids in byID, for Has
	order    []*bundle.Message // insertion order, nil-free
	dead     []*bundle.Message // Expire's batch scratch
	onExpire func(now float64, dead []*bundle.Message)
}

// SetExpireHook installs fn to be called with every batch of replicas
// removed by Expire. The simulator uses it to account TTL deaths exactly,
// no matter which code path (router decision points or the periodic sweep)
// triggered the expiry. The batch slice is the store's scratch: it is
// valid only during the call, and fn must not retain it or call Expire.
func (s *Store) SetExpireHook(fn func(now float64, dead []*bundle.Message)) { s.onExpire = fn }

// NewStore returns an empty buffer with the given capacity in bytes.
// It panics on non-positive capacity.
func NewStore(capacity units.Bytes) *Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %d", capacity))
	}
	return &Store{
		capacity: capacity,
		byID:     make(map[bundle.ID]int),
	}
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() units.Bytes { return s.capacity }

// Used returns the bytes currently occupied.
func (s *Store) Used() units.Bytes { return s.used }

// Free returns the bytes currently available.
func (s *Store) Free() units.Bytes { return s.capacity - s.used }

// Len returns the number of stored replicas.
func (s *Store) Len() int { return len(s.order) }

// Occupancy returns the fill fraction in [0, 1].
func (s *Store) Occupancy() float64 {
	return float64(s.used) / float64(s.capacity)
}

// Has reports whether a replica of id is stored.
func (s *Store) Has(id bundle.ID) bool { return s.present.Has(id) }

// Get returns the stored replica of id, if any.
func (s *Store) Get(id bundle.ID) (*bundle.Message, bool) {
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.order[i], true
}

// Messages returns the stored replicas in insertion order. The slice is
// freshly allocated; the replicas are shared.
func (s *Store) Messages() []*bundle.Message {
	out := make([]*bundle.Message, len(s.order))
	copy(out, s.order)
	return out
}

// View returns the stored replicas in insertion order without copying.
// The slice aliases the store: callers must not modify it, and it is
// valid only until the next Add, Remove or Expire. Use Messages to
// iterate while mutating the store.
func (s *Store) View() []*bundle.Message { return s.order }

// Add stores m, evicting victims chosen by drop until m fits. It returns
// the evicted replicas (in eviction order) and whether m was stored.
//
// Add refuses — returning (nil, false) without evicting anything — if a
// replica of the same message is already stored, or if m alone exceeds the
// whole buffer capacity (the ONE simulator's behaviour: an oversized bundle
// never justifies flushing the node).
func (s *Store) Add(now float64, m *bundle.Message, drop core.DropPolicy) (evicted []*bundle.Message, ok bool) {
	if m == nil {
		panic("buffer: Add nil message")
	}
	if s.Has(m.ID) {
		return nil, false
	}
	if m.Size > s.capacity {
		return nil, false
	}
	for s.used+m.Size > s.capacity {
		if drop == nil {
			return evicted, false
		}
		v := drop.Victim(now, s.order)
		if v < 0 || v >= len(s.order) {
			panic(fmt.Sprintf("buffer: drop policy %s returned victim %d of %d", drop.Name(), v, len(s.order)))
		}
		evicted = append(evicted, s.removeAt(v))
	}
	s.byID[m.ID] = len(s.order)
	s.present.Add(m.ID)
	s.order = append(s.order, m)
	s.used += m.Size
	return evicted, true
}

// Remove deletes and returns the replica of id, or nil if absent.
func (s *Store) Remove(id bundle.ID) *bundle.Message {
	i, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.removeAt(i)
}

// removeAt removes the replica at index i in insertion order.
func (s *Store) removeAt(i int) *bundle.Message {
	m := s.order[i]
	copy(s.order[i:], s.order[i+1:])
	s.order[len(s.order)-1] = nil
	s.order = s.order[:len(s.order)-1]
	delete(s.byID, m.ID)
	s.present.Delete(m.ID)
	for j := i; j < len(s.order); j++ {
		s.byID[s.order[j].ID] = j
	}
	s.used -= m.Size
	return m
}

// Expire removes every replica whose TTL has run out at now and hands
// them, in insertion order, to the expire hook. The simulator calls this
// from its periodic sweep and before policy decisions, so policies never
// see dead messages.
//
// One pass compacts the survivors in place and re-indexes only those that
// moved, from the first removed position on.
func (s *Store) Expire(now float64) {
	first := slices.IndexFunc(s.order, func(m *bundle.Message) bool { return m.Expired(now) })
	if first < 0 {
		return
	}
	dead := s.dead[:0]
	kept := s.order[:first]
	for _, m := range s.order[first:] {
		if !m.Expired(now) {
			kept = append(kept, m)
			continue
		}
		dead = append(dead, m)
		delete(s.byID, m.ID)
		s.present.Delete(m.ID)
		s.used -= m.Size
	}
	clear(s.order[len(kept):])
	s.order = kept
	for i := first; i < len(kept); i++ {
		s.byID[kept[i].ID] = i
	}
	if s.onExpire != nil {
		s.onExpire(now, dead)
	}
	clear(dead) // the scratch must not keep dead replicas alive
	s.dead = dead[:0]
}

// check panics if internal invariants are violated; used by tests.
func (s *Store) check() {
	var used units.Bytes
	for i, m := range s.order {
		used += m.Size
		if j, ok := s.byID[m.ID]; !ok || j != i {
			panic(fmt.Sprintf("buffer: index desync for %v: byID=%d, order=%d", m.ID, j, i))
		}
		if !s.present.Has(m.ID) {
			panic(fmt.Sprintf("buffer: %v stored but missing from the membership set", m.ID))
		}
	}
	if n := s.present.Len(); n != len(s.byID) {
		panic(fmt.Sprintf("buffer: membership set holds %d ids, index %d", n, len(s.byID)))
	}
	if used != s.used {
		panic(fmt.Sprintf("buffer: used accounting drifted: %d != %d", used, s.used))
	}
	if len(s.byID) != len(s.order) {
		panic("buffer: map and slice length differ")
	}
	if s.used > s.capacity {
		panic("buffer: capacity exceeded")
	}
}
