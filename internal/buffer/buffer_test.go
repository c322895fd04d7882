package buffer

import (
	"testing"
	"testing/quick"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

func msg(id bundle.ID, size units.Bytes, created, ttl float64) *bundle.Message {
	return bundle.New(id, 0, 1, size, created, ttl)
}

func TestNewStorePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewStore(0)
}

func TestAddAndAccounting(t *testing.T) {
	s := NewStore(units.MB(10))
	m := msg(1, units.MB(3), 0, 3600)
	evicted, ok := s.Add(0, m, core.FIFODrop{})
	if !ok || len(evicted) != 0 {
		t.Fatalf("Add = %v, %v", evicted, ok)
	}
	if s.Len() != 1 || s.Used() != units.MB(3) || s.Free() != units.MB(7) {
		t.Fatalf("accounting wrong: len=%d used=%v free=%v", s.Len(), s.Used(), s.Free())
	}
	if !s.Has(1) {
		t.Fatal("Has(1) = false")
	}
	if got, ok := s.Get(1); !ok || got != m {
		t.Fatal("Get(1) failed")
	}
	if s.Occupancy() != 0.3 {
		t.Fatalf("Occupancy = %v", s.Occupancy())
	}
	s.check()
}

func TestAddDuplicateRejected(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	evicted, ok := s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	if ok || evicted != nil {
		t.Fatal("duplicate Add accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate add", s.Len())
	}
}

func TestAddOversizedRejectedWithoutEviction(t *testing.T) {
	s := NewStore(units.MB(5))
	s.Add(0, msg(1, units.MB(4), 0, 3600), nil)
	evicted, ok := s.Add(0, msg(2, units.MB(6), 0, 3600), core.FIFODrop{})
	if ok {
		t.Fatal("oversized message stored")
	}
	if len(evicted) != 0 {
		t.Fatalf("oversized add evicted %d messages", len(evicted))
	}
	if !s.Has(1) {
		t.Fatal("existing message flushed by oversized add")
	}
}

func TestEvictionFIFO(t *testing.T) {
	s := NewStore(units.MB(5))
	s.Add(100, withReceived(msg(1, units.MB(2), 0, 3600), 100), core.FIFODrop{})
	s.Add(200, withReceived(msg(2, units.MB(2), 0, 3600), 200), core.FIFODrop{})
	// 1 MB free; adding 3 MB must evict M1 then M2 (oldest first).
	evicted, ok := s.Add(300, msg(3, units.MB(3), 0, 3600), core.FIFODrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 1 || evicted[0].ID != 1 {
		t.Fatalf("evicted %v, want [M1]", evicted)
	}
	if !s.Has(2) || !s.Has(3) || s.Has(1) {
		t.Fatal("wrong survivors")
	}
	s.check()
}

func TestEvictionLifetimeASC(t *testing.T) {
	s := NewStore(units.MB(4))
	// M1 expires at 3600, M2 at 1800 (sooner), both 2 MB.
	s.Add(0, msg(1, units.MB(2), 0, 3600), core.LifetimeASCDrop{})
	s.Add(0, msg(2, units.MB(2), 0, 1800), core.LifetimeASCDrop{})
	evicted, ok := s.Add(10, msg(3, units.MB(2), 10, 7200), core.LifetimeASCDrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 1 || evicted[0].ID != 2 {
		t.Fatalf("evicted %v, want [M2] (soonest expiry)", evicted)
	}
	s.check()
}

func TestEvictionMultipleVictims(t *testing.T) {
	s := NewStore(units.MB(4))
	s.Add(0, withReceived(msg(1, units.MB(1), 0, 3600), 1), core.FIFODrop{})
	s.Add(0, withReceived(msg(2, units.MB(1), 0, 3600), 2), core.FIFODrop{})
	s.Add(0, withReceived(msg(3, units.MB(1), 0, 3600), 3), core.FIFODrop{})
	evicted, ok := s.Add(10, msg(4, units.MB(3), 0, 3600), core.FIFODrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 2 || evicted[0].ID != 1 || evicted[1].ID != 2 {
		t.Fatalf("evicted %v, want [M1 M2]", evicted)
	}
	s.check()
}

func TestAddWithoutDropPolicyFailsOnOverflow(t *testing.T) {
	s := NewStore(units.MB(2))
	s.Add(0, msg(1, units.MB(2), 0, 3600), nil)
	_, ok := s.Add(0, msg(2, units.MB(1), 0, 3600), nil)
	if ok {
		t.Fatal("overflow add without policy succeeded")
	}
	if !s.Has(1) || s.Has(2) {
		t.Fatal("store mutated by failed add")
	}
}

func TestRemove(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	s.Add(0, msg(2, units.MB(2), 0, 3600), nil)
	got := s.Remove(1)
	if got == nil || got.ID != 1 {
		t.Fatalf("Remove(1) = %v", got)
	}
	if s.Has(1) || s.Used() != units.MB(2) {
		t.Fatal("remove accounting wrong")
	}
	if s.Remove(99) != nil {
		t.Fatal("Remove of absent id returned a message")
	}
	s.check()
}

func TestMessagesInsertionOrderSnapshot(t *testing.T) {
	s := NewStore(units.MB(10))
	for i := 1; i <= 5; i++ {
		s.Add(0, msg(bundle.ID(i), units.MB(1), 0, 3600), nil)
	}
	snap := s.Messages()
	for i, m := range snap {
		if m.ID != bundle.ID(i+1) {
			t.Fatalf("snapshot order: %v", snap)
		}
	}
	// Mutating the snapshot slice must not affect the store.
	snap[0] = nil
	if !s.Has(1) {
		t.Fatal("snapshot aliased store internals")
	}
}

// expire runs s.Expire(now) and returns a copy of the batch its hook saw,
// replacing any hook s had.
func expire(s *Store, now float64) []*bundle.Message {
	var got []*bundle.Message
	s.SetExpireHook(func(_ float64, dead []*bundle.Message) { got = append(got, dead...) })
	s.Expire(now)
	return got
}

func TestExpire(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 100), nil)  // expires at 100
	s.Add(0, msg(2, units.MB(1), 0, 500), nil)  // expires at 500
	s.Add(0, msg(3, units.MB(1), 50, 100), nil) // expires at 150
	dead := expire(s, 200)
	if len(dead) != 2 || dead[0].ID != 1 || dead[1].ID != 3 {
		t.Fatalf("Expire(200) = %v, want [M1 M3]", dead)
	}
	if !s.Has(2) || s.Len() != 1 {
		t.Fatal("survivor wrong")
	}
	if more := expire(s, 200); len(more) != 0 {
		t.Fatalf("second Expire removed %v", more)
	}
	s.check()
}

// TestExpireNonAdjacent expires replicas scattered through the buffer —
// first, middle and last, none adjacent — so the one-pass compaction must
// re-index every survivor that moved. The hook's batch keeps insertion
// order.
func TestExpireNonAdjacent(t *testing.T) {
	s := NewStore(units.MB(10))
	// Odd ids expire at 100, even ids live to 500.
	for i := 1; i <= 7; i++ {
		ttl := 500.0
		if i%2 == 1 {
			ttl = 100
		}
		s.Add(0, msg(bundle.ID(i), units.KB(100), 0, ttl), nil)
	}
	dead := expire(s, 100)
	want := []bundle.ID{1, 3, 5, 7}
	if len(dead) != len(want) {
		t.Fatalf("hook saw %v, want ids %v", dead, want)
	}
	for i, id := range want {
		if dead[i].ID != id {
			t.Fatalf("hook saw %v, want ids %v", dead, want)
		}
	}
	s.check()
	for i, m := range s.Messages() {
		if m.ID != bundle.ID(2*(i+1)) {
			t.Fatalf("survivors %v, want M2 M4 M6 in insertion order", s.Messages())
		}
	}
	if s.Used() != units.KB(300) {
		t.Fatalf("used %v after expiry, want 300 KB", s.Used())
	}
	// The compacted store keeps working: index lookups, removal and adds.
	if m := s.Remove(4); m == nil || m.ID != 4 {
		t.Fatal("Remove(4) after Expire")
	}
	s.Add(100, msg(8, units.KB(100), 100, 50), nil)
	s.check()
	if got := s.View(); len(got) != 3 || got[0].ID != 2 || got[1].ID != 6 || got[2].ID != 8 {
		t.Fatalf("View = %v, want [M2 M6 M8]", got)
	}
}

func TestExpireBoundaryInclusive(t *testing.T) {
	s := NewStore(units.MB(1))
	s.Add(0, msg(1, units.KB(500), 0, 100), nil)
	if dead := expire(s, 99.999); len(dead) != 0 {
		t.Fatal("expired before deadline")
	}
	if dead := expire(s, 100); len(dead) != 1 {
		t.Fatal("not expired at deadline")
	}
}

// TestExpireHookBatchIsScratch pins the hook contract: the batch is the
// store's reused scratch, valid only during the call, and cleared after
// it so the store keeps no dead replica alive.
func TestExpireHookBatchIsScratch(t *testing.T) {
	s := NewStore(units.MB(10))
	var kept [][]*bundle.Message
	s.SetExpireHook(func(_ float64, dead []*bundle.Message) { kept = append(kept, dead) })
	s.Add(0, msg(1, units.KB(100), 0, 100), nil)
	s.Add(0, msg(2, units.KB(100), 0, 100), nil)
	s.Expire(100)
	s.Add(100, msg(3, units.KB(100), 100, 100), nil)
	s.Expire(200)
	if len(kept) != 2 || len(kept[0]) != 2 || len(kept[1]) != 1 {
		t.Fatalf("hook batches %v, want sizes 2 and 1", kept)
	}
	if &kept[0][0] != &kept[1][0] {
		t.Fatal("second batch did not reuse the scratch")
	}
	if kept[0][1] != nil || kept[1][0] != nil {
		t.Fatalf("scratch still holds %v after the hook returned", kept[0][:2])
	}
}

// TestExpireAllocationFree checks that a steady add-and-expire cycle
// allocates nothing: the dead batch is staged in the store's scratch.
func TestExpireAllocationFree(t *testing.T) {
	s := NewStore(units.MB(10))
	expired := 0
	s.SetExpireHook(func(_ float64, dead []*bundle.Message) { expired += len(dead) })
	ms := []*bundle.Message{
		msg(1, units.KB(100), 0, 100),
		msg(2, units.KB(100), 0, 500),
		msg(3, units.KB(100), 0, 100),
	}
	cycle := func() {
		for _, m := range ms {
			s.Add(0, m, nil)
		}
		s.Expire(100)
		s.Remove(2)
	}
	cycle() // size the index, membership set and scratch
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("add-and-expire cycle: %v allocs, want 0", allocs)
	}
	if s.Len() != 0 || expired != 2*102 {
		t.Fatalf("len %d, expired %d; want 0 and %d", s.Len(), expired, 2*102)
	}
}

func withReceived(m *bundle.Message, at float64) *bundle.Message {
	m.ReceivedAt = at
	return m
}

// Property: whatever sequence of adds/removes/expiries happens, the buffer
// never exceeds capacity and its internal accounting stays consistent.
func TestPropertyCapacityInvariant(t *testing.T) {
	if err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		rng := xrand.New(seed)
		ops := int(opsRaw)%200 + 20
		s := NewStore(units.MB(10))
		now := 0.0
		nextID := bundle.ID(1)
		policies := []core.DropPolicy{core.FIFODrop{}, core.LifetimeASCDrop{}, nil}
		for i := 0; i < ops; i++ {
			now += rng.Float64() * 60
			switch rng.IntN(4) {
			case 0, 1: // add
				size := units.Bytes(rng.UniformInt(100_000, 4_000_000))
				ttl := 60 + rng.Float64()*10000
				m := bundle.New(nextID, 0, 1, size, now, ttl)
				nextID++
				s.Add(now, m, policies[rng.IntN(len(policies))])
			case 2: // remove random known id
				if s.Len() > 0 {
					victim := s.Messages()[rng.IntN(s.Len())]
					s.Remove(victim.ID)
				}
			case 3: // expire
				s.Expire(now)
			}
			if s.Used() > s.Capacity() {
				return false
			}
			s.check()
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add either stores the message or leaves the store unchanged
// (failed adds are atomic), and eviction frees exactly enough space.
func TestPropertyAddAtomicity(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		s := NewStore(units.MB(5))
		now := 0.0
		for i := 1; i <= 50; i++ {
			now += 1
			size := units.Bytes(rng.UniformInt(500_000, 6_000_000))
			m := bundle.New(bundle.ID(i), 0, 1, size, now, 3600)
			before := s.Len()
			usedBefore := s.Used()
			evicted, ok := s.Add(now, m, core.LifetimeASCDrop{})
			if ok {
				if !s.Has(m.ID) {
					return false
				}
				var freed units.Bytes
				for _, e := range evicted {
					freed += e.Size
				}
				if s.Used() != usedBefore-freed+m.Size {
					return false
				}
			} else {
				// Rejected: nothing changed.
				if s.Len() != before || s.Used() != usedBefore || len(evicted) != 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEvict(b *testing.B) {
	rng := xrand.New(1)
	s := NewStore(units.MB(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := units.Bytes(rng.UniformInt(500_000, 2_000_000))
		m := bundle.New(bundle.ID(i+1), 0, 1, size, float64(i), 3600)
		s.Add(float64(i), m, core.LifetimeASCDrop{})
	}
}
