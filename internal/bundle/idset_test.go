package bundle

import (
	"strings"
	"testing"
)

// TestIDSetWordBoundaries adds, queries and deletes ids on both sides of
// the first word boundary and far past the backing length.
func TestIDSetWordBoundaries(t *testing.T) {
	var s IDSet
	ids := []ID{1, 63, 64, 65, 1000, 4096}
	for _, id := range ids {
		if s.Has(id) {
			t.Fatalf("empty set has %v", id)
		}
	}
	for n, id := range ids {
		s.Add(id)
		for m, other := range ids {
			if got, want := s.Has(other), m <= n; got != want {
				t.Fatalf("after adding %v: Has(%v) = %v, want %v", ids[:n+1], other, got, want)
			}
		}
		if s.Len() != n+1 {
			t.Fatalf("Len = %d after %d adds", s.Len(), n+1)
		}
	}
	for _, id := range []ID{0, 2, 62, 66, 999, 1001, 4095, 4097, 1 << 20} {
		if s.Has(id) {
			t.Fatalf("set has %v, never added", id)
		}
	}
	s.Add(64) // re-adding is a no-op
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d after re-add, want %d", s.Len(), len(ids))
	}
	s.Delete(64)
	if s.Has(64) || !s.Has(63) || !s.Has(65) {
		t.Fatal("Delete(64) disturbed its neighbours or kept 64")
	}
	s.Delete(64)      // absent: no-op
	s.Delete(1 << 20) // past the backing length: no-op
	if s.Len() != len(ids)-1 {
		t.Fatalf("Len = %d after deletes, want %d", s.Len(), len(ids)-1)
	}
}

// TestIDSetGrowsInOneStep checks that reaching a far id allocates once,
// not once per backing word, and that sequential ids, as a run mints
// them, grow the set by doubling.
func TestIDSetGrowsInOneStep(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s IDSet
		s.Add(1 << 16)
	})
	if allocs != 1 {
		t.Fatalf("Add past 1024 words: %v allocs, want 1", allocs)
	}
	allocs = testing.AllocsPerRun(1, func() {
		var s IDSet
		for id := ID(1); id < 1<<16; id++ {
			s.Add(id)
		}
	})
	if allocs > 11 { // capacities 1, 2, 4, ..., 1024 words
		t.Fatalf("sequential adds to 1024 words: %v allocs, want at most 11", allocs)
	}
	var s IDSet
	s.Add(100)
	if allocs := testing.AllocsPerRun(10, func() { s.Add(5); s.Has(100); s.Delete(5) }); allocs != 0 {
		t.Fatalf("in-range add/has/delete: %v allocs, want 0", allocs)
	}
}

func TestIDSetNegativeIDPanics(t *testing.T) {
	var s IDSet
	s.Add(10)
	for name, fn := range map[string]func(){
		"Add":    func() { s.Add(-1) },
		"Has":    func() { s.Has(-64) },
		"Delete": func() { s.Delete(-65) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "negative message id -") {
					t.Fatalf("recovered %v, want a negative-id panic", r)
				}
			}()
			fn()
		})
	}
}
