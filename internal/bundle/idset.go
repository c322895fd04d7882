package bundle

import (
	"fmt"
	"math/bits"
)

// IDSet is a set of message ids held as a bitset, one bit per id. A run's
// ids are dense (Factory mints them sequentially from 1), so a set costs
// about maxID/8 bytes and membership is a shift and a load: the
// summary-vector test Epidemic runs for every buffered message on every
// queue rebuild. The zero value is an empty set. Ids must be
// non-negative; a negative id panics.
type IDSet struct {
	words []uint64
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id ID) bool {
	w := uint64(id) >> 6
	if w >= uint64(len(s.words)) {
		checkID(id)
		return false
	}
	return s.words[w]&(1<<(uint64(id)&63)) != 0
}

// Add puts id in the set, growing the backing words to reach it.
func (s *IDSet) Add(id ID) {
	w := uint64(id) >> 6
	if w >= uint64(len(s.words)) {
		checkID(id)
		s.grow(int(w) + 1)
	}
	s.words[w] |= 1 << (uint64(id) & 63)
}

// grow extends the set to n words in one step: one allocation at most,
// at least doubling the capacity, so sequential ids cost amortized O(1).
func (s *IDSet) grow(n int) {
	if n <= cap(s.words) {
		s.words = s.words[:n] // the set never shrinks, so the tail is zero
		return
	}
	words := make([]uint64, n, max(n, 2*cap(s.words)))
	copy(words, s.words)
	s.words = words
}

// Delete removes id from the set; absent ids are a no-op.
func (s *IDSet) Delete(id ID) {
	w := uint64(id) >> 6
	if w >= uint64(len(s.words)) {
		checkID(id)
		return
	}
	s.words[w] &^= 1 << (uint64(id) & 63)
}

// Len returns the number of ids in the set, counting the bits.
func (s *IDSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// checkID panics on a negative id. It runs only off the fast path: a
// negative id converts to a word index past any backing length.
func checkID(id ID) {
	if id < 0 {
		panic(negativeID(id))
	}
}

// negativeID is checkID's panic value. Formatting happens only if the
// panic is printed, which keeps the set's methods small enough to inline.
type negativeID ID

func (id negativeID) Error() string {
	return fmt.Sprintf("bundle: IDSet given negative message id %d", int64(id))
}
