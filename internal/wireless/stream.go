// The single decode core for binary contact traces — the incremental
// decoder (binCursor), the one structural validator (streamValidator)
// and the pass that chains them (decodeBinary) — plus the ReplaySource
// interface that lets replay consume a trace without a materialized
// []Transition.
//
// DecodeBinary and RecordingView both run decodeBinary, and
// Recording.Validate runs the same streamValidator over an in-memory
// slice, so every reader accepts exactly the same traces and reports
// defects with the same messages.
package wireless

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// RecordingMeta is the fixed-size description of a contact trace: the two
// header fields plus the transition count — everything a replay needs to
// know about a trace before touching its stream.
type RecordingMeta struct {
	// ScanInterval is the tick period of the run that recorded the trace.
	ScanInterval float64
	// Duration is the recorded horizon in seconds.
	Duration float64
	// Transitions is the number of contact transitions in the trace.
	Transitions int
}

// TransitionCursor yields the transitions of one trace in firing order.
// Next returns false after the final transition. Cursors are single-use
// and not safe for concurrent use; take one cursor per replaying medium
// (the backing trace may be shared freely).
type TransitionCursor interface {
	Next() (Transition, bool)
}

// ReplaySource is a contact trace a Medium can replay: metadata, the
// highest referenced node id, and a fresh transition cursor per consumer.
// Both the in-memory *Recording and the zero-copy *RecordingView implement
// it; sources handed to StartReplay must already be structurally valid
// (Recording.Validate clean — a view validates on open).
type ReplaySource interface {
	Meta() RecordingMeta
	MaxNode() int
	Cursor() TransitionCursor
}

// Meta returns the recording's metadata block.
func (r *Recording) Meta() RecordingMeta {
	return RecordingMeta{ScanInterval: r.ScanInterval, Duration: r.Duration, Transitions: len(r.Transitions)}
}

// Cursor returns a fresh cursor over the recording's transitions,
// implementing ReplaySource.
func (r *Recording) Cursor() TransitionCursor { return &sliceCursor{trs: r.Transitions} }

// sliceCursor iterates a materialized transition slice.
type sliceCursor struct {
	trs []Transition
	i   int
}

func (c *sliceCursor) Next() (Transition, bool) {
	if c.i >= len(c.trs) {
		return Transition{}, false
	}
	tr := c.trs[c.i]
	c.i++
	return tr, true
}

// binCursor decodes the transition stream of a checked binEnvelope one
// transition at a time, with no allocation. It performs the per-entry
// decode checks (flags, minimal varints, node-id bounds); structural
// trace rules (time ordering, state alternation) are streamValidator's
// job.
type binCursor struct {
	p    []byte
	bits uint64
	n    int
}

// padded reports whether the n-byte varint at the front of p is longer
// than its minimal encoding (a minimal multi-byte varint never ends in a
// zero byte). Padded varints are rejected so that every accepted trace
// has exactly one encoding: EncodeBinary(DecodeBinary(data)) == data.
func padded(p []byte, n int) bool { return n > 1 && p[n-1] == 0 }

func (c *binCursor) next() (Transition, bool, error) {
	if len(c.p) == 0 {
		return Transition{}, false, nil
	}
	flags := c.p[0]
	if flags > 1 {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has unknown flags %#x", c.n, flags)
	}
	p := c.p[1:]
	delta, n := binary.Varint(p)
	if n <= 0 || padded(p, n) {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad time delta", c.n)
	}
	p = p[n:]
	a, n := binary.Uvarint(p)
	if n <= 0 || padded(p, n) || a >= maxBinaryNode {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad node id", c.n)
	}
	p = p[n:]
	gap, n := binary.Uvarint(p)
	if n <= 0 || padded(p, n) || gap >= maxBinaryNode {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad pair gap", c.n)
	}
	c.p = p[n:]
	c.bits += uint64(delta)
	c.n++
	return Transition{
		Time: math.Float64frombits(c.bits),
		A:    int(a),
		B:    int(a + gap + 1),
		Up:   flags == 1,
	}, true, nil
}

// decodeBinary is the one binary decode loop: it verifies the envelope,
// runs every transition through binCursor and streamValidator, checks the
// footer count against the stream, and returns the envelope and the
// trace's MaxNode. With keep set it also collects the transitions (nil
// for an empty trace, so the round trip stays exact); DecodeBinary keeps
// them, RecordingView does not.
func decodeBinary(data []byte, keep bool) (env binEnvelope, trs []Transition, maxNode int, err error) {
	env, err = parseBinaryEnvelope(data)
	if err != nil {
		return env, nil, -1, err
	}
	// The stride is a first guess, grown as higher ids appear: unlike
	// Validate, a stream does not know its MaxNode up front.
	val, err := newStreamValidator(env.scanInterval, env.duration, 64)
	if err != nil {
		return env, nil, -1, fmt.Errorf("wireless: binary recording invalid: %w", err)
	}
	if keep && env.count > 0 {
		trs = make([]Transition, 0, env.count)
	}
	maxNode = -1
	cur := binCursor{p: env.stream}
	for {
		tr, ok, err := cur.next()
		if err != nil {
			return env, nil, -1, err
		}
		if !ok {
			break
		}
		if err := val.check(tr); err != nil {
			return env, nil, -1, fmt.Errorf("wireless: binary recording invalid: %w", err)
		}
		maxNode = max(maxNode, tr.B)
		if keep {
			trs = append(trs, tr)
		}
	}
	if uint64(cur.n) != env.count {
		return env, nil, -1, fmt.Errorf("wireless: binary recording truncated: footer declares %d transitions, stream held %d",
			env.count, cur.n)
	}
	return env, trs, maxNode, nil
}

// streamValidator enforces the structural trace rules one transition at a
// time: finite positive scan interval and duration, ordered non-negative
// pairs, finite times non-decreasing from 0 and within the duration, and
// per-pair up/down alternation. It is the only implementation of those
// rules — the decoders and Recording.Validate all run it.
//
// Pair state lives in a dense bitmap for the common small-id case (several
// times faster than a map), with a map fallback for huge or sparse id
// spaces. The bitmap starts at the caller's stride: exact for Validate,
// which knows MaxNode, so it never grows there; a first guess for a
// decode stream, doubled as higher ids appear. The state structure is the
// only allocation and is paid once per validation pass, never per
// transition.
type streamValidator struct {
	duration float64
	last     float64
	i        int

	stride int    // dense bitmap stride; rows/cols are node ids; 0 on the map path
	dense  []bool // pair (a, b) up-state at a*stride+b
	sparse map[pairKey]bool
}

// streamDenseMax is the dense-path cutoff: beyond this stride the bitmap
// (stride² bools) costs more than the map.
const streamDenseMax = 1 << 11

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// newStreamValidator checks the trace header and returns a validator whose
// dense bitmap covers node ids below stride; a stride outside
// (0, streamDenseMax] — including one overflowed by an absurd MaxNode —
// starts on the map instead.
func newStreamValidator(scanInterval, duration float64, stride int) (streamValidator, error) {
	switch {
	case !finite(scanInterval):
		return streamValidator{}, fmt.Errorf("wireless: recording has non-finite scan interval %v", scanInterval)
	case scanInterval <= 0:
		return streamValidator{}, fmt.Errorf("wireless: recording has non-positive scan interval %v", scanInterval)
	case !finite(duration):
		return streamValidator{}, fmt.Errorf("wireless: recording has non-finite duration %v", duration)
	case duration <= 0:
		return streamValidator{}, fmt.Errorf("wireless: recording has non-positive duration %v", duration)
	}
	v := streamValidator{duration: duration}
	if stride > 0 && stride <= streamDenseMax {
		v.stride, v.dense = stride, make([]bool, stride*stride)
	} else {
		v.sparse = make(map[pairKey]bool)
	}
	return v, nil
}

// check admits one transition or reports the first structural defect.
// The common case — an ordered in-range pair on the dense bitmap
// flipping its state — is admitted in one branch, which keeps Validate as
// fast as a hand-inlined loop; everything else (every defect, growing the
// bitmap, the map path) goes to checkSlow. A NaN time fails both time
// comparisons, so it always takes the slow path.
func (v *streamValidator) check(tr Transition) error {
	if tr.A >= 0 && tr.A < tr.B && tr.B < v.stride && tr.Time >= v.last && tr.Time <= v.duration {
		i := tr.A*v.stride + tr.B
		if v.dense[i] != tr.Up {
			v.dense[i] = tr.Up
			v.last = tr.Time
			v.i++
			return nil
		}
	}
	return v.checkSlow(tr)
}

// checkSlow applies every structural rule in order and names the first
// one tr breaks. A NaN time must be caught explicitly: it compares false
// against everything, so the ordering and horizon checks would wave it —
// and, through last, every later transition — through.
func (v *streamValidator) checkSlow(tr Transition) error {
	switch {
	case tr.A < 0 || tr.B <= tr.A:
		return fmt.Errorf("wireless: recording transition %d has bad pair (%d, %d)", v.i, tr.A, tr.B)
	case !finite(tr.Time):
		return fmt.Errorf("wireless: recording transition %d has non-finite time %v", v.i, tr.Time)
	case tr.Time < v.last:
		return fmt.Errorf("wireless: recording transition %d at %v before predecessor at %v", v.i, tr.Time, v.last)
	case tr.Time > v.duration:
		return fmt.Errorf("wireless: recording transition %d at %v beyond duration %v", v.i, tr.Time, v.duration)
	}
	if v.sparse == nil && tr.B >= v.stride {
		v.grow(tr.B)
	}
	var up bool
	if v.sparse != nil {
		up = v.sparse[pairKey{tr.A, tr.B}]
	} else {
		up = v.dense[tr.A*v.stride+tr.B]
	}
	if up == tr.Up {
		return fmt.Errorf("wireless: recording transition %d repeats state up=%v of pair (%d, %d)", v.i, tr.Up, tr.A, tr.B)
	}
	if v.sparse != nil {
		v.sparse[pairKey{tr.A, tr.B}] = tr.Up
	} else {
		v.dense[tr.A*v.stride+tr.B] = tr.Up
	}
	v.last = tr.Time
	v.i++
	return nil
}

// grow widens the dense bitmap to cover node id b (geometric doubling, so
// re-indexing amortizes), or migrates the accumulated state to the map
// when ids outgrow the dense cutoff (the cutoff check runs before the
// doubling, so absurd ids from corrupt input cannot overflow the stride).
func (v *streamValidator) grow(b int) {
	if b >= streamDenseMax {
		v.sparse = make(map[pairKey]bool)
		for i, up := range v.dense {
			if up {
				v.sparse[pairKey{i / v.stride, i % v.stride}] = true
			}
		}
		v.dense, v.stride = nil, 0 // stride 0 keeps check off the dense path
		return
	}
	stride := v.stride
	for b >= stride {
		stride *= 2
	}
	wide := make([]bool, stride*stride)
	for i, up := range v.dense {
		if up {
			wide[(i/v.stride)*stride+i%v.stride] = true
		}
	}
	v.dense = wide
	v.stride = stride
}

// mapFile returns the contents of path, memory-mapped read-only when the
// platform supports it (see mmap_unix.go), plus the unmap function (nil
// when the bytes are heap-backed and need no release).
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		// mmap rejects empty ranges; an empty file fails envelope parsing
		// with the truncation message either way.
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("wireless: %s: %d bytes does not fit this platform's address space", path, size)
	}
	data, unmap, err := mmapReadOnly(f, int(size))
	if err == nil && unmap != nil {
		// Only genuinely mapped pages take access-pattern hints; the
		// heap-backed fallback (unmap == nil) has nothing to advise.
		adviseReplayAccess(data)
	}
	return data, unmap, err
}
