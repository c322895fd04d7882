package wireless

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzSeedRecordings are the hand-picked traces whose encodings (and
// mutations of them) seed both fuzz corpora: the empty trace, fractional
// ticks, times with no short decimal form, repeated pairs, and a
// large-gap node pair.
func fuzzSeedRecordings() []*Recording {
	return []*Recording{
		{ScanInterval: 1, Duration: 10},
		{ScanInterval: 1, Duration: 10, Transitions: []Transition{
			{Time: 1, A: 0, B: 1, Up: true},
			{Time: 3, A: 0, B: 1, Up: false},
		}},
		{ScanInterval: 0.5, Duration: 12.5, Transitions: []Transition{
			{Time: 0, A: 0, B: 1, Up: true},
			{Time: 0.5, A: 0, B: 2, Up: true},
			{Time: 1.5, A: 0, B: 1, Up: false},
			{Time: 3.0000000000000004, A: 0, B: 1, Up: true},
			{Time: 12.5, A: 2, B: 40, Up: true},
		}},
	}
}

// nanTimeRecording is a trace every reader must reject: a NaN time
// compares false against everything, so a validator that misses it also
// waves through the out-of-order transition behind it.
func nanTimeRecording() *Recording {
	return &Recording{ScanInterval: 1, Duration: 10, Transitions: []Transition{
		{Time: 5, A: 0, B: 1, Up: true},
		{Time: math.NaN(), A: 0, B: 2, Up: true},
		{Time: 1, A: 0, B: 1, Up: false},
	}}
}

// encodeEqual compares two recordings by their canonical binary encoding —
// bit-pattern exact, so a -0 time never compares equal to a 0 time the
// way it does under reflect.DeepEqual.
func encodeEqual(a, b *Recording) bool {
	return string(EncodeBinary(a)) == string(EncodeBinary(b))
}

// referenceCheck is the fuzz targets' independent oracle for the
// structural trace rules: a plain map-based restatement sharing no code
// with streamValidator, which the decoders and Validate all run — so a
// defect in that one validator cannot vouch for itself. Comparisons are
// written so that NaN fails them.
func referenceCheck(rec *Recording) error {
	if !(rec.ScanInterval > 0) || math.IsInf(rec.ScanInterval, 1) {
		return fmt.Errorf("scan interval %v is not finite and positive", rec.ScanInterval)
	}
	if !(rec.Duration > 0) || math.IsInf(rec.Duration, 1) {
		return fmt.Errorf("duration %v is not finite and positive", rec.Duration)
	}
	up := make(map[[2]int]bool)
	prev := 0.0
	for i, tr := range rec.Transitions {
		if tr.A < 0 || tr.B <= tr.A {
			return fmt.Errorf("transition %d: bad pair (%d, %d)", i, tr.A, tr.B)
		}
		if !(tr.Time >= prev && tr.Time <= rec.Duration) {
			return fmt.Errorf("transition %d: time %v outside [%v, %v]", i, tr.Time, prev, rec.Duration)
		}
		k := [2]int{tr.A, tr.B}
		if up[k] == tr.Up {
			return fmt.Errorf("transition %d: pair (%d, %d) repeats up=%v", i, tr.A, tr.B, tr.Up)
		}
		up[k] = tr.Up
		prev = tr.Time
	}
	return nil
}

// FuzzDecodeBinary is the binary codec's robustness target. For arbitrary
// bytes the decoders must never panic, and DecodeBinary and the zero-copy
// RecordingView must reach the same verdict and, on accept, the same
// transitions. An accepted input must pass the reference checker (never
// a silently-short or silently-invalid trace) and re-encode to exactly
// its own bytes.
func FuzzDecodeBinary(f *testing.F) {
	// Seeds: valid encodings, truncations at awkward offsets (inside the
	// header, mid-stream, inside the footer), bit flips, and non-binary
	// junk — the corpus the truncation/bit-flip tests sweep.
	rng := rand.New(rand.NewSource(1))
	for _, rec := range fuzzSeedRecordings() {
		enc := EncodeBinary(rec)
		f.Add(enc)
		for _, cut := range []int{0, 3, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
			if cut >= 0 && cut <= len(enc) {
				f.Add(enc[:cut])
			}
		}
		for i := 0; i < 8; i++ {
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
			f.Add(flipped)
		}
	}
	f.Add(EncodeBinary(nanTimeRecording())) // must be rejected
	f.Add([]byte{})
	f.Add([]byte("VDTNCB"))
	f.Add([]byte("# vdtn contact recording\nscan 1\nduration 10\nend 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, decErr := DecodeBinary(data)
		view, viewErr := NewRecordingView(data)
		if (decErr == nil) != (viewErr == nil) {
			t.Fatalf("decoders disagree: DecodeBinary err=%v, NewRecordingView err=%v", decErr, viewErr)
		}
		if decErr != nil {
			return
		}
		if err := referenceCheck(rec); err != nil {
			t.Fatalf("accepted trace breaks the reference rules: %v", err)
		}
		if mat := view.Materialize(); !encodeEqual(rec, mat) {
			t.Fatal("view materialized different transitions than DecodeBinary")
		}
		if view.MaxNode() != rec.MaxNode() || view.Len() != len(rec.Transitions) {
			t.Fatalf("view MaxNode/Len (%d, %d) disagree with the recording (%d, %d)",
				view.MaxNode(), view.Len(), rec.MaxNode(), len(rec.Transitions))
		}
		if !bytes.Equal(EncodeBinary(rec), data) {
			t.Fatal("accepted input does not re-encode to its own bytes")
		}
	})
}

// FuzzParseRecording is the text parser's robustness target: arbitrary
// input must never panic the parser; an accepted trace must pass the
// reference checker and round-trip exactly through Format.
func FuzzParseRecording(f *testing.F) {
	for _, rec := range fuzzSeedRecordings() {
		text := rec.Format()
		f.Add(text)
		f.Add(text[:len(text)/2])
		f.Add(text + "1 0 1 up\n")
	}
	f.Add("")
	f.Add("# comment only\n")
	f.Add("scan 1\nduration 10\n1 0 1 up\n")              // no trailer
	f.Add("scan 1\nduration 10\n1 0 1 up\nend 2\n")       // lying trailer
	f.Add("scan 1e309\nduration -0\nNaN 0 1 up\nend 1\n") // float edge cases
	f.Add(nanTimeRecording().Format())                    // must be rejected

	f.Fuzz(func(t *testing.T, text string) {
		rec, err := ParseRecording(text)
		if err != nil {
			return
		}
		if err := referenceCheck(rec); err != nil {
			t.Fatalf("accepted trace breaks the reference rules: %v", err)
		}
		again, err := ParseRecording(rec.Format())
		if err != nil {
			t.Fatalf("formatted accepted trace rejected: %v", err)
		}
		if !encodeEqual(rec, again) {
			t.Fatal("Format round trip changed the trace")
		}
	})
}
