// Contact-trace recording: the capture side of the medium's record/replay
// pair. A Recording is the exact sequence of contact up/down transitions a
// scan-driven run produced, in the order the scan fired them. Replaying it
// (Medium.StartReplay) reproduces the run's contact process bit-identically
// without touching mobility or the proximity grid — the basis of the
// experiment harness's contact cache, where one mobility simulation per
// (scenario, seed) pair is reused across every series and x-axis cell.
package wireless

import (
	"fmt"
	"strconv"
	"strings"
)

// Transition is one contact state change, as fired by the proximity scan
// (or a contact plan). A < B always; Time is the scan tick the transition
// fired on.
type Transition struct {
	Time float64
	A, B int
	Up   bool
}

// Recording is a captured contact trace. ScanInterval is the tick period
// of the run that recorded it (replay must use the same period to keep
// event ordering aligned); Duration is the recorded horizon in seconds.
// Transitions are in firing order: non-decreasing time, and within one
// scan tick downs before ups — exactly as the live scan raises them.
//
// A Recording is immutable once captured; concurrent replays may share one
// instance (each Medium keeps its own replay cursor).
type Recording struct {
	ScanInterval float64
	Duration     float64
	Transitions  []Transition
}

// MaxNode returns the highest node id referenced; -1 for an empty trace.
func (r *Recording) MaxNode() int {
	max := -1
	for _, tr := range r.Transitions {
		if tr.B > max {
			max = tr.B
		}
	}
	return max
}

// Validate reports the first structural defect: non-finite or
// non-positive scan interval or duration, unordered or negative pairs,
// non-finite timestamps or ones outside [0, Duration] or decreasing, or a
// transition repeating the pair's current state (two ups or two downs in
// a row). It runs the decoders' streamValidator, its bitmap sized to
// MaxNode so the pass allocates once.
func (r *Recording) Validate() error {
	v, err := newStreamValidator(r.ScanInterval, r.Duration, r.MaxNode()+1)
	if err != nil {
		return err
	}
	for _, tr := range r.Transitions {
		if err := v.check(tr); err != nil {
			return err
		}
	}
	return nil
}

// Windows pairs the transitions into contact windows, in up-transition
// order. Contacts still open at the end of the trace are closed at
// Duration, so converting to a contact plan loses the open/closed
// distinction (a replay never fires downs the live run did not fire).
// An up on the final scan tick (exactly at Duration) would make a
// zero-length window and is dropped.
func (r *Recording) Windows() []ContactWindow {
	open := make(map[pairKey]int) // pair -> index into out of its open window
	var out []ContactWindow
	for _, tr := range r.Transitions {
		k := pairKey{tr.A, tr.B}
		if tr.Up {
			open[k] = len(out)
			out = append(out, ContactWindow{A: tr.A, B: tr.B, Start: tr.Time, End: r.Duration})
		} else if i, ok := open[k]; ok {
			out[i].End = tr.Time
			delete(open, k)
		}
	}
	kept := out[:0]
	for _, w := range out {
		if w.End > w.Start {
			kept = append(kept, w)
		}
	}
	return kept
}

// Format renders the recording in its line-oriented text form:
//
//	# vdtn contact recording
//	scan <interval>
//	duration <seconds>
//	<time> <nodeA> <nodeB> up|down
//	end <transition count>
//
// Floats use the shortest exact decimal representation, so
// ParseRecording(Format()) round-trips bit-identically. The final
// "end <count>" trailer makes truncation detectable: without it, any
// prefix of a trace would parse cleanly and silently replay wrong
// contacts.
func (r *Recording) Format() string {
	var sb strings.Builder
	sb.WriteString("# vdtn contact recording\n")
	fmt.Fprintf(&sb, "scan %s\n", formatFloat(r.ScanInterval))
	fmt.Fprintf(&sb, "duration %s\n", formatFloat(r.Duration))
	for _, tr := range r.Transitions {
		dir := "down"
		if tr.Up {
			dir = "up"
		}
		fmt.Fprintf(&sb, "%s %d %d %s\n", formatFloat(tr.Time), tr.A, tr.B, dir)
	}
	fmt.Fprintf(&sb, "end %d\n", len(r.Transitions))
	return sb.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseRecording reads the Format text form back into a validated
// Recording. The "end <count>" trailer is required: a file cut short —
// torn rename, partial copy — is reported as an error, never replayed as
// a shorter trace.
func ParseRecording(text string) (*Recording, error) {
	rec := &Recording{}
	trailer := -1 // transition count the end trailer declares; -1 = not seen
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if trailer >= 0 {
			return nil, fmt.Errorf("wireless: recording line %d: content after the end trailer", lineNo+1)
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "end" && len(fields) == 2:
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("wireless: recording line %d: bad end count %q", lineNo+1, fields[1])
			}
			trailer = n
		case fields[0] == "scan" && len(fields) == 2:
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("wireless: recording line %d: bad scan interval %q", lineNo+1, fields[1])
			}
			rec.ScanInterval = v
		case fields[0] == "duration" && len(fields) == 2:
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("wireless: recording line %d: bad duration %q", lineNo+1, fields[1])
			}
			rec.Duration = v
		case len(fields) == 4:
			t, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("wireless: recording line %d: bad time %q", lineNo+1, fields[0])
			}
			a, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("wireless: recording line %d: bad node %q", lineNo+1, fields[1])
			}
			b, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("wireless: recording line %d: bad node %q", lineNo+1, fields[2])
			}
			var upFlag bool
			switch fields[3] {
			case "up":
				upFlag = true
			case "down":
				upFlag = false
			default:
				return nil, fmt.Errorf("wireless: recording line %d: want up|down, got %q", lineNo+1, fields[3])
			}
			rec.Transitions = append(rec.Transitions, Transition{Time: t, A: a, B: b, Up: upFlag})
		default:
			return nil, fmt.Errorf("wireless: recording line %d: unrecognized %q", lineNo+1, line)
		}
	}
	switch {
	case trailer < 0:
		return nil, fmt.Errorf("wireless: recording has no end trailer: truncated, or not written by Format")
	case trailer != len(rec.Transitions):
		return nil, fmt.Errorf("wireless: recording truncated: end trailer declares %d transitions, read %d",
			trailer, len(rec.Transitions))
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
