// Command perfbench is the simulator's benchmark. It runs one of four
// workloads for a fixed wall-clock window and prints its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run), after
// checking every output against a reference. See README.md for the
// workloads, the metric table and how to run it.
//
// Run it from the repository root, whose sources it measures, through
// the wrapper that builds it:
//
//	bash perfbench/run.sh --workload paper-run --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run builds its fixture at least minSetups times, and keeps going
// until setupBudget has passed (at most maxSetups), so cheap set-ups still
// give a steady median; setup_s is that median, and only the last fixture
// is measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	// root is the repository checkout the spec and golden inputs are
	// read from; out receives the traced runs' span dumps; work is this
	// invocation's scratch directory, removed on exit.
	root, out, work string
	p               params
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{p: defaultParams()}
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; 1 is the seed pinned against the repository's golden numbers")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds (set-up excluded)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = *trace == 1
	if (*trace != 0 && *trace != 1) || o.seconds <= 0 || o.seed == 0 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1, --seconds > 0 and --seed > 0")
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	o.root = "."
	o.out = ".bench_build"
	o.work = filepath.Join(o.out, "work", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	rep, err := execute(wl, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts checked operations: every measured op and every set-up
// reference check is one attempt; a failed run or a wrong output is one
// failure.
type ledger struct {
	attempted, failed int
	notes             []string
}

func (l *ledger) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.notes) < 10 {
			l.notes = append(l.notes, err.Error())
		}
	}
}

// execute runs the set-ups, the measurement window and, when traced, the
// layer probe, printing the host block and readable metric lines to out.
func execute(wl workload, o options, out io.Writer) (report, error) {
	var led ledger
	printHeader(out, wl, o)

	var fx fixture
	var setupTimes []float64
	began := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return report{}, err
		}
		runtime.GC() // each set-up starts from a collected heap, like the ops
		start := time.Now()
		f, err := wl.setup(o, dir, &led)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		if i+1 >= maxSetups || (i+1 >= minSetups && time.Since(began) >= setupBudget) {
			fx = f
			break
		}
		if err := f.close(); err != nil {
			return report{}, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return report{}, err
		}
	}
	defer fx.close()
	fmt.Fprintf(out, "peak RSS after set-up: %.1f MB\n", peakRSSMB())

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	plain, traced := measure(fx, o.seconds, tr, &led)
	fmt.Fprintf(out, "setup_s samples (s): %.4f\n", setupTimes)

	rep := report{Metrics: map[string]metric{}}
	if !o.traced {
		for _, m := range endToEnd(plain, setupTimes, wl.name, out) {
			rep.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		tr.resetCalls()
		lay, err := fx.probe(tr)
		led.check(err)
		lay.overhead = median(walls(traced))/median(walls(plain)) - 1
		for _, m := range perLayer(tr, lay, out) {
			rep.Metrics[m.name] = metric{m.value, m.unit}
		}
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, o.seed))
		if err := tr.write(path, wl.name, o.seed); err != nil {
			return report{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	rep.Attempted, rep.Failed = led.attempted, led.failed
	rep.Correct = led.failed == 0
	fmt.Fprintf(out, "failed_frac = %d/%d = %g\n", led.failed, led.attempted, float64(led.failed)/float64(led.attempted))
	for _, n := range led.notes {
		fmt.Fprintln(out, "FAILED:", n)
	}
	return rep, nil
}

// cycleSample is one measured cycle: the fixture's ops run back to back
// (paper-run's three policies, one sweep, one fleet run, one job).
type cycleSample struct {
	wall         time.Duration
	simSeconds   float64
	cells        int
	allocBytes   uint64
	allocObjects uint64
}

func walls(cs []cycleSample) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = c.wall.Seconds()
	}
	return xs
}

// measure runs cycles while the next one is expected to end inside the
// window (always at least one). Traced runs alternate an untraced and a
// traced cycle, so both see the same host conditions and their ratio is
// the tracing overhead.
func measure(fx fixture, seconds float64, tr *tracer, led *ledger) (plain, traced []cycleSample) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(plain) == 0 || time.Now().Add(time.Since(start)/time.Duration(len(plain))).Before(deadline) {
		plain = append(plain, runCycle(fx, nil, led))
		if tr != nil {
			traced = append(traced, runCycle(fx, tr, led))
		}
	}
	return plain, traced
}

func runCycle(fx fixture, tr *tracer, led *ledger) cycleSample {
	var c cycleSample
	for k := range fx.cycle() {
		// Every op starts from a collected heap, so one op's garbage is not
		// collected on the next op's clock.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := fx.op(k, tr)
		runtime.ReadMemStats(&after)
		led.check(err)
		c.wall += w.wall
		c.simSeconds += w.simSeconds
		c.cells += w.cells
		c.allocBytes += after.TotalAlloc - before.TotalAlloc
		c.allocObjects += after.Mallocs - before.Mallocs
	}
	return c
}

// named is a metric on its way into the report.
type named struct {
	name  string
	value float64
	unit  string
}

// endToEnd derives the end-to-end metrics from the untraced cycles.
func endToEnd(cs []cycleSample, setupTimes []float64, workload string, out io.Writer) []named {
	wall := median(walls(cs))
	alloc := make([]float64, len(cs))
	objs := make([]float64, len(cs))
	for i, c := range cs {
		alloc[i] = float64(c.allocBytes)
		objs[i] = float64(c.allocObjects)
	}
	ms := walls(cs)
	for i := range ms {
		ms[i] *= 1000
	}
	tail, pct := tailOf(ms)
	ms50 := median(ms)
	last := cs[len(cs)-1]
	fmt.Fprintf(out, "cycle walls (s): %.4f\n", walls(cs))
	fmt.Fprintf(out, "cycles: %d (each: %d cells, %.0f simulated s); job latency p50 over %d samples, tail = p%.1f\n",
		len(cs), last.cells, last.simSeconds, len(cs), pct)
	m := []named{
		{"setup_s", median(setupTimes), "s"},
		{"sim_s_per_s", last.simSeconds / wall, "1/s"},
		{"cells_per_s", float64(last.cells) / wall, "1/s"},
		{"job_p50_ms", ms50, "ms"},
		{"job_tail_ms", tail, "ms"},
		{"alloc_mb", median(alloc) / 1e6, "MB"},
		{"allocs_k", median(objs) / 1e3, "count"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	for _, x := range m {
		fmt.Fprintf(out, "%-14s %14.4f %s   [%s]\n", x.name, x.value, x.unit, workload)
	}
	return m
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailOf returns the highest percentile with at least ten samples beyond
// it, and that percentile. With fewer than 20 samples no percentile above
// the median qualifies, so the tail is the median (p50).
func tailOf(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}
