package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// params sizes the workloads. defaultParams is the benchmark; the smoke
// test shrinks it, and the pinned seed-1 checks apply only at default size.
type params struct {
	paperScale    float64 // multiplies the paper's 12-hour horizon
	fleetVehicles int
	fleetHours    float64
	sweepScale    float64 // fig8 sweep horizon as a share of 12 hours
}

func defaultParams() params {
	return params{
		paperScale:    1,
		fleetVehicles: 1000,
		fleetHours:    1,
		sweepScale:    0.125,
	}
}

// pinned reports whether the seed-1 numbers recorded from the repository
// apply: the default sizes and seed 1.
func (o options) pinned() bool { return o.seed == 1 && o.p == defaultParams() }

// opSample is one measured operation: a simulation run, a sweep or a job.
type opSample struct {
	wall       time.Duration
	simSeconds float64
	cells      int
}

// fixture is a workload after set-up: its inputs, references and warm
// caches.
type fixture interface {
	// cycle is the number of ops in one measured sample.
	cycle() int
	// op runs op k of the cycle and checks its output. With t non-nil it
	// runs traced: timing decorators, observers and spans on.
	op(k int, t *tracer) (opSample, error)
	// probe takes the workload's simulations apart layer by layer.
	probe(t *tracer) (layers, error)
	close() error
}

type workload struct {
	name, why string
	settings  func(p params, seed uint64) map[string]any
	setup     func(o options, dir string, led *ledger) (fixture, error)
}

var workloads = []workload{
	{
		name:     "paper-run",
		why:      "the paper scenario once per Table I policy under Epidemic, live contacts: the unit of cost behind every figure",
		settings: paperSettings,
		setup:    setupPaper,
	},
	{
		name:     "cached-sweep",
		why:      "the fig8 protocol sweep replayed from a warm mmap contact cache: routing, core, replay and sink, no scan",
		settings: sweepSettings,
		setup:    setupSweep,
	},
	{
		name:     "fleet-scan",
		why:      "a dense fleet with DirectDelivery and live contacts: the scan's large-n grid path, routing nearly idle",
		settings: fleetSettings,
		setup:    setupFleet,
	},
	{
		name:     "service-jobs",
		why:      "closed-loop vdtnd jobs over loopback HTTP: small sweeps where the daemon's own work is a visible share",
		settings: serviceSettings,
		setup:    setupService,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultLayerMetrics are the per-layer metrics the traced result line
// carries: the ones every workload measures. The experiments.* and
// service.* metrics are printed on the workloads that run those layers.
var resultLayerMetrics = []string{
	"wireless.record_s", "wireless.scan_us_per_tick", "wireless.contacts",
	"wireless.transfers_started", "wireless.abort_frac",
	"wireless.view_open_ms", "wireless.decode_ms",
	"routing.refresh_calls", "routing.refresh_s", "routing.contactup_s",
	"routing.nextsend_calls", "routing.nextsend_s", "routing.nextsend_empty_frac",
	"routing.add_s", "routing.refresh_per_transfer", "routing.self_s",
	"core.order_calls", "core.order_msgs", "core.order_s", "core.victim_calls",
	"buffer.evictions", "buffer.expiries", "buffer.mean_occupancy",
	"sim.replay_s", "sim.self_s", "sim.trace_events",
	"bench.trace_overhead_frac",
}

func inResultLine(m []named) []named {
	keep := map[string]bool{}
	for _, n := range resultLayerMetrics {
		keep[n] = true
	}
	var out []named
	for _, x := range m {
		if keep[x.name] {
			out = append(out, x)
		}
	}
	return out
}

// printHeader prints the host and run block as one JSON line, so numbers
// from a small host are never read as scaling claims.
func printHeader(out io.Writer, wl workload, o options) {
	header := map[string]any{
		"host": map[string]any{
			"nproc":         runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"cpu":           cpuModel(),
			"go":            runtime.Version(),
			"commit":        commit(),
			"source_sha256": sourceDigest(o.root),
		},
		"run": map[string]any{
			"workload":   wl.name,
			"why":        wl.why,
			"seed":       o.seed,
			"seconds":    o.seconds,
			"traced":     o.traced,
			"min_setups": minSetups,
			"settings":   wl.settings(o.p, o.seed),
		},
	}
	line, _ := json.Marshal(header) // maps of plain values always encode
	fmt.Fprintln(out, string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod file under root, which
// names the code measured even in a checkout without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
