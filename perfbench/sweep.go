package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vdtn/internal/experiments"
	"vdtn/internal/sim"
)

// sweepPinnedSHA256 is the digest of the fig8 JSONL stream for seeds 1-3
// (benchmark seed 1) at the default scale, recorded from the repository.
const sweepPinnedSHA256 = "580b51c87893c7722fefd7e6a8f25a12acdaee463fa8397336430f0d5272d313"

func sweepOptions(p params, seed uint64) experiments.Options {
	return experiments.Options{Seeds: []uint64{seed, seed + 1, seed + 2}, Workers: runtime.GOMAXPROCS(0), Scale: p.sweepScale}
}

func sweepSettings(p params, seed uint64) map[string]any {
	opt := sweepOptions(p, seed)
	return map[string]any{
		"experiment": "fig8: Epidemic-Lifetime, SprayAndWait-Lifetime, MaxProp, PRoPHET x TTL 60..180 min",
		"scale":      opt.Scale, "seeds": opt.Seeds, "workers": opt.Workers,
		"cache": "experiments.ContactCache on disk, Mmap, warmed in set-up; a fresh cache value per sweep",
		"sink":  "experiments.JSONLSink to a file", "cycle": "one sweep", "job": "one sweep",
	}
}

// sweepFixture replays fig8 from a warm on-disk contact cache and checks
// every JSONL stream against the uncached sweep's bytes.
type sweepFixture struct {
	exp      experiments.Experiment
	opt      experiments.Options
	dir      string
	cacheDir string
	ref      []byte
	cells    int
	horizon  float64
	cases    []probeCase
	st       sweepStats
}

func setupSweep(o options, dir string, led *ledger) (fixture, error) {
	exp, ok := experiments.ByID("fig8")
	if !ok {
		return nil, errors.New("fig8 is not in the experiment catalog")
	}
	f := &sweepFixture{exp: exp, opt: sweepOptions(o.p, o.seed), dir: dir, cacheDir: filepath.Join(dir, "cache")}
	var ref bytes.Buffer
	if err := runSweep(exp, f.opt, &ref, nil, nil); err != nil {
		return nil, fmt.Errorf("uncached reference sweep: %w", err)
	}
	f.ref = ref.Bytes()
	if o.pinned() {
		var err error
		if d := digest(f.ref); d != sweepPinnedSHA256 {
			err = fmt.Errorf("fig8 seeds 1-3 JSONL sha256 %s, pinned %s", d, sweepPinnedSHA256)
		}
		led.check(err)
	}
	var err error
	if f.cases, err = sweepCases(exp, f.opt, f.ref); err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, len(f.cases))
	for i, c := range f.cases {
		cfgs[i] = c.cfg
	}
	cc := &experiments.ContactCache{Dir: f.cacheDir, Mmap: true}
	if err := cc.PrewarmContext(context.Background(), cfgs, f.opt.Workers); err != nil {
		return nil, err
	}
	if err := cc.Close(); err != nil {
		return nil, err
	}
	f.cells, f.horizon = len(cfgs), cfgs[0].Duration
	return f, nil
}

// sweepCases pairs every cell's configuration with its Result in the
// sweep's reference JSONL stream.
func sweepCases(exp experiments.Experiment, opt experiments.Options, ref []byte) ([]probeCase, error) {
	cfgs, err := experiments.CellConfigs(exp, opt)
	if err != nil {
		return nil, err
	}
	results, err := jsonlResults(ref)
	if err != nil {
		return nil, err
	}
	if len(results) != len(cfgs) {
		return nil, fmt.Errorf("reference stream has %d cells, the sweep %d", len(results), len(cfgs))
	}
	cases := make([]probeCase, len(cfgs))
	for i, cfg := range cfgs {
		cases[i] = probeCase{cfg: cfg, want: results[i]}
	}
	return cases, nil
}

// runSweep runs exp through an experiments.Runner streaming JSONL to w.
// With t set, an Observer and a timing sink wrapper record the
// experiments layer into st.
func runSweep(exp experiments.Experiment, opt experiments.Options, w io.Writer, t *tracer, st *sweepStats) error {
	cw := &countingWriter{w: w}
	r := experiments.Runner{Options: opt, Sink: experiments.NewJSONLSink(cw)}
	if t != nil {
		root := t.open("experiments.sweep", -1)
		r.Observer = sweepObserver{st: st, t: t, parent: root}
		r.Sink = timedSink{inner: r.Sink, st: st, t: t, parent: root}
		defer func() {
			wall := t.close(root)
			st.mu.Lock()
			defer st.mu.Unlock()
			st.sweeps++
			st.workers = opt.Workers
			st.wall += wall
			st.sinkBytes += cw.n
		}()
	}
	return r.Run(context.Background(), exp)
}

// jsonlResults decodes the cell Results of a JSONL sweep stream, in
// stream (aggregation) order.
func jsonlResults(stream []byte) ([]sim.Result, error) {
	var out []sim.Result
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var cell struct {
			Result *sim.Result `json:"result"`
		}
		if err := json.Unmarshal(line, &cell); err != nil {
			return nil, err
		}
		if cell.Result != nil {
			out = append(out, *cell.Result)
		}
	}
	return out, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (f *sweepFixture) cycle() int { return 1 }

func (f *sweepFixture) op(_ int, t *tracer) (opSample, error) {
	out := filepath.Join(f.dir, "fig8.jsonl")
	cc := &experiments.ContactCache{Dir: f.cacheDir, Mmap: true}
	opt := f.opt
	opt.ContactCache = cc

	start := time.Now()
	file, err := os.Create(out)
	if err != nil {
		return opSample{}, err
	}
	runErr := runSweep(f.exp, opt, file, t, &f.st)
	closeErr := file.Close()
	cacheErr := cc.Close()
	s := opSample{wall: time.Since(start), simSeconds: float64(f.cells) * f.horizon, cells: f.cells}
	if err := errors.Join(runErr, closeErr, cacheErr); err != nil {
		return s, err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return s, err
	}
	if !bytes.Equal(got, f.ref) {
		return s, errors.New("cached fig8 JSONL differs from the uncached sweep's bytes")
	}
	return s, nil
}

func (f *sweepFixture) probe(t *tracer) (layers, error) {
	lay, err := probeLayers(t, f.dir, f.cases)
	lay.sweep = &f.st
	return lay, err
}

func (f *sweepFixture) close() error { return nil }
