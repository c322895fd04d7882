package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vdtn/internal/experiments"
	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/wireless"
)

// probeCase is one simulation the layer probe takes apart: its live
// configuration and the untraced Result it must reproduce.
type probeCase struct {
	cfg  sim.Config
	want sim.Result
}

// caseSplit is one probed run's time split across the layers.
type caseSplit struct {
	label                         string
	record, replay, routing, core time.Duration
	decorated                     bool
}

// layers holds a traced run's per-layer measurements beyond the tracer's
// folded call statistics.
type layers struct {
	recordS, ticks   float64
	contacts         int
	started, aborted uint64
	viewOpenMs       []float64
	decodeMs         []float64
	occupancy        []float64
	splits           []caseSplit
	overhead         float64
	sweep            *sweepStats   // experiments layer; nil if unused
	svc              *serviceStats // service layer; nil if unused
}

// probeLayers takes each case apart from outside the program: it times
// sim.RecordContacts (mobility and scan, no routing) once per distinct
// contact process, times opening the encoded trace as an mmap view
// against decoding it, then replays the case with timing decorators on
// the router and policies and checks the replay reproduces the untraced
// Result. Cases run one at a time, so the tracer's call stack is never
// shared between goroutines.
func probeLayers(t *tracer, dir string, cases []probeCase) (layers, error) {
	var lay layers
	root := t.open("probe", -1)
	defer t.close(root)
	recs := map[string]*wireless.Recording{}
	recTime := map[string]time.Duration{}
	var errs []error
	for _, c := range cases {
		label := c.cfg.Label()
		split := caseSplit{label: label}
		fp := scenario.ContactFingerprint(c.cfg)
		rec := recs[fp]
		if rec == nil {
			start := time.Now()
			r, err := sim.RecordContacts(c.cfg)
			end := time.Now()
			if err != nil {
				return lay, fmt.Errorf("record %s: %w", label, err)
			}
			t.add("wireless.record", root, start, end)
			recTime[fp] = end.Sub(start)
			lay.recordS += end.Sub(start).Seconds()
			lay.ticks += c.cfg.Duration / c.cfg.ScanInterval
			for _, tr := range r.Transitions {
				if tr.Up {
					lay.contacts++
				}
			}
			path := filepath.Join(dir, fmt.Sprintf("probe%d.contactsb", len(recs)))
			if err := lay.codec(t, root, path, r); err != nil {
				return lay, err
			}
			recs[fp] = r
			rec = r
		}

		split.record = recTime[fp]
		cfg, decorated := decorate(c.cfg, t)
		cfg.ContactSource = sim.ContactReplay
		cfg.Recording = rec
		w, err := sim.New(cfg)
		if err != nil {
			return lay, fmt.Errorf("replay %s: %w", label, err)
		}
		top, core := t.top, t.coreTime()
		start := time.Now()
		res := w.Run()
		end := time.Now()
		t.add("sim.replay", root, start, end)
		split.replay, split.routing, split.decorated = end.Sub(start), t.top-top, decorated
		split.core = t.coreTime() - core
		lay.splits = append(lay.splits, split)

		res.Label = label // NewRouter relabels the run "custom"
		if res != c.want {
			errs = append(errs, fmt.Errorf("traced replay of %s seed %d differs from the untraced result", label, c.cfg.Seed))
		}
		lay.started += res.TransfersStarted
		lay.aborted += res.TransfersAborted
		lay.occupancy = append(lay.occupancy, res.MeanBufferOccupancy)
	}
	return lay, errors.Join(errs...)
}

// codec writes rec in the binary format the contact cache persists, then
// times mapping it as a RecordingView against reading and decoding it.
func (lay *layers) codec(t *tracer, parent int, path string, rec *wireless.Recording) error {
	if err := os.WriteFile(path, wireless.EncodeBinary(rec), 0o644); err != nil {
		return err
	}
	start := time.Now()
	v, err := wireless.OpenRecordingView(path)
	if err != nil {
		return err
	}
	n := v.Len()
	if err := v.Close(); err != nil {
		return err
	}
	mid := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec, err := wireless.DecodeRecording(data)
	if err != nil {
		return err
	}
	end := time.Now()
	if n != len(rec.Transitions) || len(dec.Transitions) != n {
		return fmt.Errorf("codec round trip of %s lost transitions", path)
	}
	t.add("wireless.view_open", parent, start, mid)
	t.add("wireless.decode", parent, mid, end)
	lay.viewOpenMs = append(lay.viewOpenMs, ms(mid.Sub(start)))
	lay.decodeMs = append(lay.decodeMs, ms(end.Sub(mid)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sweepStats is the experiments layer seen through an Observer and a
// timing ResultSink wrapper, summed over traced sweeps.
type sweepStats struct {
	mu                      sync.Mutex
	sweeps, workers         int
	wall, busy, load, sink  time.Duration
	cellMs                  []float64
	hits, loads, recordings int
	sinkBytes               int64
}

type sweepObserver struct {
	experiments.BaseObserver
	st     *sweepStats
	t      *tracer
	parent int
}

func (o sweepObserver) CellFinished(_ experiments.CellID, elapsed time.Duration, _ error) {
	end := time.Now()
	o.t.add("experiments.cell", o.parent, end.Add(-elapsed), end)
	o.st.mu.Lock()
	defer o.st.mu.Unlock()
	o.st.cellMs = append(o.st.cellMs, ms(elapsed))
	o.st.busy += elapsed
}

func (o sweepObserver) CacheEvent(ev experiments.CacheEvent) {
	o.st.mu.Lock()
	defer o.st.mu.Unlock()
	switch ev.Kind {
	case experiments.CacheHit:
		o.st.hits++
	case experiments.CacheHitDisk:
		o.st.loads++
		o.st.load += ev.Elapsed
	case experiments.CacheRecorded:
		o.st.recordings++
	}
}

// timedSink times every call into the wrapped sink.
type timedSink struct {
	inner  experiments.ResultSink
	st     *sweepStats
	t      *tracer
	parent int
}

func (s timedSink) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	s.t.add(name, s.parent, start, end)
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	s.st.sink += end.Sub(start)
	return err
}

func (s timedSink) Start(exp experiments.Experiment, opt experiments.Options) error {
	return s.timed("experiments.sink.start", func() error { return s.inner.Start(exp, opt) })
}

func (s timedSink) Cell(c experiments.CellResult) error {
	return s.timed("experiments.sink.cell", func() error { return s.inner.Cell(c) })
}

func (s timedSink) Finish(runErr error) error {
	return s.timed("experiments.sink.finish", func() error { return s.inner.Finish(runErr) })
}

// countingWriter counts the bytes a sink writes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// serviceStats is the daemon seen from its client, per traced job.
type serviceStats struct {
	submitMs, queueWaitMs, runMs, overheadMs, firstEventMs, resultsGetMs []float64
	events, dropped                                                      int
}

// perLayer derives the per-layer metrics of a traced run and prints them
// all; the returned list is what the result line carries. Metrics of a
// layer the workload does not run print as n/a and stay out of the list.
func perLayer(t *tracer, lay layers, out io.Writer) []named {
	st := func(id callID) callStat { return t.stats[id] }
	started := float64(lay.started)
	// sim.self_s covers the decorated runs only: MaxProp and PRoPHET
	// routing time cannot be separated from their replays.
	var replay, simSelf time.Duration
	for _, s := range lay.splits {
		replay += s.replay
		if s.decorated {
			simSelf += s.replay - s.routing
		}
	}
	m := []named{
		{"wireless.record_s", lay.recordS, "s"},
		{"wireless.scan_us_per_tick", ratio(lay.recordS*1e6, lay.ticks), "us"},
		{"wireless.contacts", float64(lay.contacts), "count"},
		{"wireless.transfers_started", started, "count"},
		{"wireless.abort_frac", ratio(float64(lay.aborted), started), "ratio"},
		{"wireless.view_open_ms", mean(lay.viewOpenMs), "ms"},
		{"wireless.decode_ms", mean(lay.decodeMs), "ms"},
		{"routing.refresh_calls", float64(st(callRefresh).calls), "count"},
		{"routing.refresh_s", st(callRefresh).total.Seconds(), "s"},
		{"routing.contactup_s", st(callContactUp).total.Seconds(), "s"},
		{"routing.nextsend_calls", float64(st(callNextSend).calls), "count"},
		{"routing.nextsend_s", st(callNextSend).total.Seconds(), "s"},
		{"routing.nextsend_empty_frac", ratio(float64(t.nextEmpty), float64(st(callNextSend).calls)), "ratio"},
		{"routing.receive_s", st(callReceive).total.Seconds(), "s"},
		{"routing.add_s", st(callAdd).total.Seconds(), "s"},
		{"routing.refresh_per_transfer", ratio(float64(st(callRefresh).calls), started), "ratio"},
		{"routing.self_s", t.self(callRefresh, callContactUp, callNextSend, callReceive, callAdd, callOther).Seconds(), "s"},
		{"core.order_calls", float64(st(callOrder).calls), "count"},
		{"core.order_msgs", float64(t.orderMsgs), "count"},
		{"core.order_s", st(callOrder).total.Seconds(), "s"},
		{"core.victim_calls", float64(st(callVictim).calls), "count"},
		{"core.victim_s", st(callVictim).total.Seconds(), "s"},
		{"buffer.evictions", float64(t.evictions), "count"},
		{"buffer.expiries", float64(t.expiries), "count"},
		{"buffer.mean_occupancy", mean(lay.occupancy), "ratio"},
		{"sim.replay_s", replay.Seconds(), "s"},
		{"sim.self_s", simSelf.Seconds(), "s"},
		{"sim.trace_events", float64(t.events), "count"},
		{"bench.trace_overhead_frac", lay.overhead, "ratio"},
	}
	var na []string
	if s := lay.sweep; s != nil && s.sweeps > 0 {
		tail, pct := tailOf(s.cellMs)
		sw := float64(s.sweeps)
		m = append(m,
			named{"experiments.cell_p50_ms", median(s.cellMs), "ms"},
			named{"experiments.cell_tail_ms", tail, "ms"},
			named{"experiments.worker_busy_frac", ratio(s.busy.Seconds(), s.wall.Seconds()*float64(s.workers)), "ratio"},
			named{"experiments.cache_hits", float64(s.hits) / sw, "count"},
			named{"experiments.cache_loads", float64(s.loads) / sw, "count"},
			named{"experiments.recordings", float64(s.recordings) / sw, "count"},
			named{"experiments.cache_load_ms", ms(s.load) / sw, "ms"},
			named{"experiments.sink_ms", ms(s.sink) / sw, "ms"},
			named{"experiments.sink_bytes", float64(s.sinkBytes) / sw, "bytes"},
		)
		fmt.Fprintf(out, "experiments: %d traced sweeps, %d cells, cell tail = p%.1f\n", s.sweeps, len(s.cellMs), pct)
	} else {
		na = append(na, "experiments.*")
	}
	if s := lay.svc; s != nil && len(s.submitMs) > 0 {
		jobs := float64(len(s.submitMs))
		m = append(m,
			named{"service.submit_ms", median(s.submitMs), "ms"},
			named{"service.queue_wait_ms", median(s.queueWaitMs), "ms"},
			named{"service.run_ms", median(s.runMs), "ms"},
			named{"service.overhead_ms", median(s.overheadMs), "ms"},
			named{"service.first_event_ms", median(s.firstEventMs), "ms"},
			named{"service.results_get_ms", median(s.resultsGetMs), "ms"},
			named{"service.events", float64(s.events) / jobs, "count"},
			named{"service.events_dropped", float64(s.dropped), "count"},
		)
		fmt.Fprintf(out, "service: %d traced jobs (medians per job)\n", len(s.submitMs))
	} else {
		na = append(na, "service.*")
	}
	for _, x := range m {
		fmt.Fprintf(out, "%-30s %16.6f %s\n", x.name, x.value, x.unit)
	}
	for _, n := range na {
		fmt.Fprintf(out, "%-30s %16s (layer not on this workload's path)\n", n, "n/a")
	}
	for _, s := range lay.splits {
		if !s.decorated {
			fmt.Fprintf(out, "split %-44s record %.3fs  replay %.3fs (router not decorated)\n", s.label, s.record.Seconds(), s.replay.Seconds())
			continue
		}
		fmt.Fprintf(out, "split %-44s record %.3fs  replay %.3fs = routing self %.3fs + core %.3fs + sim.self %.3fs\n",
			s.label, s.record.Seconds(), s.replay.Seconds(), (s.routing - s.core).Seconds(), s.core.Seconds(), (s.replay - s.routing).Seconds())
	}
	return inResultLine(m)
}
