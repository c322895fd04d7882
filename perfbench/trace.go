package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/routing"
	"vdtn/internal/sim"
	"vdtn/internal/trace"
	"vdtn/internal/xrand"
)

// callID names one instrumented layer boundary: a routing.Router method
// or a core policy method.
type callID int

const (
	callRefresh callID = iota
	callContactUp
	callNextSend
	callReceive
	callAdd
	callOther // ContactDown, OnSent, OnAbort
	callOrder
	callVictim
	numCalls
)

var callNames = [numCalls]string{
	"routing.refresh", "routing.contactup", "routing.nextsend", "routing.receive",
	"routing.add", "routing.other", "core.order", "core.victim",
}

// span is one timed interval at a layer boundary. Parent indexes the
// enclosing span in the tracer's list, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// callStat aggregates every call of one callID: self time is the call's
// duration minus the instrumented calls nested inside it.
type callStat struct {
	calls       int64
	total, self time.Duration
}

type frame struct {
	id    callID
	start time.Time
	child time.Duration
}

// tracer records spans in memory and writes them out once, at the end.
// Coarse spans (runs, recordings, replays, sweep cells, sink calls, HTTP
// phases) are kept individually; the per-call routing and core spans,
// hundreds of thousands per paper run, are folded into callStats with
// their self times as they close. The call stack assumes the calls come
// from one goroutine at a time, which holds for a serial-scan simulation.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	stack []frame
	stats [numCalls]callStat
	// top is routing time at stack depth 0: the simulator's own calls
	// into routing, which is what sim.self_s subtracts.
	top       time.Duration
	nextEmpty int64
	orderMsgs int64

	events, evictions, expiries int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// resetCalls clears the folded call statistics and trace counters, so
// the layer probe reports only its own calls.
func (t *tracer) resetCalls() {
	t.stats = [numCalls]callStat{}
	t.top, t.nextEmpty, t.orderMsgs = 0, 0, 0
	t.events, t.evictions, t.expiries = 0, 0, 0
}

// add records a finished coarse span and returns its index.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), parent})
	return len(t.spans) - 1
}

// open starts a coarse span whose end is filled in by close; children
// may name it as their parent meanwhile.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

func (t *tracer) enter(id callID) {
	t.stack = append(t.stack, frame{id: id, start: time.Now()})
}

func (t *tracer) exit() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	st := &t.stats[f.id]
	st.calls++
	st.total += d
	st.self += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else {
		t.top += d
	}
}

// coreTime is the time spent in policy calls so far.
func (t *tracer) coreTime() time.Duration {
	return t.stats[callOrder].total + t.stats[callVictim].total
}

// self sums the self time of the calls in ids.
func (t *tracer) self(ids ...callID) time.Duration {
	var d time.Duration
	for _, id := range ids {
		d += t.stats[id].self
	}
	return d
}

// traceFunc counts simulation events through sim.Config.Trace.
func (t *tracer) traceFunc() trace.Func {
	return func(ev trace.Event) {
		t.events++
		switch ev.Kind {
		case trace.Dropped:
			t.evictions++
		case trace.Expired:
			t.expiries++
		}
	}
}

// write dumps the spans and the folded call statistics as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	type callOut struct {
		Calls  int64   `json:"calls"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	calls := map[string]callOut{}
	for id, st := range t.stats {
		calls[callNames[id]] = callOut{st.calls, st.total.Seconds(), st.self.Seconds()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Spans    []span             `json:"spans"`
		Calls    map[string]callOut `json:"probe_calls"`
	}{workload, seed, t.spans, calls})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedRouter times every routing.Router call into the wrapped router.
// It is installed through sim.Config.NewRouter, never around MaxProp or
// PRoPHET: those type-assert their peer's router.
type timedRouter struct {
	routing.Router
	t *tracer
}

func (r timedRouter) ContactUp(now float64, p routing.Peer) {
	r.t.enter(callContactUp)
	r.Router.ContactUp(now, p)
	r.t.exit()
}

func (r timedRouter) ContactDown(now float64, p routing.Peer) {
	r.t.enter(callOther)
	r.Router.ContactDown(now, p)
	r.t.exit()
}

func (r timedRouter) Refresh(now float64, p routing.Peer) {
	r.t.enter(callRefresh)
	r.Router.Refresh(now, p)
	r.t.exit()
}

func (r timedRouter) NextSend(now float64, p routing.Peer) *routing.Send {
	r.t.enter(callNextSend)
	s := r.Router.NextSend(now, p)
	r.t.exit()
	if s == nil {
		r.t.nextEmpty++
	}
	return s
}

func (r timedRouter) OnSent(now float64, p routing.Peer, s *routing.Send, delivered bool) {
	r.t.enter(callOther)
	r.Router.OnSent(now, p, s, delivered)
	r.t.exit()
}

func (r timedRouter) OnAbort(now float64, p routing.Peer, s *routing.Send) {
	r.t.enter(callOther)
	r.Router.OnAbort(now, p, s)
	r.t.exit()
}

func (r timedRouter) Receive(now float64, m *bundle.Message, from routing.Peer) (bool, []*bundle.Message) {
	r.t.enter(callReceive)
	ok, ev := r.Router.Receive(now, m, from)
	r.t.exit()
	return ok, ev
}

func (r timedRouter) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	r.t.enter(callAdd)
	ok, ev := r.Router.AddMessage(now, m)
	r.t.exit()
	return ok, ev
}

// timedSchedule and timedDrop time the policy calls inside a router.
type timedSchedule struct {
	core.SchedulingPolicy
	t *tracer
}

func (s timedSchedule) Order(now float64, msgs []*bundle.Message) {
	s.t.enter(callOrder)
	s.SchedulingPolicy.Order(now, msgs)
	s.t.exit()
	s.t.orderMsgs += int64(len(msgs))
}

type timedDrop struct {
	core.DropPolicy
	t *tracer
}

func (d timedDrop) Victim(now float64, msgs []*bundle.Message) int {
	d.t.enter(callVictim)
	i := d.DropPolicy.Victim(now, msgs)
	d.t.exit()
	return i
}

// decorate returns cfg with timing decorators installed through
// Config.NewRouter around the router and policy cfg would build itself,
// and with Trace counting events. ok is false for protocols or policies
// it cannot rebuild (MaxProp and PRoPHET above all); those keep their own
// router and only the event counter.
func decorate(cfg sim.Config, t *tracer) (out sim.Config, ok bool) {
	cfg.Trace = t.traceFunc()
	var build func(core.Policy) routing.Router
	switch cfg.Protocol {
	case sim.ProtoEpidemic:
		build = func(p core.Policy) routing.Router { return routing.NewEpidemic(p) }
	case sim.ProtoSprayAndWait:
		copies := cfg.SprayCopies
		build = func(p core.Policy) routing.Router { return routing.NewSprayAndWait(p, copies, true) }
	case sim.ProtoDirectDelivery:
		build = func(p core.Policy) routing.Router { return routing.NewDirectDelivery(p) }
	default:
		return cfg, false
	}
	var policy func(*xrand.Rand) core.Policy
	switch cfg.Policy {
	case sim.PolicyFIFOFIFO:
		policy = func(*xrand.Rand) core.Policy { return core.FIFOFIFO() }
	case sim.PolicyRandomFIFO:
		policy = core.RandomFIFO
	case sim.PolicyLifetime:
		policy = func(*xrand.Rand) core.Policy { return core.Lifetime() }
	default:
		return cfg, false
	}
	cfg.NewRouter = func(node int, rnd *xrand.Rand) routing.Router {
		p := policy(rnd)
		p.Schedule = timedSchedule{p.Schedule, t}
		p.Drop = timedDrop{p.Drop, t}
		return timedRouter{build(p), t}
	}
	return cfg, true
}
