package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vdtn/internal/experiments"
	"vdtn/internal/service"
)

// The service job's spec and its byte-pinned JSONL stream for the spec's
// own seeds 1 and 2, relative to the checkout root.
const (
	gridSpec   = "examples/sweeps/grid.json"
	gridGolden = "testdata/grid_sweep_golden.jsonl"
)

func serviceSeeds(seed uint64) []uint64 { return []uint64{seed, seed + 1} }

func serviceSettings(p params, seed uint64) map[string]any {
	return map[string]any{
		"daemon":  "service.Open on a scratch data dir, service.NewHandler on a loopback listener, in-process",
		"spec":    gridSpec,
		"seeds":   serviceSeeds(seed),
		"client":  "one closed-loop client: POST /v1/jobs, follow /events to the terminal state, GET /results",
		"checked": "served results byte-equal the in-process Runner's JSONL, which equals " + gridGolden + " for seeds 1 and 2",
		"cycle":   "one job", "job": "submit to results served",
	}
}

// serviceFixture is a running vdtnd: the job manager behind its HTTP
// handler on a loopback port, and one client.
type serviceFixture struct {
	m      *service.Manager
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
	body   []byte // the POST /v1/jobs envelope
	ref    []byte
	cells  int
	dur    float64

	exp   experiments.Experiment
	opt   experiments.Options
	dir   string
	cases []probeCase
	svc   serviceStats
}

func setupService(o options, dir string, led *ledger) (fixture, error) {
	spec, err := os.ReadFile(filepath.Join(o.root, gridSpec))
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(o.root, gridGolden))
	if err != nil {
		return nil, err
	}
	exp, err := experiments.LoadSpec(spec)
	if err != nil {
		return nil, err
	}
	// The in-process Runner must reproduce the pinned stream for the
	// spec's own seeds; its output for the benchmark's seeds is then the
	// reference every served result is held to.
	var pinned bytes.Buffer
	if err := runSweep(exp, experiments.Options{Workers: runtime.GOMAXPROCS(0)}, &pinned, nil, nil); err != nil {
		return nil, err
	}
	var gerr error
	if !bytes.Equal(pinned.Bytes(), golden) {
		gerr = fmt.Errorf("in-process grid sweep differs from %s", gridGolden)
	}
	led.check(gerr)
	f := &serviceFixture{exp: exp, dir: dir, served: make(chan error, 1)}
	f.opt = experiments.Options{Seeds: serviceSeeds(o.seed), Workers: runtime.GOMAXPROCS(0)}
	var ref bytes.Buffer
	if err := runSweep(exp, f.opt, &ref, nil, nil); err != nil {
		return nil, err
	}
	f.ref = ref.Bytes()
	if f.cases, err = sweepCases(exp, f.opt, f.ref); err != nil {
		return nil, err
	}
	f.cells, f.dur = len(f.cases), f.cases[0].cfg.Duration

	f.body, err = json.Marshal(struct {
		Spec    json.RawMessage `json:"spec"`
		Options service.Options `json:"options"`
	}{spec, service.Options{Seeds: f.opt.Seeds}})
	if err != nil {
		return nil, err
	}
	if f.m, err = service.Open(service.Config{DataDir: filepath.Join(dir, "vdtnd")}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.m.Close()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: service.NewHandler(f.m)}
	go func() { f.served <- f.srv.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	return f, nil
}

func (f *serviceFixture) cycle() int { return 1 }

// op is one job, submit to results served, as a caller blocked on
// `vdtnd ctl wait` sees it. Traced, it also times each phase and reads
// the job's Meta afterwards.
func (f *serviceFixture) op(_ int, t *tracer) (opSample, error) {
	s := opSample{simSeconds: float64(f.cells) * f.dur, cells: f.cells}
	start := time.Now()
	resp, err := f.client.Post(f.base+"/v1/jobs", "application/json", bytes.NewReader(f.body))
	if err != nil {
		return s, err
	}
	var meta service.Meta
	err = decodeJSON(resp, http.StatusCreated, &meta)
	submitted := time.Now()
	if err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}

	state, events, dropped, firstEvent, err := f.follow(meta.ID)
	if err != nil {
		return s, err
	}
	followed := time.Now()
	resp, err = f.client.Get(f.base + "/v1/jobs/" + meta.ID + "/results")
	if err != nil {
		return s, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	s.wall = end.Sub(start)
	if err != nil {
		return s, err
	}
	if state != service.StateDone || resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("job %s ended %s, results status %d", meta.ID, state, resp.StatusCode)
	}
	if !bytes.Equal(got, f.ref) {
		return s, fmt.Errorf("job %s served results differ from the reference stream", meta.ID)
	}
	if t == nil {
		return s, nil
	}

	root := t.add("service.job", -1, start, end)
	t.add("service.submit", root, start, submitted)
	t.add("service.events", root, submitted, followed)
	t.add("service.results_get", root, followed, end)
	resp, err = f.client.Get(f.base + "/v1/jobs/" + meta.ID)
	if err != nil {
		return s, err
	}
	if err := decodeJSON(resp, http.StatusOK, &meta); err != nil {
		return s, err
	}
	if meta.StartedAt == nil {
		return s, fmt.Errorf("job %s has no start time", meta.ID)
	}
	run := meta.ElapsedSec * 1000
	v := &f.svc
	v.submitMs = append(v.submitMs, ms(submitted.Sub(start)))
	v.queueWaitMs = append(v.queueWaitMs, ms(meta.StartedAt.Sub(meta.SubmittedAt)))
	v.runMs = append(v.runMs, run)
	v.overheadMs = append(v.overheadMs, ms(end.Sub(start))-run)
	v.firstEventMs = append(v.firstEventMs, ms(firstEvent.Sub(submitted)))
	v.resultsGetMs = append(v.resultsGetMs, ms(end.Sub(followed)))
	v.events += events
	v.dropped += dropped
	return s, nil
}

// follow reads the job's NDJSON event stream to its end (the job's
// terminal state) and returns that state, the number of events after the
// snapshot line, the events the daemon reported dropped, and when the
// first event arrived.
func (f *serviceFixture) follow(id string) (service.State, int, int, time.Time, error) {
	var first time.Time
	resp, err := f.client.Get(f.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, 0, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, 0, first, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return "", 0, 0, first, fmt.Errorf("events: empty stream: %v", sc.Err())
	}
	var snap struct {
		Job service.Meta `json:"job"`
	}
	if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
		return "", 0, 0, first, err
	}
	state, events, dropped := snap.Job.State, 0, 0
	for sc.Scan() {
		if events == 0 {
			first = time.Now()
		}
		events++
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", 0, 0, first, err
		}
		if ev.State != "" {
			state = ev.State
		}
		dropped += ev.Dropped
	}
	if first.IsZero() {
		first = time.Now()
	}
	return state, events, dropped, first, sc.Err()
}

func decodeJSON(resp *http.Response, status int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body) // for the message only
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// probe takes the job's cells apart like the other workloads, and runs
// the job's sweep once through an in-process Runner with the Observer and
// sink wrapper on — the same experiments code the daemon drives.
func (f *serviceFixture) probe(t *tracer) (layers, error) {
	lay, err := probeLayers(t, f.dir, f.cases)
	var st sweepStats
	var buf bytes.Buffer
	serr := runSweep(f.exp, f.opt, &buf, t, &st)
	if serr == nil && !bytes.Equal(buf.Bytes(), f.ref) {
		serr = errors.New("traced in-process grid sweep differs from the untraced stream")
	}
	lay.sweep, lay.svc = &st, &f.svc
	return lay, errors.Join(err, serr)
}

// close stops the HTTP server and the job manager and waits for both.
func (f *serviceFixture) close() error {
	err := f.srv.Close()
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.m.Close()
	f.client.CloseIdleConnections()
	return err
}
