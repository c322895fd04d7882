package main

import (
	"errors"
	"fmt"
	"time"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
)

// paperFingerprint is the repository's pinned contact fingerprint of the
// seed-1 paper scenario.
const paperFingerprint = "7738a602549c75fc"

// pinnedRun is a run's headline counts, recorded from the repository for
// seed 1 at the default sizes.
type pinnedRun struct {
	delivered                  int
	contacts, transfersStarted uint64
}

var paperPinned = map[sim.PolicyKind]pinnedRun{
	sim.PolicyFIFOFIFO:   {1513, 3648, 27892},
	sim.PolicyRandomFIFO: {1584, 3648, 31615},
	sim.PolicyLifetime:   {1663, 3648, 37863},
}

var fleetPinned = pinnedRun{25, 190197, 27}

var tableI = []sim.PolicyKind{sim.PolicyFIFOFIFO, sim.PolicyRandomFIFO, sim.PolicyLifetime}

// paperSeeds are the simulation seeds of benchmark seed s: three, disjoint
// between benchmark seeds, because one paper run's cost moves by about 13%
// from seed to seed. Benchmark seed 1 simulates seeds 1, 2 and 3.
func paperSeeds(s uint64) []uint64 { return []uint64{3*s - 2, 3*s - 1, 3 * s} }

func paperConfigs(p params, seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, s := range paperSeeds(seed) {
		for _, pol := range tableI {
			c := sim.PaperConfig(120, sim.ProtoEpidemic, pol, s)
			c.Duration *= p.paperScale
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func fleetConfig(p params, seed uint64) sim.Config {
	c := sim.PaperConfig(120, sim.ProtoDirectDelivery, sim.PolicyFIFOFIFO, seed)
	c.Vehicles = p.fleetVehicles
	c.Duration = units.Hours(p.fleetHours)
	return c
}

func paperSettings(p params, seed uint64) map[string]any {
	c := paperConfigs(p, seed)[0]
	return map[string]any{
		"scenario": "sim.PaperConfig: Epidemic, TTL 120 min, live contacts, serial scan",
		"policies": []string{"FIFO-FIFO", "Random-FIFO", "LifetimeDESC-LifetimeASC"},
		"nodes":    c.Vehicles + c.Relays, "duration_s": c.Duration, "sim_seeds": paperSeeds(seed),
		"cycle": "one run per policy and simulation seed", "job": "the nine runs of one cycle",
	}
}

func fleetSettings(p params, seed uint64) map[string]any {
	c := fleetConfig(p, seed)
	return map[string]any{
		"scenario": "paper map and radios, DirectDelivery FIFO-FIFO, TTL 120 min, live contacts, serial scan",
		"vehicles": c.Vehicles, "relays": c.Relays, "duration_s": c.Duration, "sim_seed": seed,
		"cycle": "one run", "job": "one run",
	}
}

// simFixture runs live simulations and checks each against the replay of
// its recorded contact trace — a repository invariant.
type simFixture struct {
	dir   string
	cases []probeCase
}

func setupPaper(o options, dir string, led *ledger) (fixture, error) {
	f, err := newSimFixture(dir, paperConfigs(o.p, o.seed))
	if err != nil || !o.pinned() {
		return f, err
	}
	var errs []error
	if fp := scenario.ContactFingerprint(f.cases[0].cfg); fp != paperFingerprint {
		errs = append(errs, fmt.Errorf("paper contact fingerprint %s, want %s", fp, paperFingerprint))
	}
	for _, c := range f.cases[:len(tableI)] { // simulation seed 1
		errs = append(errs, checkPinned(c.want, paperPinned[c.cfg.Policy]))
	}
	led.check(errors.Join(errs...))
	return f, nil
}

func setupFleet(o options, dir string, led *ledger) (fixture, error) {
	f, err := newSimFixture(dir, []sim.Config{fleetConfig(o.p, o.seed)})
	if err != nil || !o.pinned() {
		return f, err
	}
	led.check(checkPinned(f.cases[0].want, fleetPinned))
	return f, nil
}

func checkPinned(r sim.Result, want pinnedRun) error {
	got := pinnedRun{r.Delivered, r.Contacts, r.TransfersStarted}
	if got != want {
		return fmt.Errorf("%s seed %d: delivered/contacts/transfers started %v, pinned %v", r.Label, r.Seed, got, want)
	}
	return nil
}

// newSimFixture records each distinct contact process once and replays
// every config from it: the replayed Results are the references the live
// runs must equal.
func newSimFixture(dir string, cfgs []sim.Config) (*simFixture, error) {
	f := &simFixture{dir: dir}
	recs := map[string]*wireless.Recording{}
	for _, cfg := range cfgs {
		fp := scenario.ContactFingerprint(cfg)
		rec := recs[fp]
		if rec == nil {
			var err error
			if rec, err = sim.RecordContacts(cfg); err != nil {
				return nil, err
			}
			recs[fp] = rec
		}
		rc := cfg
		rc.ContactSource = sim.ContactReplay
		rc.Recording = rec
		w, err := sim.New(rc)
		if err != nil {
			return nil, err
		}
		f.cases = append(f.cases, probeCase{cfg: cfg, want: w.Run()})
	}
	return f, nil
}

func (f *simFixture) cycle() int { return len(f.cases) }

func (f *simFixture) op(k int, t *tracer) (opSample, error) {
	c := f.cases[k]
	cfg := c.cfg
	if t != nil {
		cfg, _ = decorate(cfg, t)
	}
	start := time.Now()
	w, err := sim.New(cfg)
	if err != nil {
		return opSample{}, err
	}
	res := w.Run()
	end := time.Now()
	if t != nil {
		t.add("sim.live", -1, start, end)
	}
	s := opSample{wall: end.Sub(start), simSeconds: cfg.Duration, cells: 1}
	res.Label = c.cfg.Label()
	if res != c.want {
		return s, fmt.Errorf("live %s seed %d differs from its contact-trace replay", res.Label, res.Seed)
	}
	return s, nil
}

func (f *simFixture) probe(t *tracer) (layers, error) { return probeLayers(t, f.dir, f.cases) }

func (f *simFixture) close() error { return nil }
