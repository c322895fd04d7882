package wireless

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// seqRecorder captures the full interleaved transition sequence — kind,
// time and pair in firing order — so parallel-vs-serial comparisons check
// ordering, not just set membership.
type seqRecorder struct {
	seq []string
}

func (r *seqRecorder) ContactUp(now float64, a, b Entity) {
	r.seq = append(r.seq, fmt.Sprintf("up %v %d %d", now, a.ID(), b.ID()))
}

func (r *seqRecorder) ContactDown(now float64, a, b Entity) {
	r.seq = append(r.seq, fmt.Sprintf("down %v %d %d", now, a.ID(), b.ID()))
}

func parallelCfg(workers int) Config {
	c := testCfg()
	c.ScanWorkers = workers
	return c
}

// scanWorkerCounts is the worker matrix every parallel equivalence test
// runs against the serial baseline: the smallest parallel pool, an odd
// count (uneven block split), and more workers than most test fleets have
// movers (empty shards in the merge).
var scanWorkerCounts = []int{2, 3, 8}

// buildRandomFleet populates m with the randomized moving cloud from
// TestScanMatchesBruteForceOverTime: a mix of permanently-static hinted
// entities, parked-then-drifting entities, and free movers. The rng drives
// all geometry, so two media built from equal-seeded rngs host identical
// fleets.
func buildRandomFleet(m *Medium, rng *xrand.Rand, n int) {
	for i := 0; i < n; i++ {
		home := geo.Point{X: rng.Float64()*400 - 200, Y: rng.Float64()*400 - 200}
		switch i % 3 {
		case 0:
			m.Add(&hinted{id: i, at: home, until: math.Inf(1)})
		case 1:
			until := 5 + rng.Float64()*20
			vx, vy := rng.Float64()*8-4, rng.Float64()*8-4
			m.Add(&hinted{id: i, at: home, until: until, fn: func(now float64) geo.Point {
				return geo.Point{X: home.X + vx*(now-until), Y: home.Y + vy*(now-until)}
			}})
		default:
			vx, vy := rng.Float64()*10-5, rng.Float64()*10-5
			m.Add(&scripted{id: i, fn: func(now float64) geo.Point {
				return geo.Point{X: home.X + vx*now, Y: home.Y + vy*now}
			}})
		}
	}
}

// TestScanParallelMatchesSerialRandomFleets is the medium-level half of
// the parallel determinism contract: for every worker count, the full
// interleaved transition sequence over a randomized moving fleet equals
// the serial scan's, tick for tick, on both pair-discovery paths
// (pathSize).
func TestScanParallelMatchesSerialRandomFleets(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		n := pathSize(t, trial, 40+trial/2*17)
		run := func(workers int) (*Medium, *seqRecorder) {
			s := event.NewScheduler()
			m := NewMedium(s, parallelCfg(workers))
			rec := &seqRecorder{}
			m.SetHandler(rec)
			rng := xrand.New(900 + uint64(trial))
			buildRandomFleet(m, rng, n)
			m.Start(0)
			s.RunUntil(60)
			m.Stop()
			return m, rec
		}
		mSerial, serial := run(0)
		if err := mSerial.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range scanWorkerCounts {
			mPar, par := run(workers)
			if fmt.Sprint(par.seq) != fmt.Sprint(serial.seq) {
				t.Fatalf("trial %d: workers=%d transition sequence diverged from serial\nserial:   %v\nparallel: %v",
					trial, workers, serial.seq, par.seq)
			}
			if mPar.ContactsSeen != mSerial.ContactsSeen {
				t.Fatalf("trial %d: workers=%d ContactsSeen %d, serial %d",
					trial, workers, mPar.ContactsSeen, mSerial.ContactsSeen)
			}
			if err := mPar.CheckInvariants(); err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trial, workers, err)
			}
		}
	}
}

// TestScanParallelCellBoundaryClouds exercises the k-way merge under the
// adversarial geometry of TestScanRandomCellBoundaryClouds — coordinates
// snapped to cell-size multiples — with every node hopping between
// boundary positions each tick, so every tick is all movers, every shard
// boundary can split a cell cluster, and the merge sees maximal pair
// churn. Run under -race in CI, this doubles as the pool's data-race
// audit. Each parallel run is checked against brute force and against the
// serial sequence, on both pair-discovery paths (pathSize).
func TestScanParallelCellBoundaryClouds(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := 7700 + uint64(trial)
		n := pathSize(t, trial, 25+int(seed%20))
		// Deterministic boundary-snapped trajectory for node i: positions
		// are multiples of the 30 m cell size, re-drawn each tick from a
		// per-node stream so the fleet teleports between cell corners.
		posAt := func(i int, now float64) geo.Point {
			r := xrand.New(seed*1000 + uint64(i)*31 + uint64(now)*7)
			x := float64(r.IntN(9)-4) * 30
			y := float64(r.IntN(9)-4) * 30
			if r.IntN(3) == 0 {
				x += r.Float64() * 30
			}
			return geo.Point{X: x, Y: y}
		}
		run := func(workers int) *seqRecorder {
			s := event.NewScheduler()
			m := NewMedium(s, parallelCfg(workers))
			rec := &seqRecorder{}
			m.SetHandler(rec)
			for i := 0; i < n; i++ {
				i := i
				m.Add(&scripted{id: i, fn: func(now float64) geo.Point { return posAt(i, now) }})
			}
			m.Start(0)
			s.RunUntil(20)

			// Brute-force check of the final connected set.
			now := 20.0
			m.scan(now)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := posAt(i, now).Dist2(posAt(j, now)) <= 30*30
					if got := m.Connected(i, j); got != want {
						t.Fatalf("trial %d workers=%d: pair (%d,%d) connected=%v want %v",
							trial, workers, i, j, got, want)
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			m.Stop()
			return rec
		}
		serial := run(0)
		for _, workers := range scanWorkerCounts {
			if par := run(workers); fmt.Sprint(par.seq) != fmt.Sprint(serial.seq) {
				t.Fatalf("trial %d: workers=%d boundary-cloud sequence diverged from serial",
					trial, workers)
			}
		}
	}
}

// TestScanParallelSteadyStateAllocationFree extends the zero-alloc
// guarantee to the parallel path: once the shards and pool are warm, a
// quiet tick allocates nothing — dispatch is channel signals and atomics
// over persistent buffers.
func TestScanParallelSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := event.NewScheduler()
	m := NewMedium(s, parallelCfg(4))
	m.SetHandler(&recorder{})
	rng := xrand.New(5)
	for i := 0; i < 300; i++ {
		p := geo.Point{X: rng.Float64() * 600, Y: rng.Float64() * 600}
		if i%3 == 0 {
			phase := rng.Float64()
			m.Add(&scripted{id: i, fn: func(now float64) geo.Point {
				return geo.Point{X: p.X + math.Sin(now+phase), Y: p.Y}
			}})
		} else {
			m.Add(&hinted{id: i, at: p, until: math.Inf(1)})
		}
	}
	defer m.Stop()
	now := 0.0
	for i := 0; i < 12; i++ { // warm slices, shards and pool past any growth
		m.scan(now)
		now++
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.scan(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state parallel scan allocates %v per tick, want 0", allocs)
	}
}

// TestScanParallelStopReleasesWorkers pins the pool lifecycle: Stop ends
// the worker goroutines (no leak per medium — sweeps build thousands),
// and a later Start rebuilds the pool and keeps producing correct
// contacts.
func TestScanParallelStopReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := event.NewScheduler()
	m := NewMedium(s, parallelCfg(8))
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{}))
	m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
		return geo.Point{X: 10, Y: 0}
	}})
	m.Start(0)
	s.RunUntil(2.5)
	if !m.Connected(0, 1) {
		t.Fatal("not connected before stop")
	}
	m.Stop()
	// The workers exit asynchronously once their channels close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines after Stop: %d, want <= %d", got, before)
	}

	// Restart: the pool is rebuilt lazily and the scan still works.
	m.Start(s.Now())
	s.RunUntil(s.Now() + 2)
	if !m.Connected(0, 1) {
		t.Fatal("contact lost after stop/start cycle")
	}
	m.Stop()
}

// TestConfigValidateScanWorkers pins the config surface: negative worker
// counts are rejected, 0/1/many are accepted.
func TestConfigValidateScanWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 64} {
		c := testCfg()
		c.ScanWorkers = workers
		if err := c.Validate(); err != nil {
			t.Fatalf("ScanWorkers=%d: unexpected error %v", workers, err)
		}
	}
	c := testCfg()
	c.ScanWorkers = -1
	if err := c.Validate(); err == nil {
		t.Fatal("ScanWorkers=-1 accepted")
	}
}
