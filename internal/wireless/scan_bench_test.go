package wireless

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// benchMoverFrac is the fraction of entities in motion at any instant in
// the scan benchmarks. The paper's walkers pause 5-15 minutes between
// trips of a few minutes, so well under half the fleet moves at once.
const benchMoverFrac = 0.3

// parked is a benchmark entity that never moves. It carries the static
// hint, like the scenario's stationary relays and paused walkers do, so
// the scan benchmarks exercise the static-skip path.
type parked struct {
	id int
	at geo.Point
}

func (p *parked) ID() int                     { return p.id }
func (p *parked) Position(float64) geo.Point  { return p.at }
func (p *parked) StaticUntil(float64) float64 { return math.Inf(1) }

// drifter oscillates around a home point, staying inside its neighbourhood
// so the scenario's contact density is stable over any benchmark horizon.
type drifter struct {
	id   int
	home geo.Point
	amp  float64
	ph   float64
}

func (d *drifter) ID() int { return d.id }
func (d *drifter) Position(now float64) geo.Point {
	// Triangle wave: cheap, deterministic, bounded.
	t := math.Mod(now*0.05+d.ph, 2)
	if t > 1 {
		t = 2 - t
	}
	return geo.Point{X: d.home.X + d.amp*(2*t-1), Y: d.home.Y}
}

// seedFleet populates m with the benchmark fleet: n entities at roughly
// constant contact density (mean degree ~6), benchMoverFrac of them
// moving. Deterministic in n, so media built with different configs host
// identical fleets.
func seedFleet(m *Medium, n int) {
	rng := xrand.New(uint64(n))
	side := math.Sqrt(float64(n) / 0.0025) // ~7 neighbours in a 30 m disk
	for i := 0; i < n; i++ {
		p := geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		if float64(i%100) < benchMoverFrac*100 {
			m.Add(&drifter{id: i, home: p, amp: 60, ph: rng.Float64() * 2})
		} else {
			m.Add(&parked{id: i, at: p})
		}
	}
}

// benchMedium builds a serial-scan medium over the benchmark fleet.
func benchMedium(n int) (*event.Scheduler, *Medium) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	seedFleet(m, n)
	return s, m
}

var benchSizes = []int{1000, 10000, 100000}

func skipLargeInShort(b *testing.B, n int) {
	if testing.Short() && n > 10000 {
		b.Skipf("n=%d skipped in short mode", n)
	}
}

// BenchmarkScan measures one tick of the incremental live scan at steady
// state: static entities carried from the previous tick, movers re-hashed
// through the persistent grid, transitions diffed from sorted pair sets.
func BenchmarkScan(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			now := 0.0
			m.scan(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				m.scan(now)
			}
		})
	}
}

// BenchmarkScanReference measures the pre-refactor full-rescan path on the
// same fleet — every position re-queried, grid and pair set rebuilt from
// scratch each tick — kept in-tree as the before leg of the comparison.
func BenchmarkScanReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			m.scan(0)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				m.scanReference(now)
			}
		})
	}
}

// BenchmarkPeersOf measures the per-call cost of the neighbour query the
// routers issue on every pump: now a cached-slice return, O(degree).
func BenchmarkPeersOf(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			m.scan(0)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += len(m.PeersOf(i % n))
			}
			_ = sum
		})
	}
}

// benchReplayRecording builds a synthetic n-node trace: every adjacent pair
// cycles through two contact windows over a 60-tick horizon.
func benchReplayRecording(n int) *Recording {
	rec := &Recording{ScanInterval: 1, Duration: 70}
	for t := 1; t <= 60; t++ {
		up := (t/10)%2 == 1
		for p := t % 10; p < n/2; p += 10 {
			rec.Transitions = append(rec.Transitions,
				Transition{Time: float64(t), A: 2 * p, B: 2*p + 1, Up: up})
		}
	}
	return rec
}

// BenchmarkReplay measures a full replay-driven run (70 ticks, ~3n
// transitions), the adjacency cache maintained throughout.
func BenchmarkReplay(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			rec := benchReplayRecording(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := event.NewScheduler()
				m := NewMedium(s, testCfg())
				m.SetHandler(&recorder{})
				for id := 0; id < n; id++ {
					m.Add(&parked{id: id})
				}
				b.StartTimer()
				m.StartReplay(0, rec)
				s.RunUntil(70)
			}
		})
	}
}

// TestScanSpeedupArtifact measures the incremental scan against the
// retained full-rescan reference at 1k/10k/100k nodes and logs the
// comparison (go test -v shows it). It enforces the scan's performance
// contract:
//
//   - the incremental scan beats the full rescan >=5x at 100k nodes;
//   - PeersOf performs zero allocations per call (it no longer walks the
//     global contact map);
//   - a steady-state scan tick with no transitions performs zero
//     allocations.
func TestScanSpeedupArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("timing measurement meaningless under the race detector")
	}
	tickAvg := func(ticks int, f func(now float64)) float64 {
		start := time.Now()
		for i := 1; i <= ticks; i++ {
			f(float64(i))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ticks)
	}

	var speedup100k float64
	for _, bench := range []struct {
		n     int
		tag   string
		ticks int
	}{{1000, "1k", 40}, {10000, "10k", 12}, {100000, "100k", 4}} {
		_, m := benchMedium(bench.n)
		m.scan(0)
		refNs := tickAvg(bench.ticks, func(now float64) { m.scanReference(now) })

		// Fresh medium for the incremental leg so mobility time queries
		// stay non-decreasing from a clean slate. Collect the reference
		// leg's garbage first: the incremental scan allocates almost
		// nothing itself, so without this its measurement pays the GC
		// bill the full rescans ran up.
		_, m = benchMedium(bench.n)
		m.scan(0)
		runtime.GC()
		newNs := tickAvg(bench.ticks*4, func(now float64) { m.scan(now) })

		su := refNs / newNs
		t.Logf("%s nodes: full rescan %.0f ns/tick, incremental scan %.0f ns/tick (%.2fx)",
			bench.tag, refNs, newNs, su)
		if bench.n == 100000 {
			speedup100k = su
		}

		// PeersOf timing + the zero-alloc acceptance criterion.
		calls := 100000
		start := time.Now()
		sum := 0
		for i := 0; i < calls; i++ {
			sum += len(m.PeersOf(i % bench.n))
		}
		t.Logf("%s nodes: PeersOf %d ns/call", bench.tag, time.Since(start).Nanoseconds()/int64(calls))
		if sum == 0 {
			t.Fatalf("n=%d: no contacts in benchmark fleet", bench.n)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			m.PeersOf(7)
		}); allocs != 0 {
			t.Fatalf("n=%d: PeersOf allocates %v per call, want 0", bench.n, allocs)
		}
	}

	// Steady-state scan allocations: a quiet tick must not allocate. The
	// benchMedium fleets transition every tick (that's the point of the
	// scan benchmarks), so this check uses a fleet constructed never to
	// transition: a 20 m lattice (orthogonal pairs at 20 m, diagonals at
	// ~28.3 m, next ring >= 39 m) whose movers oscillate +-0.5 m — every
	// pair distance stays strictly on its side of the 30 m threshold.
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	id := 0
	for gx := 0; gx < 100; gx++ {
		for gy := 0; gy < 100; gy++ {
			p := geo.Point{X: float64(gx) * 20, Y: float64(gy) * 20}
			if id%3 == 0 {
				ph := float64(id) * 0.1
				m.Add(&scripted{id: id, fn: func(now float64) geo.Point {
					return geo.Point{X: p.X + 0.5*math.Sin(now+ph), Y: p.Y}
				}})
			} else {
				m.Add(&parked{id: id, at: p})
			}
			id++
		}
	}
	now := 0.0
	for i := 0; i < 8; i++ {
		m.scan(now)
		now++
	}
	scanAllocs := testing.AllocsPerRun(20, func() {
		m.scan(now)
		now++
	})
	if scanAllocs != 0 {
		t.Fatalf("steady-state scan allocates %v per tick, want 0", scanAllocs)
	}

	if speedup100k < 5 {
		t.Fatalf("scan speedup vs full rescan at 100k nodes = %.2fx, want >=5x", speedup100k)
	}
}

// helsinkiMedium builds a serial-scan medium with n entities spread
// uniformly over a box the size of the paper's Helsinki map (4500 x 3400 m,
// about 19k padded cells at the 30 m range), benchMoverFrac of them
// moving. At this spread the grid stays on its sparse map up to ~2.3k
// entities, as on the paper map itself.
func helsinkiMedium(n int) *Medium {
	m := NewMedium(event.NewScheduler(), testCfg())
	m.SetHandler(&recorder{})
	rng := xrand.New(uint64(n))
	for i := 0; i < n; i++ {
		p := geo.Point{X: rng.Float64() * 4500, Y: rng.Float64() * 3400}
		if float64(i%100) < benchMoverFrac*100 {
			m.Add(&drifter{id: i, home: p, amp: 60, ph: rng.Float64() * 2})
		} else {
			m.Add(&parked{id: i, at: p})
		}
	}
	return m
}

// TestScanPathCrossover measures the two pair-discovery paths of
// findPairs on paper-map fleets of 16-512 entities and logs where the grid
// walk starts to beat the direct all-entities check (go test -v shows
// it); directPairsMax is chosen from this crossover. Only the path
// agreement is asserted: timings are logged, never gated, and nothing is
// written to disk.
func TestScanPathCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("timing measurement meaningless under the race detector")
	}
	// best returns the fastest of five timed batches, in ns per call.
	best := func(n int, f func()) float64 {
		calls := max(100, 64000/n) // a few ms per batch at any n
		bestNs := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < calls; i++ {
				f()
			}
			bestNs = min(bestNs, float64(time.Since(start).Nanoseconds())/float64(calls))
		}
		return bestNs
	}
	crossover := 0
	for _, n := range []int{16, 32, 64, 96, 128, 160, 192, 256, 384, 512} {
		m := helsinkiMedium(n)
		for now := 0.0; now < 3; now++ {
			m.scan(now)
		}
		// Replay the last tick's phase 2 on its (still current) movers.
		// Fleets in the direct regime keep no grid: build it, so the
		// grid path walks real buckets.
		sc := &m.sc
		if !sc.gridLive {
			m.buildGrid()
		}
		for _, i := range sc.movers {
			sc.isMover[i] = true
		}
		direct := m.findPairsDirect(sc.movers, nil)
		grid := m.findPairsGrid(sc.movers, nil)
		slices.SortFunc(direct, comparePairEntries)
		slices.SortFunc(grid, comparePairEntries)
		if !slices.Equal(direct, grid) {
			t.Fatalf("n=%d: direct path found %d pairs, grid path %d", n, len(direct), len(grid))
		}
		buf := make([]pairEntry, 0, len(direct))
		directNs := best(n, func() { buf = m.findPairsDirect(sc.movers, buf[:0]) })
		gridNs := best(n, func() { buf = m.findPairsGrid(sc.movers, buf[:0]) })
		for _, i := range sc.movers {
			sc.isMover[i] = false
		}
		t.Logf("n=%d (%d movers, %d pairs, dense grid %v): direct %.0f ns/tick, grid %.0f ns/tick (direct/grid %.2f)",
			n, len(sc.movers), len(direct), sc.grid.dense, directNs, gridNs, directNs/gridNs)
		if crossover == 0 && gridNs < directNs {
			crossover = n
		}
	}
	t.Logf("grid path first faster at n=%d (0: never in range); directPairsMax=%d", crossover, directPairsMax)
}
