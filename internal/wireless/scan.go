package wireless

import (
	"math"
	"slices"

	"vdtn/internal/detmap"
	"vdtn/internal/geo"
)

// StaticUntiler is an optional Entity extension for the live proximity
// scan: StaticUntil reports a simulation time through which the entity's
// position is guaranteed not to change, so the scan can skip re-querying
// it until then. The medium calls StaticUntil immediately after
// Position(now) with the same now; returning a value <= now promises
// nothing (the entity is re-queried on the next tick). Stationary relays
// return +Inf; paused walkers return the end of their pause.
type StaticUntiler interface {
	StaticUntil(now float64) float64
}

// cellKey addresses one cell of the uniform spatial hash grid
// (cell size = radio range).
type cellKey struct{ x, y int64 }

// pack collapses the cell coordinates into one uint64 map key: the
// runtime's fast-path uint64 map access beats hashing the 16-byte struct,
// and the 3x3 neighbourhood walk is the scan's hottest map consumer.
// Truncating to 32 bits per axis collides only for cells 2^32 apart
// (at 30 m cells, ~1.3e11 m — far beyond any scenario geometry).
func (c cellKey) pack() uint64 {
	return uint64(uint32(c.x))<<32 | uint64(uint32(c.y))
}

// packPair collapses a pairKey into one uint64 whose numeric order equals
// the key's lexicographic order, so the scan's sort, merge and diff run on
// single-word comparisons. Entity ids fit in 32 bits (Medium.Add enforces
// it), and key() guarantees k[0] < k[1].
func packPair(k pairKey) uint64 {
	return uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))
}

// unpackPair restores the pairKey from its packed form.
func unpackPair(u uint64) pairKey {
	return pairKey{int(u >> 32), int(uint32(u))}
}

// pairEntry is one in-range pair in the scan's working set: the packed
// pair key that orders and fires transitions, plus both entity indexes so
// the carry check needs no id->index map lookups.
type pairEntry struct {
	ku   uint64
	a, b int32
}

// scanState is the live scan's working set. Everything here is allocated
// on the first tick and reused for every subsequent one, so a steady-state
// scan performs no allocations: the position cache and grid are updated
// incrementally as entities move, and the pair/diff slices are truncated
// and refilled in place.
type scanState struct {
	seen      []bool          // entity has been observed (and, with a grid, placed in it)
	pos       []geo.Point     // last observed position, by entity index
	ids       []int           // entity id, by entity index
	hint      []StaticUntiler // nil when the entity offers no hint
	staticTil []float64       // position constant through this time
	cell      []cellKey       // current grid cell of pos
	isMover   []bool          // re-queried this tick (cleared at scan end)

	grid     gridState
	gridLive bool // grid built: the fleet has outgrown directPairsMax

	movers     []int32       // entity indexes re-queried this tick
	newCell    []cellKey     // phase-1 staging: observed grid cell, by entity index
	carry      []pairEntry   // static-static pairs carried from prev (sorted)
	wpairs     [][]pairEntry // per-worker mover-pair shards, each sorted (serial: shard 0)
	mergeSrc   [][]pairEntry // k-way merge head scratch
	curr, prev []pairEntry   // in-range pairs this and last tick, ascending
	downs, ups []pairKey     // per-tick transition staging
}

// gridState is the spatial hash: buckets of entity indexes keyed by grid
// cell, persisting across ticks (an entity moves buckets only when its
// position crosses a cell border). Pair discovery runs in one of three
// regimes, by fleet size and spread:
//
//   - Direct: fleets of at most directPairsMax entities (the paper's 45
//     nodes) check every entity directly and keep no grid, only each
//     entity's cell. On the first tick a fleet grows past the threshold,
//     the grid is built once from those cells and kept from then on.
//   - Sparse map: the default representation. A fleet whose occupied
//     bounding box spans more than denseCellCap cells keeps its buckets
//     in a hash map, one lookup per neighbourhood cell. The paper's
//     Helsinki map is about 19k padded cells at 30 m, so a fleet spread
//     over it stays here up to ~2.3k entities (a 1,000-vehicle fleet too).
//   - Dense: once the occupied box fits denseCellCap, buckets move to a
//     row-major array over the (padded) box, so the 3x3 neighbourhood walk
//     is direct indexing. Large fleets (the cap grows with n) and compact
//     geometries land here; an entity leaving the extent regrows it, or
//     sends the grid back to the map.
//
// Membership is identical in every representation, and bucket order never
// matters (the pair set is sorted before transitions fire), so the three
// regimes are byte-equivalent.
type gridState struct {
	dense      bool
	minX, minY int64     // dense array origin, in cell coordinates
	w, h       int64     // dense array extent, in cells
	cells      [][]int32 // dense buckets, row-major: (x-minX) + (y-minY)*w
	m          map[uint64][]int32

	// Occupied-cell bounding box, grown monotonically on every insert;
	// drives the dense/sparse decision and the dense extent.
	occValid                           bool
	occMinX, occMaxX, occMinY, occMaxY int64
}

// gridPad is the dense-array margin, in cells, beyond the occupied
// bounding box, so small drifts don't force a rebuild.
const gridPad = 4

// denseCellCap bounds the dense array's cell count for n entities:
// generous for any bounded scenario map, while pathological geometries
// (two clusters a continent apart) stay on the hash map.
func denseCellCap(n int) int64 { return 8*int64(n) + 1024 }

func (g *gridState) init(n int) {
	if g.m == nil {
		g.m = make(map[uint64][]int32, n/2+1)
	}
}

func (g *gridState) noteOccupied(ck cellKey) {
	if !g.occValid {
		g.occValid = true
		g.occMinX, g.occMaxX, g.occMinY, g.occMaxY = ck.x, ck.x, ck.y, ck.y
		return
	}
	g.occMinX, g.occMaxX = min(g.occMinX, ck.x), max(g.occMaxX, ck.x)
	g.occMinY, g.occMaxY = min(g.occMinY, ck.y), max(g.occMaxY, ck.y)
}

func (g *gridState) denseIdx(ck cellKey) int64 {
	return (ck.x - g.minX) + (ck.y-g.minY)*g.w
}

func (g *gridState) inDense(ck cellKey) bool {
	return ck.x >= g.minX && ck.x < g.minX+g.w &&
		ck.y >= g.minY && ck.y < g.minY+g.h
}

// bucket returns the cell's bucket for the neighbourhood walk (nil when
// empty or out of the dense extent — an out-of-extent cell is necessarily
// unoccupied, since the extent covers the occupied bounding box).
func (g *gridState) bucket(ck cellKey) []int32 {
	if g.dense {
		if !g.inDense(ck) {
			return nil
		}
		return g.cells[g.denseIdx(ck)]
	}
	return g.m[ck.pack()]
}

func (g *gridState) add(i int32, ck cellKey) {
	g.noteOccupied(ck)
	if g.dense {
		if !g.inDense(ck) {
			g.reshape(len(g.cells)) // grow the extent (or go sparse)
			if !g.dense {
				g.m[ck.pack()] = append(g.m[ck.pack()], i)
				return
			}
		}
		idx := g.denseIdx(ck)
		g.cells[idx] = append(g.cells[idx], i)
		return
	}
	g.m[ck.pack()] = append(g.m[ck.pack()], i)
}

// remove swap-deletes entity index i from its cell's bucket.
func (g *gridState) remove(i int32, ck cellKey) {
	var b []int32
	var idx int64
	if g.dense {
		idx = g.denseIdx(ck)
		b = g.cells[idx]
	} else {
		b = g.m[ck.pack()]
	}
	for n, v := range b {
		if v == i {
			b[n] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if g.dense {
		g.cells[idx] = b
	} else {
		g.m[ck.pack()] = b
	}
}

// reshape re-homes every bucket for the current occupied bounding box:
// into a (padded) dense array when it fits denseCellCap for n entities,
// onto the hash map otherwise. Buckets are moved, not copied.
func (g *gridState) reshape(n int) {
	if !g.occValid {
		return
	}
	w := g.occMaxX - g.occMinX + 1 + 2*gridPad
	h := g.occMaxY - g.occMinY + 1 + 2*gridPad
	capCells := denseCellCap(n)
	toDense := w <= capCells && h <= capCells && w*h <= capCells

	// Collect the occupied buckets from the current representation.
	type occ struct {
		ck cellKey
		b  []int32
	}
	var bs []occ
	if g.dense {
		for y := int64(0); y < g.h; y++ {
			for x := int64(0); x < g.w; x++ {
				if b := g.cells[x+y*g.w]; len(b) > 0 {
					bs = append(bs, occ{cellKey{g.minX + x, g.minY + y}, b})
				}
			}
		}
	} else {
		for _, k := range detmap.Keys(g.m) {
			if b := g.m[k]; len(b) > 0 {
				bs = append(bs, occ{cellKey{int64(int32(k >> 32)), int64(int32(k))}, b})
			}
		}
	}

	g.dense = toDense
	if toDense {
		g.minX, g.minY = g.occMinX-gridPad, g.occMinY-gridPad
		g.w, g.h = w, h
		g.cells = make([][]int32, w*h)
		g.m = make(map[uint64][]int32)
		for _, o := range bs {
			g.cells[g.denseIdx(o.ck)] = o.b
		}
		return
	}
	g.cells = nil
	g.m = make(map[uint64][]int32, len(bs))
	for _, o := range bs {
		g.m[o.ck.pack()] = o.b
	}
}

// comparePairs orders pairKeys lexicographically.
func comparePairs(a, b pairKey) int {
	if a[0] != b[0] {
		if a[0] < b[0] {
			return -1
		}
		return 1
	}
	switch {
	case a[1] < b[1]:
		return -1
	case a[1] > b[1]:
		return 1
	}
	return 0
}

func comparePairEntries(a, b pairEntry) int {
	switch {
	case a.ku < b.ku:
		return -1
	case a.ku > b.ku:
		return 1
	}
	return 0
}

// growScanState sizes the per-entity scan arrays for entities added since
// the last tick (on the first tick, all of them).
func (m *Medium) growScanState() {
	sc := &m.sc
	if sc.wpairs == nil {
		// One pair shard per worker; the serial path uses shard 0 only.
		sc.wpairs = make([][]pairEntry, max(1, m.cfg.ScanWorkers))
		sc.mergeSrc = make([][]pairEntry, 0, len(sc.wpairs)+1)
	}
	for i := len(sc.pos); i < len(m.entities); i++ {
		e := m.entities[i]
		h, _ := e.(StaticUntiler)
		sc.seen = append(sc.seen, false)
		sc.pos = append(sc.pos, geo.Point{})
		sc.ids = append(sc.ids, e.ID())
		sc.hint = append(sc.hint, h)
		sc.staticTil = append(sc.staticTil, math.Inf(-1))
		sc.cell = append(sc.cell, cellKey{})
		sc.isMover = append(sc.isMover, false)
		sc.newCell = append(sc.newCell, cellKey{})
	}
}

// buildGrid places every observed entity in the grid at its current cell.
// It runs once, on the first tick the fleet exceeds directPairsMax; the
// direct regime before it tracks cells but keeps no buckets.
func (m *Medium) buildGrid() {
	sc := &m.sc
	sc.grid.init(len(m.entities))
	for i, seen := range sc.seen {
		if seen {
			sc.grid.add(int32(i), sc.cell[i])
		}
	}
	sc.gridLive = true
}

// moveBucket relocates entity index i from grid cell `from` to `to`.
// Bucket order is not meaningful (removal swap-deletes); determinism comes
// from sorting the pair set before transitions fire.
func (m *Medium) moveBucket(i int32, from, to cellKey) {
	m.sc.grid.remove(i, from)
	m.sc.grid.add(i, to)
}

// evalPositions refreshes the cached position, static-until hint and
// observed grid cell for the given movers. Every write lands at the
// mover's own entity index, and a mover's mobility model and RNG stream
// are private to it, so disjoint mover slices can be evaluated from
// different goroutines concurrently (phase 1 of the parallel scan). The
// grid itself is NOT touched here: bucket surgery is serial, applied by
// scan after all positions are known.
func (m *Medium) evalPositions(now float64, movers []int32) {
	sc := &m.sc
	cell := m.cfg.Range
	for _, i := range movers {
		e := m.entities[i]
		p := e.Position(now)
		til := now
		if h := sc.hint[i]; h != nil {
			til = h.StaticUntil(now)
		}
		sc.pos[i] = p
		sc.staticTil[i] = til
		sc.newCell[i] = cellKey{int64(math.Floor(p.X / cell)), int64(math.Floor(p.Y / cell))}
	}
}

// directPairsMax is the largest fleet whose pair discovery checks each
// mover against every entity directly instead of walking the grid. Below
// it the O(movers*n) distance loop beats the neighbourhood walk's nine
// bucket lookups per mover, which on a wide map are sparse-map lookups
// (see gridState); TestScanPathCrossover measures the crossover.
const directPairsMax = 96

// findPairs appends every in-range pair involving one of the given movers
// to buf. Mover-mover pairs are enumerated from both ends; the
// smaller-index end claims the pair, so the union over any partition of
// the movers holds each pair exactly once — that disjointness is what
// lets phase 2 shard movers across workers and still merge shards without
// cross-shard duplicates. Read-only on all shared state (grid, positions,
// mover flags), so disjoint mover slices can run concurrently.
//
// Small fleets check every entity directly; larger ones walk the mover's
// 3x3 cell neighbourhood. With cells one Range wide, the neighbourhood
// holds every entity within Range, so both paths apply the same claim
// rule and distance test to the same candidates and find the same pairs.
func (m *Medium) findPairs(movers []int32, buf []pairEntry) []pairEntry {
	if len(m.sc.pos) <= directPairsMax {
		return m.findPairsDirect(movers, buf)
	}
	return m.findPairsGrid(movers, buf)
}

// claims reports whether mover i records its pair with entity j: never
// itself, and a mover-mover pair only at its smaller index.
func (sc *scanState) claims(i, j int32) bool {
	return j != i && !(sc.isMover[j] && j < i)
}

// findPairsDirect is findPairs by an all-entities distance check.
func (m *Medium) findPairsDirect(movers []int32, buf []pairEntry) []pairEntry {
	sc := &m.sc
	r2 := m.cfg.Range * m.cfg.Range
	for _, i := range movers {
		pi := sc.pos[i]
		idi := sc.ids[i]
		for j, pj := range sc.pos {
			// Distance first: out-of-range entities are the common case.
			if j := int32(j); pi.Dist2(pj) <= r2 && sc.claims(i, j) {
				buf = append(buf, pairEntry{ku: packPair(key(idi, sc.ids[j])), a: i, b: j})
			}
		}
	}
	return buf
}

// findPairsGrid is findPairs by the mover's 3x3 cell neighbourhood.
func (m *Medium) findPairsGrid(movers []int32, buf []pairEntry) []pairEntry {
	sc := &m.sc
	r2 := m.cfg.Range * m.cfg.Range
	for _, i := range movers {
		base := sc.cell[i]
		pi := sc.pos[i]
		idi := sc.ids[i]
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, j := range sc.grid.bucket(cellKey{base.x + dx, base.y + dy}) {
					if sc.claims(i, j) && pi.Dist2(sc.pos[j]) <= r2 {
						buf = append(buf, pairEntry{ku: packPair(key(idi, sc.ids[j])), a: i, b: j})
					}
				}
			}
		}
	}
	return buf
}

// mergeShards k-way merges the sorted carry slice and the first nw sorted
// per-worker pair shards into sc.curr, ascending by packed pair key. The
// inputs are mutually disjoint (carry holds only non-mover pairs; the
// shards partition the mover pairs by claiming index), so the merged
// sequence — and therefore everything downstream of it — is a pure
// function of the pair SET, independent of how pairs were distributed
// over shards. That is the determinism argument for the parallel scan:
// worker count and goroutine scheduling change only the shard layout,
// never the merged output. A defensive dedup skips equal keys anyway, so
// even a (bug-introduced) duplicate could not double-fire a transition.
// The head scratch holds subslices of persistent buffers; steady-state
// merges allocate nothing.
func (m *Medium) mergeShards(nw int) {
	sc := &m.sc
	srcs := sc.mergeSrc[:0]
	if len(sc.carry) > 0 {
		srcs = append(srcs, sc.carry)
	}
	for w := 0; w < nw; w++ {
		if len(sc.wpairs[w]) > 0 {
			srcs = append(srcs, sc.wpairs[w])
		}
	}
	sc.mergeSrc = srcs[:0] // keep any growth for next tick
	sc.curr = sc.curr[:0]
	for {
		best := -1
		var bku uint64
		for s, head := range srcs {
			if len(head) == 0 {
				continue
			}
			if best < 0 || head[0].ku < bku {
				best, bku = s, head[0].ku
			}
		}
		if best < 0 {
			return
		}
		pe := srcs[best][0]
		srcs[best] = srcs[best][1:]
		if n := len(sc.curr); n > 0 && sc.curr[n-1].ku == pe.ku {
			continue // defensive: inputs are disjoint by construction
		}
		sc.curr = append(sc.curr, pe)
	}
}

// scan recomputes the proximity graph and fires contact transitions.
//
// The scan is incremental: entities whose StaticUntil hint covers this
// tick keep their cached position and grid cell, so only movers are
// re-queried and re-bucketed. The current in-range pair set is then the
// carried-over pairs between two non-movers (their membership cannot have
// changed) plus every in-range pair involving at least one mover, found
// through the mover's 3x3 cell neighbourhood. The carried pairs are
// already sorted (a subsequence of the previous sorted set), so only the
// mover pairs are sorted before a k-way merge rebuilds the full set.
// Diffing it against the previous tick's yields the transitions; downs
// fire first (freeing the endpoints' radios before new-contact handlers
// try to start transfers on this same tick), then ups, each ascending by
// pair — the exact firing order of the original full-rescan
// implementation, so runs are byte-identical.
//
// With Config.ScanWorkers >= 2 the two independent per-mover stages run on
// a worker pool: phase 1 evaluates mover positions in parallel (writes go
// to per-entity slots; each entity's model and RNG stream are private),
// and phase 2 shards pair discovery over the then-read-only grid into
// per-worker sorted buffers. Everything between and after the phases —
// grid surgery, carry, merge, diff, transition firing — stays on the
// event-loop goroutine. The serial path is the same pipeline with one
// inline "worker", so both paths produce identical transition sequences
// by construction.
func (m *Medium) scan(now float64) {
	sc := &m.sc
	if len(sc.pos) < len(m.entities) {
		m.growScanState()
	}

	// Identify this tick's movers: entities whose cached position is not
	// covered by a static-until hint.
	sc.movers = sc.movers[:0]
	for i := range m.entities {
		if sc.seen[i] && sc.staticTil[i] > now {
			continue
		}
		sc.movers = append(sc.movers, int32(i))
	}

	// Phase 1: observe mover positions, hints and target cells. A tick
	// with no movers skips the pool dispatch entirely.
	var pool *scanPool
	if len(sc.movers) > 0 {
		pool = m.scanPoolReady()
	}
	if pool != nil {
		pool.run(phasePositions, now)
	} else {
		m.evalPositions(now, sc.movers)
	}

	// Apply the observed cells, in entity order, to the grid if one is
	// kept (bucket order is not semantic, but keeping surgery serial keeps
	// the grid simple and race-free).
	for _, i := range sc.movers {
		ck := sc.newCell[i]
		switch {
		case !sc.seen[i]:
			sc.seen[i] = true
			sc.cell[i] = ck
			if sc.gridLive {
				sc.grid.add(i, ck)
			}
		case ck != sc.cell[i]:
			if sc.gridLive {
				m.moveBucket(i, sc.cell[i], ck)
			}
			sc.cell[i] = ck
		}
		sc.isMover[i] = true
	}
	if !sc.gridLive && len(sc.pos) > directPairsMax {
		m.buildGrid()
	}

	// Densify the grid once the occupied bounding box is known to be
	// compact (checked each tick so late-added entities can flip it; a
	// no-op once dense — the grid then reshapes itself only when an
	// entity leaves the extent).
	if g := &sc.grid; !g.dense && g.occValid {
		w := g.occMaxX - g.occMinX + 1 + 2*gridPad
		h := g.occMaxY - g.occMinY + 1 + 2*gridPad
		if capCells := denseCellCap(len(m.entities)); w <= capCells && h <= capCells && w*h <= capCells {
			g.reshape(len(m.entities))
		}
	}

	// Carry pairs between two non-movers: both endpoints kept last tick's
	// position, so membership is unchanged and the previous (sorted) set
	// already holds the answer.
	sc.carry = sc.carry[:0]
	for _, pe := range sc.prev {
		if !sc.isMover[pe.a] && !sc.isMover[pe.b] {
			sc.carry = append(sc.carry, pe)
		}
	}

	// Phase 2: find every in-range pair involving a mover through the
	// (now read-only) grid, then merge the sorted shards with the carry.
	nShards := 1
	if pool != nil {
		pool.run(phasePairs, now)
		nShards = pool.workers
	} else {
		buf := m.findPairs(sc.movers, sc.wpairs[0][:0])
		slices.SortFunc(buf, comparePairEntries)
		sc.wpairs[0] = buf
	}
	m.mergeShards(nShards)

	// Diff against the previous tick: both slices are ascending, so one
	// merge walk splits the symmetric difference into downs and ups.
	sc.downs, sc.ups = sc.downs[:0], sc.ups[:0]
	i, j := 0, 0
	for i < len(sc.prev) && j < len(sc.curr) {
		switch pu, cu := sc.prev[i].ku, sc.curr[j].ku; {
		case pu < cu:
			sc.downs = append(sc.downs, unpackPair(pu))
			i++
		case pu > cu:
			sc.ups = append(sc.ups, unpackPair(cu))
			j++
		default:
			i, j = i+1, j+1
		}
	}
	for ; i < len(sc.prev); i++ {
		sc.downs = append(sc.downs, unpackPair(sc.prev[i].ku))
	}
	for ; j < len(sc.curr); j++ {
		sc.ups = append(sc.ups, unpackPair(sc.curr[j].ku))
	}
	for _, k := range sc.downs {
		m.drop(now, k)
	}
	for _, k := range sc.ups {
		m.raise(now, k)
	}

	sc.prev, sc.curr = sc.curr, sc.prev
	for _, i := range sc.movers {
		sc.isMover[i] = false
	}
}

// proximityPairsReference is the original full-rescan pair computation: it
// queries every entity's position each call and rebuilds the grid and pair
// set from scratch. It is retained as the oracle for the grid equivalence
// property tests and as the "before" leg of the scan benchmarks; the live
// scan no longer uses it.
func (m *Medium) proximityPairsReference(now float64) map[pairKey]bool {
	n := len(m.entities)
	pos := make([]geo.Point, n)
	for i, e := range m.entities {
		pos[i] = e.Position(now)
	}
	cell := m.cfg.Range
	grid := make(map[cellKey][]int, n)
	ck := func(p geo.Point) cellKey {
		return cellKey{int64(math.Floor(p.X / cell)), int64(math.Floor(p.Y / cell))}
	}
	for i, p := range pos {
		k := ck(p)
		grid[k] = append(grid[k], i)
	}
	r2 := m.cfg.Range * m.cfg.Range
	pairs := make(map[pairKey]bool, len(m.connected))
	for i, p := range pos {
		base := ck(p)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, j := range grid[cellKey{base.x + dx, base.y + dy}] {
					if j <= i {
						continue
					}
					if pos[i].Dist2(pos[j]) <= r2 {
						pairs[key(m.entities[i].ID(), m.entities[j].ID())] = true
					}
				}
			}
		}
	}
	return pairs
}

// scanReference replays the pre-adjacency scan algorithm end to end
// (full position rescan, fresh maps, map-diff plus sort) without firing
// transitions. It exists so the scan benchmarks can measure the old cost
// on the same scenario state the incremental scan runs on.
func (m *Medium) scanReference(now float64) (downs, ups []pairKey) {
	curr := m.proximityPairsReference(now)
	for k, up := range m.connected {
		if up && !curr[k] {
			downs = append(downs, k)
		}
	}
	slices.SortFunc(downs, comparePairs)
	for k := range curr {
		if !m.connected[k] {
			ups = append(ups, k)
		}
	}
	slices.SortFunc(ups, comparePairs)
	return downs, ups
}
