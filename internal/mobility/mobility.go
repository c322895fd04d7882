// Package mobility implements the movement models of the scenario: the
// shortest-path map-based random-waypoint walk the paper's vehicles perform,
// the stationary model of the relay nodes, and a free-space random waypoint
// for synthetic tests.
//
// Models expose position analytically: Position(now) computes where the
// node is at a given time from the active route leg, rather than mutating a
// coordinate every tick. Queries must be issued with non-decreasing time
// stamps (the simulator's connectivity scan guarantees this); a model
// consumes its random stream only when it has to commit to the next leg, so
// a run's trajectory is a pure function of (map, seed).
package mobility

import (
	"fmt"
	"math"

	"vdtn/internal/geo"
	"vdtn/internal/roadmap"
	"vdtn/internal/xrand"
)

// Model yields a node's position over time. Implementations require
// non-decreasing query times and panic on time reversal beyond a small
// tolerance, because rewinding would silently desynchronize the model's
// random stream from the trajectory already observed.
type Model interface {
	Position(now float64) geo.Point
}

// Stationary is the relay-node model: a fixed position forever.
type Stationary struct {
	At geo.Point
}

// Position returns the fixed position.
func (s Stationary) Position(now float64) geo.Point { return s.At }

// StaticUntil reports that the position never changes (the wireless
// scan's static-entity hint; see wireless.StaticUntiler).
func (s Stationary) StaticUntil(now float64) float64 { return math.Inf(1) }

// timeTolerance absorbs float64 noise in repeated same-instant queries.
const timeTolerance = 1e-9

// MapWalk is the paper's vehicle movement: pick a random map location,
// drive there along the shortest road path at a random constant speed, wait
// a random pause, repeat.
//
// Paper parameters: speed uniform in [30, 50] km/h, pause uniform in
// [5, 15] minutes, destinations uniform over map locations.
//
// Each trip's route and segment lengths are computed once, when the
// vehicle departs, into buffers reused across trips, so a position query
// walks cached lengths instead of recomputing every segment from the
// start of the route. The walk repeats geo.Polyline.AtDistance step for
// step, so positions are bit-identical to it.
type MapWalk struct {
	g   *roadmap.Graph
	rng *xrand.Rand

	speedLo, speedHi float64 // m/s
	pauseLo, pauseHi float64 // s

	// Current leg. Exactly one of the two modes is active:
	//   paused: stands at vertex `at` until pauseEnd
	//   moving: drives along route, departed legStart at `speed`
	paused   bool
	at       int // current vertex while paused / destination while moving
	pauseEnd float64

	route    geo.Polyline // reused across trips, like segLen
	segLen   []float64    // route[i].Dist(route[i+1])
	routeLen float64
	legStart float64
	speed    float64

	lastQuery float64
	trips     int // completed trips, for tests/diagnostics
}

// MapWalkConfig carries the distribution parameters for a MapWalk.
type MapWalkConfig struct {
	SpeedLoMs float64 // lower speed bound, m/s; must be > 0
	SpeedHiMs float64 // upper speed bound, m/s; >= SpeedLoMs
	PauseLoS  float64 // lower pause bound, s; >= 0
	PauseHiS  float64 // upper pause bound, s; >= PauseLoS
}

// Validate reports the first invalid field, if any.
func (c MapWalkConfig) Validate() error {
	switch {
	case c.SpeedLoMs <= 0:
		return fmt.Errorf("mobility: speed lower bound %v must be positive", c.SpeedLoMs)
	case c.SpeedHiMs < c.SpeedLoMs:
		return fmt.Errorf("mobility: speed bounds inverted: [%v, %v]", c.SpeedLoMs, c.SpeedHiMs)
	case c.PauseLoS < 0:
		return fmt.Errorf("mobility: negative pause %v", c.PauseLoS)
	case c.PauseHiS < c.PauseLoS:
		return fmt.Errorf("mobility: pause bounds inverted: [%v, %v]", c.PauseLoS, c.PauseHiS)
	}
	return nil
}

// NewMapWalk returns a vehicle walk on g driven by rng. The vehicle starts
// at a random intersection and departs on its first trip at time 0.
// It panics if the config is invalid or the map fails validation; scenario
// assembly is expected to have validated both.
func NewMapWalk(g *roadmap.Graph, rng *xrand.Rand, cfg MapWalkConfig) *MapWalk {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	w := &MapWalk{
		g:       g,
		rng:     rng,
		speedLo: cfg.SpeedLoMs,
		speedHi: cfg.SpeedHiMs,
		pauseLo: cfg.PauseLoS,
		pauseHi: cfg.PauseHiS,
		paused:  true,
		at:      g.RandomVertex(rng),
	}
	w.pauseEnd = 0 // departs immediately
	return w
}

// Trips returns the number of completed point-to-point trips so far.
func (w *MapWalk) Trips() int { return w.trips }

// Position returns the vehicle position at time now. Queries must be
// non-decreasing in time.
func (w *MapWalk) Position(now float64) geo.Point {
	if now < w.lastQuery-timeTolerance {
		panic(fmt.Sprintf("mobility: time reversed from %v to %v", w.lastQuery, now))
	}
	w.lastQuery = now
	for {
		if w.paused {
			if now < w.pauseEnd {
				return w.g.Vertex(w.at)
			}
			w.depart(w.pauseEnd)
			continue
		}
		arrival := w.legStart + w.routeLen/w.speed
		if now < arrival {
			return w.routePoint(w.speed * (now - w.legStart))
		}
		w.arrive(arrival)
	}
}

// routePoint is w.route.AtDistance(d) over the cached segment lengths: the
// same sequential d -= seg, clamps and interpolation, hence the same bits.
// It keeps no cursor between calls, because subtracting the lengths one by
// one does not round like subtracting their sum.
func (w *MapWalk) routePoint(d float64) geo.Point {
	pl := w.route
	if d <= 0 || len(pl) == 1 {
		return pl[0]
	}
	for i, seg := range w.segLen {
		if d <= seg {
			// geo.Segment.AtDistance with the length known. d stays
			// positive along the walk, so only its far-end clamp applies.
			if d == seg {
				return pl[i+1]
			}
			return pl[i].Lerp(pl[i+1], d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}

// StaticUntil reports how long the vehicle is guaranteed to stand still:
// through the end of the current pause while parked, or not at all while
// driving. Like Position, it must be called with the model's state at
// `now` (i.e. immediately after Position(now)); it consumes nothing from
// the random stream, so skipping position queries during a pause leaves
// the trajectory bit-identical.
func (w *MapWalk) StaticUntil(now float64) float64 {
	if w.paused {
		return w.pauseEnd
	}
	return now
}

// depart commits to the next trip, consuming random draws for destination
// and speed.
func (w *MapWalk) depart(at float64) {
	// Pick a destination distinct from the current vertex. The map is
	// connected (validated in the constructor), so any pick is reachable.
	dest := w.at
	for dest == w.at {
		dest = w.g.RandomVertex(w.rng)
	}
	path, dist, ok := w.g.ShortestPath(w.at, dest)
	if !ok {
		panic("mobility: unreachable destination on validated map")
	}
	if n := len(path); cap(w.route) < n {
		// One allocation each, with room for longer trips to come.
		w.route = make(geo.Polyline, 0, 2*n)
		w.segLen = make([]float64, 0, 2*n)
	}
	w.route = w.g.PathPolyline(w.route[:0], path)
	w.segLen = w.segLen[:0]
	for i := 1; i < len(w.route); i++ {
		w.segLen = append(w.segLen, w.route[i-1].Dist(w.route[i]))
	}
	w.routeLen = dist
	w.speed = w.rng.UniformFloat(w.speedLo, w.speedHi)
	w.legStart = at
	w.paused = false
	w.at = dest
}

// arrive ends the current trip at the destination and starts the pause.
func (w *MapWalk) arrive(at float64) {
	w.trips++
	w.paused = true
	w.pauseEnd = at + w.rng.UniformFloat(w.pauseLo, w.pauseHi)
}

// RandomWaypoint is a free-space random waypoint model inside a rectangle:
// no roads, straight lines between uniform random points. It exists for
// unit tests and for scenarios that want mobility without a map substrate.
type RandomWaypoint struct {
	rng              *xrand.Rand
	area             geo.Rect
	speedLo, speedHi float64
	pauseLo, pauseHi float64

	paused    bool
	pos, dest geo.Point
	pauseEnd  float64
	legStart  float64
	legLen    float64
	speed     float64
	lastQuery float64
}

// NewRandomWaypoint returns a free-space walk in area. Parameters follow
// MapWalkConfig semantics.
func NewRandomWaypoint(area geo.Rect, rng *xrand.Rand, cfg MapWalkConfig) *RandomWaypoint {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	w := &RandomWaypoint{
		rng:     rng,
		area:    area,
		speedLo: cfg.SpeedLoMs,
		speedHi: cfg.SpeedHiMs,
		pauseLo: cfg.PauseLoS,
		pauseHi: cfg.PauseHiS,
		paused:  true,
	}
	w.pos = w.randomPoint()
	w.pauseEnd = 0
	return w
}

// StaticUntil mirrors MapWalk.StaticUntil for the free-space walk.
func (w *RandomWaypoint) StaticUntil(now float64) float64 {
	if w.paused {
		return w.pauseEnd
	}
	return now
}

func (w *RandomWaypoint) randomPoint() geo.Point {
	return geo.Point{
		X: w.rng.UniformFloat(w.area.Min.X, w.area.Max.X),
		Y: w.rng.UniformFloat(w.area.Min.Y, w.area.Max.Y),
	}
}

// Position returns the position at time now; queries must be
// non-decreasing in time.
func (w *RandomWaypoint) Position(now float64) geo.Point {
	if now < w.lastQuery-timeTolerance {
		panic(fmt.Sprintf("mobility: time reversed from %v to %v", w.lastQuery, now))
	}
	w.lastQuery = now
	for {
		if w.paused {
			if now < w.pauseEnd {
				return w.pos
			}
			w.dest = w.randomPoint()
			w.legLen = w.pos.Dist(w.dest)
			w.speed = w.rng.UniformFloat(w.speedLo, w.speedHi)
			w.legStart = w.pauseEnd
			w.paused = false
			continue
		}
		arrival := w.legStart + w.legLen/w.speed
		if now < arrival {
			t := w.speed * (now - w.legStart) / w.legLen
			return w.pos.Lerp(w.dest, t)
		}
		w.pos = w.dest
		w.paused = true
		w.pauseEnd = arrival + w.rng.UniformFloat(w.pauseLo, w.pauseHi)
	}
}
