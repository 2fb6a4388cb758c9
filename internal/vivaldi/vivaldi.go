// Package vivaldi implements Vivaldi network coordinates (Dabek, Cox,
// Kaashoek, Morris — SIGCOMM 2004) with the height-vector model: each node
// holds a Euclidean coordinate plus a height capturing its access-link
// delay. Coordinates adapt by a spring-relaxation update with adaptive
// timestep, exactly as in the paper (and as deployed in serf/consul).
//
// In this repository Vivaldi serves two roles: the representative
// coordinate system of the paper's Section 2.2 low-dimensionality
// discussion, and the substrate for the PIC-style greedy-walk finder. Under
// the clustering condition the embedding collapses all cluster peers onto
// nearly one point — the paper's argument made executable.
package vivaldi

import (
	"math"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// MaxDimensions bounds a coordinate's Euclidean dimensions. The spring
// update keeps its direction vector in a fixed-size stack buffer of this
// length so that one update is allocation-free — the wire gossip protocol
// (wire.go) applies it on every coordinate sample and must not allocate in
// steady state.
const MaxDimensions = 16

// The Vivaldi paper's recommended constants, which every deployment here
// uses (the height-vector model is always on).
const (
	// dimensions of the Euclidean part of a coordinate.
	dimensions = 5
	// ce is the adaptive-timestep constant c_e.
	ce = 0.25
	// cc is the error-damping constant c_c.
	cc = 0.25
	// rounds is how many all-node update rounds Build runs.
	rounds = 60
	// neighborsPerRound is how many random neighbours each node samples
	// per round of Build.
	neighborsPerRound = 4
)

// The search budgets shared by the static Finder and the wire search.
const (
	// placementProbes is how many members a target probes to position
	// itself.
	placementProbes = 16
	// verifyTop is how many of the best-predicted members the search
	// RTT-verifies before answering.
	verifyTop = 8
)

// Coord is a Vivaldi coordinate.
type Coord struct {
	Vec    []float64
	Height float64
	// Err is the node's current error estimate (starts at 1).
	Err float64
}

// NewCoord returns the origin coordinate with maximal error.
func NewCoord(dims int) *Coord {
	return &Coord{Vec: make([]float64, dims), Err: 1}
}

// Clone deep-copies the coordinate.
func (c *Coord) Clone() *Coord {
	out := &Coord{Vec: append([]float64(nil), c.Vec...), Height: c.Height, Err: c.Err}
	return out
}

// DistanceMs predicts the RTT between two coordinates.
func (c *Coord) DistanceMs(o *Coord) float64 {
	var ss float64
	for i := range c.Vec {
		d := c.Vec[i] - o.Vec[i]
		ss += d * d
	}
	return math.Sqrt(ss) + c.Height + o.Height
}

// Update applies one Vivaldi spring update: node c observed RTT rtt (in
// milliseconds) to a node currently at coordinate other. It is the single
// update rule shared by the static System (Build, PlaceTarget) and the
// wire-level gossip protocol (Wire), so the two deployments cannot drift
// apart. The update is allocation-free: the direction scratch lives on the
// stack (see MaxDimensions), which is what lets the gossip hot path apply
// it per sample without allocating.
func (c *Coord) Update(other *Coord, rtt float64, src *rng.Source) {
	if rtt <= 0 {
		rtt = 0.01
	}
	dist := c.DistanceMs(other)
	// Sample weight balances local and remote error.
	w := c.Err / (c.Err + other.Err)
	es := math.Abs(dist-rtt) / rtt
	c.Err = es*ce*w + c.Err*(1-ce*w)
	if c.Err > 1 {
		c.Err = 1
	}
	if c.Err < 0.01 {
		c.Err = 0.01
	}
	delta := cc * w * (rtt - dist)

	// Unit vector from other to c; random direction when coincident.
	var dirBuf [MaxDimensions]float64
	dir := dirBuf[:len(c.Vec)]
	var norm float64
	for i := range dir {
		dir[i] = c.Vec[i] - other.Vec[i]
		norm += dir[i] * dir[i]
	}
	norm = math.Sqrt(norm)
	if norm < 1e-9 {
		for i := range dir {
			dir[i] = src.NormFloat64()
		}
		norm = 0
		for _, d := range dir {
			norm += d * d
		}
		norm = math.Sqrt(norm)
	}
	for i := range c.Vec {
		c.Vec[i] += delta * dir[i] / norm
	}
	c.Height += delta * 0.1
	if c.Height < 0 {
		c.Height = 0
	}
}

// System is a converged (or converging) set of coordinates over members.
type System struct {
	net     *overlay.Network
	members []int
	coords  map[int]*Coord
	src     *rng.Source
}

// Build runs the Vivaldi protocol: 60 rounds in which every member samples
// 4 random peers, measures RTT (maintenance probes), and applies the spring
// update.
func Build(net *overlay.Network, members []int, seed int64) *System {
	s := &System{
		net:     net,
		members: append([]int(nil), members...),
		coords:  make(map[int]*Coord, len(members)),
		src:     rng.New(seed),
	}
	for _, m := range members {
		s.coords[m] = NewCoord(dimensions)
	}
	for round := 0; round < rounds; round++ {
		for _, m := range members {
			for k := 0; k < neighborsPerRound; k++ {
				n := members[s.src.Intn(len(members))]
				if n == m {
					continue
				}
				rtt := s.net.MaintProbe(m, n)
				s.coords[m].Update(s.coords[n], rtt, s.src)
			}
		}
	}
	return s
}

// CoordOf returns a member's coordinate.
func (s *System) CoordOf(id int) *Coord { return s.coords[id] }

// Members returns the member set.
func (s *System) Members() []int { return s.members }

// Net returns the underlying probe-counting network.
func (s *System) Net() *overlay.Network { return s.net }

// PlaceTarget computes a coordinate for a non-member target by probing
// nProbes random members (query probes) and running update iterations
// against them — how a freshly joining peer obtains its coordinate.
func (s *System) PlaceTarget(target, nProbes int) (*Coord, int64) {
	sample := s.SamplePlacement(target, nProbes)
	obs := make([]PlacementObservation, 0, len(sample))
	var probes int64
	for _, m := range sample {
		obs = append(obs, PlacementObservation{Coord: s.coords[m], RTTms: s.net.Probe(target, m)})
		probes++
	}
	return s.PlaceObservations(obs), probes
}

// PlacementObservation pairs a member's coordinate with the RTT a placing
// node measured to it — one input of the placement iteration.
type PlacementObservation struct {
	Coord *Coord
	RTTms float64
}

// SamplePlacement draws the member sample PlaceTarget would probe,
// consuming the system's stream exactly as PlaceTarget's probe loop does
// (self-draws are skipped and cost nothing). Wire deployments use it to
// issue the same placement probes as real pings.
func (s *System) SamplePlacement(target, nProbes int) []int {
	out := make([]int, 0, nProbes)
	for i := 0; i < nProbes; i++ {
		m := s.members[s.src.Intn(len(s.members))]
		if m == target {
			continue
		}
		out = append(out, m)
	}
	return out
}

// PlaceObservations runs the placement iteration over a fixed observation
// set — PlaceTarget's second half, consuming the stream identically.
func (s *System) PlaceObservations(obs []PlacementObservation) *Coord {
	c := NewCoord(dimensions)
	for iter := 0; iter < 30; iter++ {
		for _, o := range obs {
			c.Update(o.Coord, o.RTTms, s.src)
		}
	}
	return c
}

// MedianAbsRelErr reports the embedding quality over a random sample of
// member pairs: median |predicted - actual| / actual. It issues maintenance
// probes for the actual values.
func (s *System) MedianAbsRelErr(samples int) float64 {
	errs := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		a := s.members[s.src.Intn(len(s.members))]
		b := s.members[s.src.Intn(len(s.members))]
		if a == b {
			continue
		}
		actual := s.net.MaintProbe(a, b)
		if actual <= 0 {
			continue
		}
		pred := s.coords[a].DistanceMs(s.coords[b])
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	if len(errs) == 0 {
		return math.NaN()
	}
	// Median by partial insertion sort (small samples).
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}

// Finder is the coordinate-only nearest-peer baseline: place the target
// with 16 probes, then RTT-verify the 8 members whose coordinates are
// closest to the target's and return the nearest of those. The network
// cost is placing the target and the verification pings — and under the
// clustering condition the prediction is hopeless, because all cluster
// members collapse to the same coordinates.
type Finder struct {
	Sys *System
}

// FindNearest implements overlay.Finder.
func (f *Finder) FindNearest(target int) overlay.Result {
	tc, probes := f.Sys.PlaceTarget(target, placementProbes)

	type scored struct {
		id   int
		pred float64
	}
	best := make([]scored, 0, verifyTop+1)
	insert := func(sc scored) {
		best = append(best, sc)
		for i := len(best) - 1; i > 0 && best[i].pred < best[i-1].pred; i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
		if len(best) > verifyTop {
			best = best[:verifyTop]
		}
	}
	for _, m := range f.Sys.members {
		if m == target {
			continue
		}
		insert(scored{id: m, pred: tc.DistanceMs(f.Sys.coords[m])})
	}
	choice, lat := -1, math.Inf(1)
	for _, sc := range best {
		l := f.Sys.net.Probe(target, sc.id)
		probes++
		if l < lat {
			choice, lat = sc.id, l
		}
	}
	return overlay.Result{Peer: choice, LatencyMs: lat, Probes: probes, Hops: 0}
}
