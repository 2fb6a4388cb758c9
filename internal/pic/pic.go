// Package pic implements PIC — Practical Internet Coordinates (Costa,
// Castro, Rowstron, Key — ICDCS 2004) — as a nearest-peer finder: a joining
// peer computes rough multidimensional coordinates from probes to a few
// landmarks, then launches multiple greedy walks; each hop moves to the
// neighbour whose coordinates predict the smallest distance to the target.
// (The paper also describes a variant that recomputes the target's
// coordinates at each step of the walk; it is not implemented.)
package pic

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/vivaldi"
)

// The PIC paper's modest settings.
const (
	// landmarks is the number of members probed to place a coordinate.
	landmarks = 16
	// walks is the number of parallel greedy walks.
	walks = 4
	// neighborsPerNode is each member's neighbour-list size.
	neighborsPerNode = 16
	// maxHops bounds each walk.
	maxHops = 32
)

// Finder runs PIC greedy walks over a Vivaldi coordinate system (PIC's own
// embedding is a Simplex-minimisation over probe constraints; the spring
// relaxation converges to the same kind of embedding and shares its failure
// mode under the clustering condition: an impractical number of dimensions
// would be needed to tell cluster peers apart).
type Finder struct {
	sys       *vivaldi.System
	neighbors map[int][]int
	src       *rng.Source
}

// New builds the finder: each member's neighbour list holds its
// coordinate-space nearest members plus random entries (PIC maintains both
// for greedy routing).
func New(sys *vivaldi.System, seed int64) *Finder {
	f := &Finder{
		sys:       sys,
		neighbors: make(map[int][]int),
		src:       rng.New(seed),
	}
	members := sys.Members()
	half := neighborsPerNode / 2
	for _, m := range members {
		// Nearest half by coordinates.
		type cand struct {
			id int
			d  float64
		}
		cands := make([]cand, 0, len(members)-1)
		mc := sys.CoordOf(m)
		for _, n := range members {
			if n == m {
				continue
			}
			cands = append(cands, cand{id: n, d: mc.DistanceMs(sys.CoordOf(n))})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		list := make([]int, 0, neighborsPerNode)
		for i := 0; i < half && i < len(cands); i++ {
			list = append(list, cands[i].id)
		}
		// Random half for long-range jumps.
		for len(list) < neighborsPerNode && len(list) < len(cands) {
			c := members[f.src.Intn(len(members))]
			if c == m || contains(list, c) {
				continue
			}
			list = append(list, c)
		}
		f.neighbors[m] = list
	}
	return f
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// FindNearest implements overlay.Finder: place the target, run greedy
// walks, verify walk endpoints with real probes, return the best.
func (f *Finder) FindNearest(target int) overlay.Result {
	tc, probes := f.sys.PlaceTarget(target, landmarks)
	members := f.sys.Members()

	endpoints := make(map[int]bool)
	var hops int
	for w := 0; w < walks; w++ {
		cur := members[f.src.Intn(len(members))]
		for hop := 0; hop < maxHops; hop++ {
			curDist := tc.DistanceMs(f.sys.CoordOf(cur))
			next, nextDist := -1, curDist
			for _, n := range f.neighbors[cur] {
				if d := tc.DistanceMs(f.sys.CoordOf(n)); d < nextDist {
					next, nextDist = n, d
				}
			}
			if next < 0 {
				break // local minimum in coordinate space
			}
			cur = next
			hops++
		}
		endpoints[cur] = true
	}

	best, bestLat := -1, math.Inf(1)
	ids := make([]int, 0, len(endpoints))
	for id := range endpoints {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id == target {
			continue // the searcher itself can be a member; it is not a candidate
		}
		l := f.sys.Net().Probe(target, id)
		probes++
		if l < bestLat {
			best, bestLat = id, l
		}
	}
	return overlay.Result{Peer: best, LatencyMs: bestLat, Probes: probes, Hops: hops}
}
