// Package kargerruhl implements the Karger–Ruhl nearest-neighbour scheme
// for growth-restricted metrics (STOC 2002) in its distance-based-sampling
// form: every node maintains, for each distance scale 2^i, a bounded random
// sample of the nodes within that ball of itself. A query walks from a
// random node: the handling node measures its distance d to the target,
// probes its ball sample at scale ~d, and moves to any sampled node closer
// to the target, halving (in expectation) the distance per step — provided
// the growth-restriction assumption holds. Under the paper's clustering
// condition it does not, and the walk degenerates into random probing of
// the cluster.
package kargerruhl

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// The scheme's parameters mirror the Meridian-comparable configuration.
const (
	// baseMs is the radius of the smallest ball (scale 0).
	baseMs = 1.0
	// scales is the number of distance scales (ball i has radius
	// baseMs·2^i; the last ball covers everything).
	scales = 9
	// sampleSize bounds each ball's sample.
	sampleSize = 16
	// candidatesPerNode is the gossip view used to fill ball samples.
	candidatesPerNode = 192
	// maxHops caps a query walk.
	maxHops = 64
)

type node struct {
	id int
	// balls[i] holds sampled node ids within radius baseMs·2^i.
	balls [][]int
	// seen[i] counts candidates eligible for ball i (reservoir sampling).
	seen []int
	// lat caches measured latencies to sampled nodes.
	lat map[int]float64
}

// Overlay is a Karger–Ruhl sampling overlay.
type Overlay struct {
	net     *overlay.Network
	members []int
	nodes   map[int]*node
	src     *rng.Source
}

// New builds the overlay: every member samples candidates, measures them
// (maintenance probes), and files them into every ball large enough to
// contain them, trimming each ball to a random sampleSize subset.
func New(net *overlay.Network, members []int, seed int64) *Overlay {
	o := &Overlay{
		net:     net,
		members: append([]int(nil), members...),
		nodes:   make(map[int]*node, len(members)),
		src:     rng.New(seed),
	}
	for _, id := range members {
		o.nodes[id] = &node{
			id:    id,
			balls: make([][]int, scales),
			seen:  make([]int, scales),
			lat:   make(map[int]float64),
		}
	}
	for _, id := range members {
		o.fill(o.nodes[id])
	}
	return o
}

func (o *Overlay) fill(n *node) {
	cands := o.sample(n.id)
	for _, c := range cands {
		l := o.net.MaintProbe(n.id, c)
		n.lat[c] = l
		// Insert into every ball that contains it, reservoir-sampling
		// (Algorithm R) so each ball is a uniform sample of eligible
		// candidates despite the size bound.
		for i := 0; i < scales; i++ {
			radius := baseMs * math.Pow(2, float64(i))
			if l > radius && i != scales-1 {
				continue // outermost ball covers everything
			}
			n.seen[i]++
			if len(n.balls[i]) < sampleSize {
				n.balls[i] = append(n.balls[i], c)
			} else if j := o.src.Intn(n.seen[i]); j < sampleSize {
				n.balls[i][j] = c
			}
		}
	}
}

func (o *Overlay) sample(self int) []int {
	if len(o.members)-1 <= candidatesPerNode {
		out := make([]int, 0, len(o.members)-1)
		for _, m := range o.members {
			if m != self {
				out = append(out, m)
			}
		}
		return out
	}
	seen := map[int]bool{self: true}
	out := make([]int, 0, candidatesPerNode)
	for len(out) < candidatesPerNode {
		c := o.members[o.src.Intn(len(o.members))]
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// scaleFor returns the ball index whose radius just covers distance d.
func (o *Overlay) scaleFor(d float64) int {
	if d <= baseMs {
		return 0
	}
	if math.IsInf(d, 1) {
		// No distance estimate yet (the walk started at the searcher
		// itself): look in the widest balls. int(Ceil(Log2(+Inf))) would
		// be garbage, not a clamp.
		return scales - 1
	}
	i := int(math.Ceil(math.Log2(d / baseMs)))
	if i >= scales {
		i = scales - 1
	}
	return i
}

// FindNearest implements overlay.Finder.
func (o *Overlay) FindNearest(target int) overlay.Result {
	cur := o.members[o.src.Intn(len(o.members))]
	visited := map[int]bool{cur: true, target: true}
	var probes int64
	hops := 0

	// The walk can start at the searcher itself (it is a member too): its
	// ball samples still steer the walk from the widest scale, but it is
	// not a candidate and costs no probe.
	d := math.Inf(1)
	bestID, bestLat := -1, d
	if cur != target {
		d = o.net.Probe(cur, target)
		probes++
		bestID, bestLat = cur, d
	}

	for hops < maxHops {
		n := o.nodes[cur]
		// Probe the ball sample at the target's scale, plus the next
		// scale up (the Karger-Ruhl walk looks within distance ~2d).
		scale := o.scaleFor(d)
		cands := make([]int, 0, 2*sampleSize)
		for s := scale; s <= scale+1 && s < scales; s++ {
			for _, c := range n.balls[s] {
				if !visited[c] {
					cands = append(cands, c)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Ints(cands)
		minID, minLat := -1, math.Inf(1)
		for _, c := range cands {
			l := o.net.Probe(c, target)
			probes++
			visited[c] = true
			if l < minLat {
				minID, minLat = c, l
			}
			if l < bestLat {
				bestID, bestLat = c, l
			}
		}
		if minID < 0 || minLat >= d {
			break // no progress: in a growth-restricted space this means done
		}
		cur, d = minID, minLat
		hops++
	}
	return overlay.Result{Peer: bestID, LatencyMs: bestLat, Probes: probes, Hops: hops}
}

// Members returns the overlay membership.
func (o *Overlay) Members() []int { return o.members }

// BallsOf exposes a node's ball samples (tests).
func (o *Overlay) BallsOf(id int) [][]int { return o.nodes[id].balls }

// LatOf exposes a node's cached latency to a sampled peer (tests).
func (o *Overlay) LatOf(id, peer int) (float64, bool) {
	l, ok := o.nodes[id].lat[peer]
	return l, ok
}
