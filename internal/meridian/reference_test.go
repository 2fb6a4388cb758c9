package meridian

// The construction and walk as they stood before the dense-storage rewrite,
// kept verbatim (identifiers prefixed ref, nothing else changed but the
// float64 conversions below) as the reference the differential tests hold
// the live kernel to: per-node maps, the id-keyed candCache, allocating
// Gram–Schmidt helpers. It also keeps the old kernel's RingSize 1 defect (a
// two-member ring), so comparisons run at RingSize >= 2. refDot and
// refResidualNormInto round every product before the sum or difference it
// feeds, the rule the live kernel follows, so that an FMA target (arm64)
// fuses neither side.

import (
	"fmt"
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// refNode is one Meridian overlay member.
type refNode struct {
	id    int
	rings [][]int // ring index -> member refNode ids
	// ringLat caches the measured latency from this refNode to each ring
	// member, id -> ms (maintenance measurements).
	ringLat map[int]float64
}

// refOverlay is a Meridian overlay over a set of members.
type refOverlay struct {
	cfg     Config
	net     *overlay.Network
	members []int
	nodes   map[int]*refNode
	src     *rng.Source
	// maxHops caps query forwarding as a loop backstop.
	maxHops int
}

// New builds a Meridian overlay: every member gossip-samples candidates,
// measures them, and installs them into rings with the configured
// membership selection. Construction probes are accounted as maintenance.
func newRefOverlay(net *overlay.Network, members []int, cfg Config, seed int64) *refOverlay {
	if cfg.RingSize <= 0 {
		panic(fmt.Sprintf("meridian: invalid config %+v", cfg))
	}
	o := &refOverlay{
		cfg:     cfg,
		net:     net,
		members: append([]int(nil), members...),
		nodes:   make(map[int]*refNode, len(members)),
		src:     rng.New(seed),
		maxHops: 64,
	}
	for _, id := range members {
		o.nodes[id] = &refNode{
			id:      id,
			rings:   make([][]int, numRings),
			ringLat: make(map[int]float64),
		}
	}
	for _, id := range members {
		o.fillRings(o.nodes[id])
	}
	return o
}

// ringIndex maps a latency to its ring.
func (o *refOverlay) ringIndex(ms float64) int {
	if ms < ringBase {
		return 0
	}
	i := 1 + int(math.Log(ms/ringBase)/math.Log(ringMult))
	if i >= numRings {
		i = numRings - 1
	}
	return i
}

// fillRings populates one refNode's rings from a gossip sample of members.
func (o *refOverlay) fillRings(n *refNode) {
	sample := o.gossipSample(n.id)
	byRing := make([][]int, numRings)
	for _, c := range sample {
		l := o.net.MaintProbe(n.id, c)
		n.ringLat[c] = l
		r := o.ringIndex(l)
		byRing[r] = append(byRing[r], c)
	}
	for r, cands := range byRing {
		if len(cands) <= o.cfg.RingSize {
			n.rings[r] = cands
			continue
		}
		n.rings[r] = o.selectRing(n, cands)
	}
}

// gossipSample returns the candidate set a refNode discovers. With a small
// population the refNode knows everyone; with a large one it sees a uniform
// sample, as Meridian's gossip protocol provides.
func (o *refOverlay) gossipSample(self int) []int {
	if len(o.members)-1 <= o.cfg.CandidatesPerNode {
		out := make([]int, 0, len(o.members)-1)
		for _, m := range o.members {
			if m != self {
				out = append(out, m)
			}
		}
		return out
	}
	seen := make(map[int]bool, o.cfg.CandidatesPerNode)
	out := make([]int, 0, o.cfg.CandidatesPerNode)
	for len(out) < o.cfg.CandidatesPerNode {
		c := o.members[o.src.Intn(len(o.members))]
		if c == self || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// selectRing trims an over-full candidate list to RingSize members.
func (o *refOverlay) selectRing(n *refNode, cands []int) []int {
	k := o.cfg.RingSize
	if len(cands) > maxSelectionPool {
		perm := o.src.Perm(len(cands))
		pool := make([]int, maxSelectionPool)
		for i := range pool {
			pool[i] = cands[perm[i]]
		}
		cands = pool
	}
	switch o.cfg.Selection {
	case SelectRandom:
		perm := o.src.Perm(len(cands))
		out := make([]int, k)
		for i := 0; i < k; i++ {
			out[i] = cands[perm[i]]
		}
		return out
	case SelectMaxMin:
		return o.maxMinSubset(n, cands, k)
	default:
		return o.hypervolumeSubset(cands, k)
	}
}

// refCandCache memoises pairwise latencies among a small candidate pool with a
// dense index (selection is quadratic in the pool, so map overhead would
// dominate otherwise). A negative entry means "not yet measured".
type refCandCache struct {
	o     *refOverlay
	index map[int]int // refNode id -> pool index
	lat   []float64   // pool×pool, -1 when unmeasured
	n     int
}

func (o *refOverlay) newRefCandCache(cands []int) *refCandCache {
	c := &refCandCache{o: o, index: make(map[int]int, len(cands)), n: len(cands)}
	for i, id := range cands {
		c.index[id] = i
	}
	c.lat = make([]float64, len(cands)*len(cands))
	for i := range c.lat {
		c.lat[i] = -1
	}
	return c
}

// get measures (as maintenance, once) the latency between two candidates.
func (c *refCandCache) get(a, b int) float64 {
	if a == b {
		return 0
	}
	i, j := c.index[a], c.index[b]
	if v := c.lat[i*c.n+j]; v >= 0 {
		return v
	}
	v := c.o.net.MaintProbe(a, b)
	c.lat[i*c.n+j] = v
	c.lat[j*c.n+i] = v
	return v
}

// maxMinSubset greedily selects k candidates maximising the minimum
// pairwise latency (a k-dispersion diversity proxy for hypervolume).
func (o *refOverlay) maxMinSubset(n *refNode, cands []int, k int) []int {
	cache := o.newRefCandCache(cands)
	// Seed with the candidate farthest from the owning refNode.
	best := 0
	for i := 1; i < len(cands); i++ {
		if n.ringLat[cands[i]] > n.ringLat[cands[best]] {
			best = i
		}
	}
	selected := []int{cands[best]}
	remaining := append([]int(nil), cands[:best]...)
	remaining = append(remaining, cands[best+1:]...)
	for len(selected) < k && len(remaining) > 0 {
		bestIdx, bestScore := -1, -1.0
		for i, c := range remaining {
			minD := math.Inf(1)
			for _, s := range selected {
				if d := cache.get(c, s); d < minD {
					minD = d
				}
			}
			if minD > bestScore {
				bestScore, bestIdx = minD, i
			}
		}
		selected = append(selected, remaining[bestIdx])
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return selected
}

// hypervolumeSubset greedily selects k candidates spanning the largest
// polytope. Each candidate is represented by its latency vector to the
// already-selected members; the candidate whose vector lies farthest from
// the affine span of the selected set (Gram–Schmidt residual) adds the most
// volume. Under the clustering condition all residuals are nearly equal —
// the geometric fact the paper exploits — so the choice degenerates
// gracefully to arbitrary.
func (o *refOverlay) hypervolumeSubset(cands []int, k int) []int {
	cache := o.newRefCandCache(cands)

	// Start with the farthest pair (exact farthest pair costs O(c²)
	// probes; Meridian's gossip budget is similar, and the pool is capped).
	bestI, bestJ, bestD := 0, 1, -1.0
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if d := cache.get(cands[i], cands[j]); d > bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	selected := []int{cands[bestI], cands[bestJ]}
	used := map[int]bool{cands[bestI]: true, cands[bestJ]: true}

	// Gram–Schmidt residual selection: coordinates of candidate c are its
	// latencies to the selected members.
	for len(selected) < k {
		dim := len(selected)
		// Build the selected members' own coordinate rows.
		rows := make([][]float64, dim)
		for i, s := range selected {
			rows[i] = make([]float64, dim)
			for j, s2 := range selected {
				rows[i][j] = cache.get(s, s2)
			}
		}
		basis := refOrthonormalBasis(rows)
		bestIdx, bestRes := -1, -1.0
		v := make([]float64, dim)
		scratch := make([]float64, dim)
		for _, c := range cands {
			if used[c] {
				continue
			}
			for j, s := range selected {
				v[j] = cache.get(c, s)
			}
			res := refResidualNormInto(scratch, v, rows[0], basis)
			if res > bestRes {
				bestRes, bestIdx = res, c
			}
		}
		if bestIdx < 0 {
			break
		}
		selected = append(selected, bestIdx)
		used[bestIdx] = true
	}
	return selected
}

// refOrthonormalBasis builds an orthonormal basis of the affine span of rows
// (differences against rows[0]).
func refOrthonormalBasis(rows [][]float64) [][]float64 {
	var basis [][]float64
	for i := 1; i < len(rows); i++ {
		v := refSub(rows[i], rows[0])
		for _, b := range basis {
			v = refSub(v, refScale(b, refDot(v, b)))
		}
		if n := refNorm(v); n > 1e-9 {
			basis = append(basis, refScale(v, 1/n))
		}
	}
	return basis
}

// refResidualNormInto computes the distance of v from the affine span through
// origin with the given orthonormal basis, using scratch (len(v)) as the
// working buffer to stay allocation-free in the selection hot loop.
func refResidualNormInto(scratch, v, origin []float64, basis [][]float64) float64 {
	for i := range v {
		scratch[i] = v[i] - origin[i]
	}
	for _, b := range basis {
		p := refDot(scratch, b)
		for i := range scratch {
			scratch[i] -= float64(p * b[i])
		}
	}
	return refNorm(scratch)
}

func refSub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func refScale(a []float64, s float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func refNorm(a []float64) float64 { return math.Sqrt(refDot(a, a)) }

// FindNearest runs a Meridian closest-refNode query for target, starting at a
// random member. It implements the paper's description: the current refNode
// measures its distance d to the target, asks ring members at about that
// distance (within (1±β)·d) to probe the target, and forwards the query to
// the closest reporting refNode provided it improves d by at least a factor β;
// otherwise the query stops with the best refNode seen.
func (o *refOverlay) FindNearest(target int) overlay.Result {
	start := o.members[o.src.Intn(len(o.members))]
	return o.findFrom(start, target)
}

func (o *refOverlay) findFrom(start, target int) overlay.Result {
	cur := start
	visited := map[int]bool{cur: true, target: true}
	var probes int64
	hops := 0

	// The query can start at the searcher itself (it is a member too): its
	// rings still steer the first hop, but it is not a candidate and costs
	// no probe.
	d := math.Inf(1)
	bestID, bestLat := -1, d
	if cur != target {
		d = o.net.Probe(cur, target)
		probes++
		bestID, bestLat = cur, d
	}

	for hops < o.maxHops {
		n := o.nodes[cur]
		lo, hi := (1-o.cfg.Beta)*d, (1+o.cfg.Beta)*d

		// Collect ring members at about the target's distance. With no
		// distance estimate yet (the query started at the searcher itself)
		// every ring member is a candidate.
		var cands []int
		for _, ring := range n.rings {
			for _, m := range ring {
				if l := n.ringLat[m]; (math.IsInf(d, 1) || (l >= lo && l <= hi)) && !visited[m] {
					cands = append(cands, m)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		sort.Ints(cands) // determinism

		minID, minLat := -1, math.Inf(1)
		for _, c := range cands {
			l := o.net.Probe(c, target)
			probes++
			if l < minLat {
				minID, minLat = c, l
			}
			if l < bestLat {
				bestID, bestLat = c, l
			}
		}
		// β acceptance: forward only on a sufficient improvement.
		if minID < 0 || minLat > o.cfg.Beta*d {
			break
		}
		cur = minID
		visited[cur] = true
		d = minLat
		hops++
	}
	return overlay.Result{Peer: bestID, LatencyMs: bestLat, Probes: probes, Hops: hops}
}

// Members returns the overlay membership (for tests and experiments).
func (o *refOverlay) Members() []int { return o.members }

// RingsOf exposes a member's rings (for tests).
func (o *refOverlay) RingsOf(id int) [][]int { return o.nodes[id].rings }

// RingLatOf exposes a member's measured latency to a ring member (tests).
func (o *refOverlay) RingLatOf(id, member int) (float64, bool) {
	l, ok := o.nodes[id].ringLat[member]
	return l, ok
}
