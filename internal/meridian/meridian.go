// Package meridian reimplements the Meridian closest-node search (Wong,
// Slivkins, Sirer — SIGCOMM 2005) as used by the paper's Section 4
// simulations: every overlay node organises its peers into concentric
// latency rings of bounded size, ring membership favours geometrically
// diverse ("high hypervolume") members, and a closest-node query walks the
// overlay by repeatedly probing ring members at about the target's distance
// and forwarding to whichever is closest, until no node improves on the
// current distance by the β threshold.
package meridian

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// RingSelection picks the strategy for trimming an over-full ring.
type RingSelection int

const (
	// SelectHypervolume keeps the subset spanning the largest polytope, the
	// Meridian paper's design, computed by a greedy forward selection on
	// latency-vector geometry (Gram determinant growth).
	SelectHypervolume RingSelection = iota
	// SelectMaxMin keeps a max-min-dispersion subset: a cheaper diversity
	// proxy with the same intent (and the same blindness under the
	// clustering condition).
	SelectMaxMin
	// SelectRandom keeps a uniformly random subset — the ablation baseline
	// that shows how much the diversity machinery buys.
	SelectRandom
)

// String names the strategy as the ablation tables print it.
func (s RingSelection) String() string {
	switch s {
	case SelectHypervolume:
		return "hypervolume"
	case SelectMaxMin:
		return "maxmin"
	case SelectRandom:
		return "random"
	default:
		return fmt.Sprintf("RingSelection(%d)", int(s))
	}
}

// Config parameterises a Meridian overlay. Defaults (DefaultConfig) follow
// the paper: 16 nodes per ring, β = 0.5.
type Config struct {
	// RingSize is the maximum number of members per ring (paper: 16).
	RingSize int
	// Beta is the query reduction threshold β (paper: 0.5): a query is
	// forwarded only to a node at least a factor β closer to the target.
	Beta float64
	// CandidatesPerNode is how many gossip-discovered peers each node
	// considers while filling its rings.
	CandidatesPerNode int
	// Selection is the ring-membership strategy.
	Selection RingSelection
}

// DefaultConfig returns the Section 4 simulation parameters.
func DefaultConfig() Config {
	return Config{
		RingSize:          16,
		Beta:              0.5,
		CandidatesPerNode: 192,
		Selection:         SelectHypervolume,
	}
}

// Validate reports a configuration New cannot build an overlay from, so a
// front end can turn a bad flag into a message instead of New's panic.
func (c Config) Validate() error {
	switch {
	case c.RingSize <= 0:
		return fmt.Errorf("meridian: RingSize %d must be positive", c.RingSize)
	case !(c.Beta > 0 && c.Beta < 1):
		return fmt.Errorf("meridian: Beta %v outside (0, 1)", c.Beta)
	case c.CandidatesPerNode < 0:
		return fmt.Errorf("meridian: CandidatesPerNode %d must not be negative", c.CandidatesPerNode)
	}
	return nil
}

// The ring geometry of the Section 4 simulation: ring 0 covers [0,
// ringBase) ms, each later ring's radii are ringMult times the last's, and
// the outermost of numRings rings extends to ∞.
const (
	ringBase float64 = 1
	ringMult float64 = 2
	numRings int     = 9
)

// ringEntry is one ring member as its owner measured it.
type ringEntry struct {
	id  int
	lat float64 // owner -> id, a construction-time maintenance measurement
}

// Overlay is a Meridian overlay over a set of members. Like its rng and the
// Network's probe counters, it serves one goroutine.
type Overlay struct {
	cfg     Config
	net     *overlay.Network
	members []int
	// slot maps a node id to its index in members (-1: not a member).
	slot []int32
	// rings holds every member's ring entries back to back: node by node in
	// members order, ring by ring within a node. ringOff[slot*numRings+r] is
	// where ring r of that node starts; the next offset is where it ends.
	rings   []ringEntry
	ringOff []int
	src     *rng.Source
	// logMult is math.Log(ringMult), ringIndex's divisor.
	logMult float64
	// maxHops caps query forwarding as a loop backstop.
	maxHops int
	scratch
}

// maxSelectionPool caps the candidate pool diversity selection works over;
// beyond this the extra pairwise probing buys nothing.
const maxSelectionPool = 64

// scratch is the working memory construction and the walk reuse, so that
// neither allocates in steady state. The selection kernel works in pool
// indices throughout: positions in the (at most maxSelectionPool)
// candidates handed to it.
type scratch struct {
	sample []int         // fillRings: the gossip sample
	byRing [][]ringEntry // fillRings: the sample split by ring
	perm   []int         // permutation's storage
	cands  []int         // findFrom: this hop's probe candidates
	// seen[id] == gen marks a node the current query (or gossip sample)
	// has already taken.
	seen []uint32
	gen  uint32

	pool   [maxSelectionPool]ringEntry                  // selectRing: the capped pool
	ids    [maxSelectionPool]int                        // the pool's node ids
	lat    [maxSelectionPool * maxSelectionPool]float64 // pool×pool pairwise latencies
	basis  [maxSelectionPool * maxSelectionPool]float64 // orthonormal rows, back to back
	origin [maxSelectionPool]float64                    // the first selected member's coordinates
	v      [4][maxSelectionPool]float64                 // residuals: four candidates, one per row
	block  [maxSelectionPool][scoreBlock]float64        // residualsAVX: sixteen candidates, lane-major
	res    [scoreBlock]float64                          // a score pass's residual norms
	sel    [maxSelectionPool]int                        // selected, in selection order
	rest   [maxSelectionPool]int                        // not yet selected, in pool order
}

// New builds a Meridian overlay: every member gossip-samples candidates,
// measures them, and installs them into rings with the configured
// membership selection. Construction probes are accounted as maintenance.
func New(net *overlay.Network, members []int, cfg Config, seed int64) *Overlay {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := &Overlay{
		cfg:     cfg,
		net:     net,
		members: append([]int(nil), members...),
		slot:    make([]int32, net.N()),
		ringOff: make([]int, 0, len(members)*numRings+1),
		src:     rng.New(seed),
		logMult: math.Log(ringMult),
		maxHops: 64,
		scratch: scratch{
			byRing: make([][]ringEntry, numRings),
			seen:   make([]uint32, net.N()),
		},
	}
	for i := range o.slot {
		o.slot[i] = -1
	}
	for i, id := range o.members {
		o.slot[id] = int32(i)
	}
	for _, id := range o.members {
		o.fillRings(id)
	}
	o.ringOff = append(o.ringOff, len(o.rings))
	return o
}

// ringIndex maps a latency to its ring.
func (o *Overlay) ringIndex(ms float64) int {
	if ms < ringBase {
		return 0
	}
	i := 1 + int(math.Log(ms/ringBase)/o.logMult)
	if i >= numRings {
		i = numRings - 1
	}
	return i
}

// ringOffsets returns a member's numRings+1 offsets into o.rings: ring r is
// o.rings[off[r]:off[r+1]].
func (o *Overlay) ringOffsets(id int) []int {
	s := int(o.slot[id]) * numRings
	return o.ringOff[s : s+numRings+1]
}

// fillRings appends one node's rings, built from a gossip sample of
// members, to o.rings.
func (o *Overlay) fillRings(id int) {
	for r := range o.byRing {
		o.byRing[r] = o.byRing[r][:0]
	}
	for _, c := range o.gossipSample(id) {
		l := o.net.MaintProbe(id, c)
		r := o.ringIndex(l)
		o.byRing[r] = append(o.byRing[r], ringEntry{c, l})
	}
	for _, cands := range o.byRing {
		o.ringOff = append(o.ringOff, len(o.rings))
		if len(cands) <= o.cfg.RingSize {
			o.rings = append(o.rings, cands...)
			continue
		}
		o.selectRing(cands)
	}
}

// nextGen starts a fresh seen-set.
func (o *Overlay) nextGen() uint32 {
	o.gen++
	if o.gen == 0 { // wrapped: stale stamps would read as seen
		clear(o.seen)
		o.gen = 1
	}
	return o.gen
}

// gossipSample returns the candidate set a node discovers. With a small
// population the node knows everyone; with a large one it sees a uniform
// sample, as Meridian's gossip protocol provides.
func (o *Overlay) gossipSample(self int) []int {
	out := o.sample[:0]
	if len(o.members)-1 <= o.cfg.CandidatesPerNode {
		for _, m := range o.members {
			if m != self {
				out = append(out, m)
			}
		}
	} else {
		gen := o.nextGen()
		for len(out) < o.cfg.CandidatesPerNode {
			c := o.members[o.src.Intn(len(o.members))]
			if c == self || o.seen[c] == gen {
				continue
			}
			o.seen[c] = gen
			out = append(out, c)
		}
	}
	o.sample = out
	return out
}

// permutation is o.src.Perm(n) into reused storage: the same Intn draws in
// the same order, so the permutation and the stream position both match.
func (o *Overlay) permutation(n int) []int {
	if cap(o.perm) < n {
		o.perm = make([]int, n)
	}
	m := o.perm[:n]
	for i := range m {
		j := o.src.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// selectRing trims an over-full candidate list to RingSize members and
// appends them to o.rings.
func (o *Overlay) selectRing(cands []ringEntry) {
	k := o.cfg.RingSize
	if len(cands) > maxSelectionPool {
		perm := o.permutation(len(cands))
		for i := range o.pool {
			o.pool[i] = cands[perm[i]]
		}
		cands = o.pool[:]
	}
	var picked []int
	switch o.cfg.Selection {
	case SelectRandom:
		picked = o.permutation(len(cands))[:min(k, len(cands))]
	case SelectMaxMin:
		picked = o.maxMinSubset(cands, k)
	default:
		picked = o.hypervolumeSubset(cands, k)
	}
	for _, i := range picked {
		o.rings = append(o.rings, cands[i])
	}
}

// maxMinSubset greedily selects k of pool (as pool indices) maximising the
// minimum pairwise latency — a k-dispersion diversity proxy for hypervolume
// — measuring each pair it compares once, as maintenance.
func (o *Overlay) maxMinSubset(pool []ringEntry, k int) []int {
	n := len(pool)
	lat := o.lat[:n*n]
	for i := range lat {
		lat[i] = -1 // not yet measured
	}
	// Seed with the candidate farthest from the owning node.
	best := 0
	for i := 1; i < n; i++ {
		if pool[i].lat > pool[best].lat {
			best = i
		}
	}
	sel, rest := append(o.sel[:0], best), o.rest[:0]
	for i := range pool {
		if i != best {
			rest = append(rest, i)
		}
	}
	for len(sel) < k && len(rest) > 0 {
		bestIdx, bestScore := -1, -1.0
		for i, c := range rest {
			minD := math.Inf(1)
			for _, s := range sel {
				d := lat[c*n+s]
				if d < 0 {
					d = o.net.MaintProbe(pool[c].id, pool[s].id)
					lat[c*n+s], lat[s*n+c] = d, d
				}
				if d < minD {
					minD = d
				}
			}
			if minD > bestScore {
				bestScore, bestIdx = minD, i
			}
		}
		sel = append(sel, rest[bestIdx])
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
	}
	return sel
}

// hypervolumeSubset greedily selects k of pool (as pool indices) spanning
// the largest polytope. Each candidate is represented by its latency vector
// to the already-selected members; the candidate whose vector lies farthest
// from the affine span of the selected set (Gram–Schmidt residual) adds the
// most volume. Under the clustering condition all residuals are nearly
// equal — the geometric fact the paper exploits — so the choice degenerates
// gracefully to arbitrary.
//
// That is also why the arithmetic is pinned: which of several near-tied
// candidates wins hangs on the last bits of the residuals, so every sum,
// product and difference keeps the operand order of the original kernel
// that reference_test.go preserves, and no product is fused into the sum
// or difference it feeds. Candidates are scored scoreBlock at a time
// (score), each in its own lane, and compared in pool order with a
// strict >, so the winner is the one the one-at-a-time loop picked.
func (o *Overlay) hypervolumeSubset(pool []ringEntry, k int) []int {
	n := len(pool)
	lat := o.lat[:n*n]
	ids := o.ids[:n]
	for i, e := range pool {
		ids[i] = e.id
	}

	// Start with the farthest pair (exact farthest pair costs O(c²)
	// probes; Meridian's gossip budget is similar, and the pool is capped).
	// The sweep measures every pair, a row at a time in the same i<j order
	// as one probe per pair, so everything after it is a lookup.
	bestI, bestJ, bestD := 0, 1, -1.0
	for i := 0; i < n; i++ {
		lat[i*n+i] = 0
		row := lat[i*n+i+1 : i*n+n]
		o.net.MaintProbeRow(ids[i], ids[i+1:], row)
		for x, d := range row {
			j := i + 1 + x
			lat[j*n+i] = d
			if d > bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	sel := append(o.sel[:0], bestI)
	if k > 1 {
		sel = append(sel, bestJ)
	}
	rest := o.rest[:0]
	for c := range pool {
		if !slices.Contains(sel, c) {
			rest = append(rest, c)
		}
	}

	// Gram–Schmidt residual selection: coordinates of candidate c are its
	// latencies to the selected members, taken relative to the first's.
	for len(sel) < k && len(rest) > 0 {
		origin, basis := o.span(lat, n, sel)
		best := o.farthest(lat, n, rest, sel, origin, basis)
		if best < 0 {
			break
		}
		sel = append(sel, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	return sel
}

// span returns sel[0]'s coordinates — its latencies to sel — and an
// orthonormal basis of the selected members' affine span through them,
// rows of len(sel) back to back. A member (numerically) inside the span of
// the ones before it adds no row.
func (o *Overlay) span(lat []float64, n int, sel []int) (origin, basis []float64) {
	dim := len(sel)
	origin = o.origin[:dim]
	for j, s := range sel {
		origin[j] = lat[sel[0]*n+s]
	}
	basis = o.basis[:0]
	for _, s := range sel[1:] {
		b := basis[len(basis) : len(basis)+dim]
		for j, t := range sel {
			b[j] = lat[s*n+t] - origin[j]
		}
		for e := 0; e < len(basis); e += dim {
			q := basis[e : e+dim]
			p := dot(b, q)
			for j := range b {
				// The conversion rounds the product before the
				// subtraction, as the original's intermediate slice did;
				// without it an FMA target may fuse.
				b[j] -= float64(q[j] * p)
			}
		}
		if nrm := norm(b); nrm > 1e-9 {
			inv := 1 / nrm
			for j := range b {
				b[j] *= inv
			}
			basis = basis[:len(basis)+dim]
		}
	}
	return origin, basis
}

// farthest returns the index in rest of the candidate whose latency vector
// to sel, relative to origin, has the largest residual against basis: the
// first in pool order among equals, or -1 if no residual exceeds -1.
func (o *Overlay) farthest(lat []float64, n int, rest, sel []int, origin, basis []float64) int {
	best, bestRes := -1, -1.0
	for b := 0; b < len(rest); b += scoreBlock {
		// rows holds where each candidate's row starts in lat. A short
		// last block repeats its last candidate, so every lane holds a
		// real latency vector.
		var rows [scoreBlock]int
		for l := range rows {
			rows[l] = rest[min(b+l, len(rest)-1)] * n
		}
		lanes := min(scoreBlock, len(rest)-b)
		for l, r := range o.score(lat, n, rows, lanes, sel, origin, basis)[:lanes] {
			if r > bestRes {
				bestRes, best = r, b+l
			}
		}
	}
	return best
}

// scoreBlock is how many candidates one score pass takes.
const scoreBlock = 16

// scorePortable returns the Gram–Schmidt residual norms of the candidates
// whose lat rows start at rows[0], ..., rows[lanes-1] (and of repeats of
// the last up to a multiple of four), scored four at a time by residuals.
func (o *Overlay) scorePortable(lat []float64, n int, rows [scoreBlock]int, lanes int, sel []int, origin, basis []float64) *[scoreBlock]float64 {
	for q := 0; q < lanes; q += 4 {
		r := o.residuals(lat, n, [4]int(rows[q:q+4]), sel, origin, basis)
		copy(o.res[q:], r[:])
	}
	return &o.res
}

// residuals returns the Gram–Schmidt residual norms of the candidates whose
// lat rows start at rows[0], ..., rows[3]: each one's latency vector to
// sel, relative to origin, with its projection onto every basis row
// removed. The lanes share no arithmetic; each is, operation for
// operation, the one-candidate loop — v[j] = lat - origin[j], p +=
// v[i]*b[i] left to right, v[j] -= p*b[j], the root of a left-to-right sum
// of squares — so four independent add chains overlap instead of running
// back to back. Every product is converted to float64, which rounds it
// before the sum or difference it feeds: without that an FMA target
// (arm64) may fuse the two and move the last bit a tie-break hangs on.
func (o *Overlay) residuals(lat []float64, n int, rows [4]int, sel []int, origin, basis []float64) [4]float64 {
	dim := len(sel)
	r0 := lat[rows[0]:][:n]
	r1 := lat[rows[1]:][:n]
	r2 := lat[rows[2]:][:n]
	r3 := lat[rows[3]:][:n]
	v0, v1, v2, v3 := o.v[0][:dim], o.v[1][:dim], o.v[2][:dim], o.v[3][:dim]
	for j, s := range sel {
		org := origin[j]
		v0[j] = r0[s] - org
		v1[j] = r1[s] - org
		v2[j] = r2[s] - org
		v3[j] = r3[s] - org
	}
	for e := 0; e < len(basis); e += dim {
		b := basis[e : e+dim]
		var p0, p1, p2, p3 float64
		for i, bi := range b {
			p0 += float64(v0[i] * bi)
			p1 += float64(v1[i] * bi)
			p2 += float64(v2[i] * bi)
			p3 += float64(v3[i] * bi)
		}
		for j, bj := range b {
			v0[j] -= float64(p0 * bj)
			v1[j] -= float64(p1 * bj)
			v2[j] -= float64(p2 * bj)
			v3[j] -= float64(p3 * bj)
		}
	}
	var s0, s1, s2, s3 float64
	for i, x0 := range v0 {
		x1, x2, x3 := v1[i], v2[i], v3[i]
		s0 += float64(x0 * x0)
		s1 += float64(x1 * x1)
		s2 += float64(x2 * x2)
		s3 += float64(x3 * x3)
	}
	return [4]float64{math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)}
}

// dot rounds each product before adding it, as residuals does.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// FindNearest runs a Meridian closest-node query for target, starting at a
// random member. It implements the paper's description: the current node
// measures its distance d to the target, asks ring members at about that
// distance (within (1±β)·d) to probe the target, and forwards the query to
// the closest reporting node provided it improves d by at least a factor β;
// otherwise the query stops with the best node seen.
func (o *Overlay) FindNearest(target int) overlay.Result {
	start := o.members[o.src.Intn(len(o.members))]
	return o.findFrom(start, target)
}

func (o *Overlay) findFrom(start, target int) overlay.Result {
	cur := start
	gen := o.nextGen()
	o.seen[cur], o.seen[target] = gen, gen
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
		lo, hi := (1-o.cfg.Beta)*d, (1+o.cfg.Beta)*d

		// Collect ring members at about the target's distance. With no
		// distance estimate yet (the query started at the searcher itself)
		// every ring member is a candidate.
		cands := o.cands[:0]
		off := o.ringOffsets(cur)
		for _, e := range o.rings[off[0]:off[len(off)-1]] {
			if (math.IsInf(d, 1) || (e.lat >= lo && e.lat <= hi)) && o.seen[e.id] != gen {
				cands = append(cands, e.id)
			}
		}
		o.cands = cands
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
		o.seen[cur] = gen
		d = minLat
		hops++
	}
	return overlay.Result{Peer: bestID, LatencyMs: bestLat, Probes: probes, Hops: hops}
}

// Members returns the overlay membership (for tests and experiments).
func (o *Overlay) Members() []int { return o.members }

// RingsOf returns a copy of a member's rings: ring index -> member ids
// (for tests).
func (o *Overlay) RingsOf(id int) [][]int {
	off := o.ringOffsets(id)
	rings := make([][]int, numRings)
	for r := range rings {
		for _, e := range o.rings[off[r]:off[r+1]] {
			rings[r] = append(rings[r], e.id)
		}
	}
	return rings
}

// RingLatOf returns the latency a member measured to one of its ring
// members (for tests).
func (o *Overlay) RingLatOf(id, member int) (float64, bool) {
	off := o.ringOffsets(id)
	for _, e := range o.rings[off[0]:off[len(off)-1]] {
		if e.id == member {
			return e.lat, true
		}
	}
	return 0, false
}
