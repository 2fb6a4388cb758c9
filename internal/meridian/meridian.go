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
	// RingBase is the inner radius of ring 1 in milliseconds (ring 0
	// covers [0, RingBase)).
	RingBase float64
	// RingMult is the radius multiplier between consecutive rings.
	RingMult float64
	// NumRings bounds the ring count; the outermost ring extends to ∞.
	NumRings int
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
		RingBase:          1,
		RingMult:          2,
		NumRings:          9,
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
	case !(c.RingBase > 0):
		return fmt.Errorf("meridian: RingBase %v must be positive", c.RingBase)
	case !(c.RingMult > 1):
		return fmt.Errorf("meridian: RingMult %v must exceed 1", c.RingMult)
	case c.NumRings <= 0:
		return fmt.Errorf("meridian: NumRings %d must be positive", c.NumRings)
	case c.RingSize <= 0:
		return fmt.Errorf("meridian: RingSize %d must be positive", c.RingSize)
	case !(c.Beta > 0 && c.Beta < 1):
		return fmt.Errorf("meridian: Beta %v outside (0, 1)", c.Beta)
	case c.CandidatesPerNode < 0:
		return fmt.Errorf("meridian: CandidatesPerNode %d must not be negative", c.CandidatesPerNode)
	}
	return nil
}

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
	// members order, ring by ring within a node. ringOff[slot*NumRings+r] is
	// where ring r of that node starts; the next offset is where it ends.
	rings   []ringEntry
	ringOff []int
	src     *rng.Source
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
	lat    [maxSelectionPool * maxSelectionPool]float64 // pool×pool pairwise latencies
	basis  [maxSelectionPool * maxSelectionPool]float64 // orthonormal rows, back to back
	origin [maxSelectionPool]float64                    // the first selected member's coordinates
	v      [maxSelectionPool]float64                    // the candidate being scored
	used   [maxSelectionPool]bool
	sel    [maxSelectionPool]int // selected, in selection order
	rest   [maxSelectionPool]int // maxMinSubset: not yet selected
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
		ringOff: make([]int, 0, len(members)*cfg.NumRings+1),
		src:     rng.New(seed),
		maxHops: 64,
		scratch: scratch{
			byRing: make([][]ringEntry, cfg.NumRings),
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
	if ms < o.cfg.RingBase {
		return 0
	}
	i := 1 + int(math.Log(ms/o.cfg.RingBase)/math.Log(o.cfg.RingMult))
	if i >= o.cfg.NumRings {
		i = o.cfg.NumRings - 1
	}
	return i
}

// ringOffsets returns a member's NumRings+1 offsets into o.rings: ring r is
// o.rings[off[r]:off[r+1]].
func (o *Overlay) ringOffsets(id int) []int {
	s := int(o.slot[id]) * o.cfg.NumRings
	return o.ringOff[s : s+o.cfg.NumRings+1]
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
// that reference_test.go preserves.
func (o *Overlay) hypervolumeSubset(pool []ringEntry, k int) []int {
	n := len(pool)
	lat := o.lat[:n*n]

	// Start with the farthest pair (exact farthest pair costs O(c²)
	// probes; Meridian's gossip budget is similar, and the pool is capped).
	// The sweep measures every pair, so everything after it is a lookup.
	bestI, bestJ, bestD := 0, 1, -1.0
	for i := 0; i < n; i++ {
		lat[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := o.net.MaintProbe(pool[i].id, pool[j].id)
			lat[i*n+j], lat[j*n+i] = d, d
			if d > bestD {
				bestI, bestJ, bestD = i, j, d
			}
		}
	}
	used := o.used[:n]
	clear(used)
	sel := append(o.sel[:0], bestI)
	used[bestI] = true
	if k > 1 {
		sel = append(sel, bestJ)
		used[bestJ] = true
	}

	// Gram–Schmidt residual selection: coordinates of candidate c are its
	// latencies to the selected members, taken relative to the first's.
	for len(sel) < k {
		dim := len(sel)
		origin, v := o.origin[:dim], o.v[:dim]
		for j, s := range sel {
			origin[j] = lat[sel[0]*n+s]
		}
		// Orthonormal basis of the selected members' affine span.
		basis := o.basis[:0]
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
					// subtraction, as the original's intermediate
					// slice did; without it an FMA target may fuse.
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
		best, bestRes := -1, -1.0
		for c := range pool {
			if used[c] {
				continue
			}
			for j, s := range sel {
				v[j] = lat[c*n+s] - origin[j]
			}
			for e := 0; e < len(basis); e += dim {
				b := basis[e : e+dim]
				p := dot(v, b)
				for j := range v {
					v[j] -= p * b[j]
				}
			}
			if res := norm(v); res > bestRes {
				bestRes, best = res, c
			}
		}
		if best < 0 {
			break
		}
		sel = append(sel, best)
		used[best] = true
	}
	return sel
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
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
	rings := make([][]int, o.cfg.NumRings)
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
