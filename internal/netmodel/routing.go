package netmodel

import (
	"math"
	"time"
)

// This file implements the routing model: one-way latencies between any two
// attachment points, the router-level forward path (what traceroute sees),
// and the alternate-path ("shortcut") model responsible for the paper's
// observation that measured latencies undershoot tree-predicted latencies at
// large distances (Section 3.1, Figure 4).

// Hop is one traceroute hop.
type Hop struct {
	Router RouterID
	// RTTms is the round-trip time from the path source to this hop along
	// the tree path, in milliseconds, without measurement noise (the
	// measure package adds noise).
	RTTms float64
	// Valid is false when the router is anonymous (the hop shows '*').
	Valid bool
}

// hubLatencies precomputes the one-way latency between every pair of PoP
// core router sets.
type hubLatencies struct {
	n   int
	lat []float64 // n*n, one-way ms
}

func (h *hubLatencies) oneWay(a, b PoPID) float64 {
	return h.lat[int(a)*h.n+int(b)]
}

// shortcutModel decides, deterministically per unordered host pair, whether
// an alternate path shorter than the routing-tree path exists, and by what
// factor. The probability of a shortcut grows with the tree latency: nearby
// pairs essentially always traverse the common upstream router (the paper's
// validated assumption), while distant, well-connected pairs often have
// shorter alternatives.
type shortcutModel struct {
	seed int64
}

// The alternate-path model's shape.
const (
	// shortcutOnsetMs is the tree one-way latency below which no
	// distance-driven shortcuts exist; the shortcut probability grows from
	// there to shortcutMaxProb at shortcutFullMs.
	shortcutOnsetMs float64 = 6
	shortcutFullMs  float64 = 55
	shortcutMaxProb float64 = 0.5
	// shortcutBaseProb is the distance-independent share of local
	// shortcuts (peering, IXPs).
	shortcutBaseProb float64 = 0.12
	// A shortcut's factor is uniform in [shortcutMinFact, shortcutMaxFact).
	shortcutMinFact float64 = 0.25
	shortcutMaxFact float64 = 0.9
)

// factor returns the multiplicative factor (<= 1) the true latency bears to
// the tree latency for the pair (a, b) whose tree one-way latency is trMs.
func (s *shortcutModel) factor(a, b HostID, trMs float64) float64 {
	if trMs <= 1 {
		return 1
	}
	p := shortcutBaseProb
	if trMs > shortcutOnsetMs {
		p += shortcutMaxProb * (trMs - shortcutOnsetMs) / (shortcutFullMs - shortcutOnsetMs)
	}
	if p > shortcutMaxProb+shortcutBaseProb {
		p = shortcutMaxProb + shortcutBaseProb
	}
	if a > b {
		a, b = b, a
	}
	h := pairHash(s.seed, int64(a), int64(b))
	// First 32 bits decide existence, next bits decide the factor.
	if float64(h&0xFFFFFFFF)/float64(1<<32) >= p {
		return 1
	}
	u := float64((h>>32)&0xFFFFFF) / float64(1<<24)
	return shortcutMinFact + (shortcutMaxFact-shortcutMinFact)*u
}

// pairHash is splitmix64 over a seed and two IDs.
func pairHash(seed, a, b int64) uint64 {
	x := uint64(seed) ^ uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// commonChainDepth returns the length of the shared prefix of two access
// chains (the chains are trees rooted at the PoP core, so a shared prefix is
// exactly a shared upstream path).
func commonChainDepth(a, b *EndNetwork) int {
	n := len(a.Chain)
	if len(b.Chain) < n {
		n = len(b.Chain)
	}
	i := 0
	for i < n && a.Chain[i] == b.Chain[i] {
		i++
	}
	return i
}

// vlanCrossMs is the one-way cost of crossing between two VLANs of one
// end-network.
const vlanCrossMs float64 = 0.15

// TreeOneWayMs returns the one-way latency in milliseconds between two hosts
// along the routing tree (always via the deepest common router / the PoP
// hub / the backbone), ignoring alternate paths.
//
// This is the pricing hot path: it reads the flat per-host table (see
// hotpath.go) instead of the Host/EndNetwork structs, and only falls back
// to the chain walk in the rare same-PoP/different-EN case. Every branch
// reproduces the struct walk's floating-point operation order exactly
// (toCore[a] is precomputed as lan[a]+hub[a], the prefix of the original
// left-to-right sum), so the flattening cannot change a figure byte.
func (t *Topology) TreeOneWayMs(a, b HostID) float64 {
	if a == b {
		return 0
	}
	if a > b {
		// Canonical argument order keeps the floating-point sum identical
		// in both directions, so RTT is exactly symmetric.
		a, b = b, a
	}
	f := &t.flat
	ea, eb := f.en[a], f.en[b]
	if ea == eb {
		lat := f.lan[a] + f.lan[b]
		if f.vlan[a] != f.vlan[b] {
			lat += vlanCrossMs
		}
		return lat
	}
	pa, pb := f.pop[a], f.pop[b]
	if pa != pb {
		// The common case at scale: cross-PoP, four flat loads plus the
		// precomputed hub table.
		return f.toCore[a] + t.hubLat.oneWay(pa, pb) + f.hub[b] + f.lan[b]
	}
	ena, enb := &t.ENs[ea], &t.ENs[eb]
	d := commonChainDepth(ena, enb)
	if d > 0 {
		// Deepest common router: climb only as far as it.
		c := ena.ChainLatMs[d-1]
		return f.lan[a] + (f.hub[a] - c) + (f.hub[b] - c) + f.lan[b]
	}
	return f.toCore[a] + f.hub[b] + f.lan[b]
}

// OneWayMs returns the true one-way latency in milliseconds between two
// hosts, including alternate paths where they exist.
func (t *Topology) OneWayMs(a, b HostID) float64 {
	tree := t.TreeOneWayMs(a, b)
	return tree * t.shortcuts.factor(a, b, tree)
}

// RTTms returns the true round-trip time between two hosts in milliseconds.
func (t *Topology) RTTms(a, b HostID) float64 { return 2 * t.OneWayMs(a, b) }

// RTT returns the true round-trip time between two hosts.
func (t *Topology) RTT(a, b HostID) time.Duration { return Duration(t.RTTms(a, b)) }

// TreeRTTms returns the round-trip time along the routing tree (what ping
// between the pair would see if no alternate path existed; also the RTT a
// measurement host observes toward either of them, since measurement paths
// are tree paths).
func (t *Topology) TreeRTTms(a, b HostID) float64 { return 2 * t.TreeOneWayMs(a, b) }

// hostToRouterOneWayMs returns the one-way tree latency from a host to an
// arbitrary router.
func (t *Topology) hostToRouterOneWayMs(h HostID, r RouterID) float64 {
	hh := &t.Hosts[h]
	en := &t.ENs[hh.EN]
	rt := &t.Routers[r]
	// Router on the host's own access chain?
	for i, cr := range en.Chain {
		if cr == r {
			return hh.LANLatMs + (en.HubLatMs - en.ChainLatMs[i])
		}
	}
	toCore := hh.LANLatMs + en.HubLatMs
	if rt.PoP == en.PoP {
		return toCore + rt.CoreLatMs
	}
	return toCore + t.hubLat.oneWay(en.PoP, rt.PoP) + rt.CoreLatMs
}

// RouterRTTms returns the round-trip time from a host to a router along the
// tree path, in milliseconds (what ping to the router reports, pre-noise).
func (t *Topology) RouterRTTms(h HostID, r RouterID) float64 {
	return 2 * t.hostToRouterOneWayMs(h, r)
}

// Path returns the forward router-level path from host `from` to host `to`,
// as a traceroute run at `from` would reveal it: each hop carries the
// cumulative tree RTT from the source. The destination host itself is not
// included. Multihomed destinations present a different final access chain
// depending on the observing source (deterministically), which is how the
// Section 3.2 pipeline loses peers whose upstream router is not unique
// across vantage points.
func (t *Topology) Path(from, to HostID) []Hop {
	hf, ht := &t.Hosts[from], &t.Hosts[to]
	ef := &t.ENs[hf.EN]
	et := &t.ENs[ht.EN]

	var hops []Hop
	add := func(r RouterID, oneWayMs float64) {
		hops = append(hops, Hop{Router: r, RTTms: 2 * oneWayMs, Valid: !t.Routers[r].Anonymous})
	}

	if hf.EN == ht.EN {
		// Within an end-network the LAN is switch-level: no IP routers.
		return nil
	}

	if ef.PoP == et.PoP {
		d := commonChainDepth(ef, et)
		if d > 0 {
			// Up the source-specific part of the chain to the deepest
			// common router, then down the destination-specific part.
			base := ef.ChainLatMs[d-1]
			for i := len(ef.Chain) - 1; i >= d; i-- {
				add(ef.Chain[i], hf.LANLatMs+(ef.HubLatMs-ef.ChainLatMs[i]))
			}
			common := hf.LANLatMs + (ef.HubLatMs - base)
			add(ef.Chain[d-1], common)
			t.appendDownstream(&hops, common, et, d, to)
			return hops
		}
		// Via the PoP core.
		for i := len(ef.Chain) - 1; i >= 0; i-- {
			add(ef.Chain[i], hf.LANLatMs+(ef.HubLatMs-ef.ChainLatMs[i]))
		}
		atCore := hf.LANLatMs + ef.HubLatMs
		add(t.PoPs[ef.PoP].Core[0], atCore)
		t.appendDownstream(&hops, atCore, et, 0, to)
		return hops
	}

	// Different PoPs: up to the source core, across the backbone, down.
	for i := len(ef.Chain) - 1; i >= 0; i-- {
		add(ef.Chain[i], hf.LANLatMs+(ef.HubLatMs-ef.ChainLatMs[i]))
	}
	atCore := hf.LANLatMs + ef.HubLatMs
	pf, pt := &t.PoPs[ef.PoP], &t.PoPs[et.PoP]
	add(pf.Core[0], atCore)
	hub := t.hubLat.oneWay(ef.PoP, et.PoP)
	if len(pf.Backbone) > 0 {
		add(pf.Backbone[0], atCore+0.25*hub)
	}
	if len(pt.Backbone) > 0 {
		add(pt.Backbone[0], atCore+0.75*hub)
	}
	atDstCore := atCore + hub
	add(pt.Core[0], atDstCore)
	t.appendDownstream(&hops, atDstCore, et, 0, to)
	return hops
}

// appendDownstream appends the destination-side chain hops from index d
// (exclusive of the already-added common/core hop) down to the edge.
// baseOneWay is the cumulative one-way latency at the branch point. When the
// destination is multihomed, the final hop may be replaced by its alternate
// upstream, depending deterministically on the (source EN, destination)
// pair — different vantage points therefore see different upstream routers.
func (t *Topology) appendDownstream(hops *[]Hop, baseOneWay float64, et *EndNetwork, d int, to HostID) {
	ht := &t.Hosts[to]
	var branch float64
	if d > 0 {
		branch = et.ChainLatMs[d-1]
	}
	for i := d; i < len(et.Chain); i++ {
		r := et.Chain[i]
		oneWay := baseOneWay + (et.ChainLatMs[i] - branch)
		last := i == len(et.Chain)-1
		if last && ht.Multihomed && ht.AltUpstream != NoRouter {
			// Half of all observation points route in via the second
			// upstream link.
			if pairHash(t.shortcuts.seed^0x5CA1AB1E, int64(t.Hosts[to].EN), int64(to)^int64((*hops)[0].Router)<<1)&1 == 0 {
				r = ht.AltUpstream
			}
		}
		*hops = append(*hops, Hop{Router: r, RTTms: 2 * oneWay, Valid: !t.Routers[r].Anonymous})
	}
}

// LastValidRouter returns the closest upstream router of `to` as observed
// from `from`: the last hop of the traceroute that answered. Returns
// NoRouter when no hop answered.
func (t *Topology) LastValidRouter(from, to HostID) RouterID {
	hops := t.Path(from, to)
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Valid {
			return hops[i].Router
		}
	}
	return NoRouter
}

// The backbone's latency model.
const (
	// msPerUnit is one-way ms of backbone latency per unit of plane
	// distance.
	msPerUnit float64 = 0.0075
	// An inter-AS peering penalty (one-way ms), fixed per AS pair, is
	// drawn in [interASPenaltyMinMs, interASPenaltyMaxMs).
	interASPenaltyMinMs float64 = 1
	interASPenaltyMaxMs float64 = 6
)

// buildHubLatencies computes PoP-pair one-way latencies from city geometry,
// intra-city and inter-AS penalties, and deterministic per-pair noise.
func buildHubLatencies(t *Topology, seed int64) *hubLatencies {
	n := len(t.PoPs)
	h := &hubLatencies{n: n, lat: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi, pj := &t.PoPs[i], &t.PoPs[j]
			ci, cj := &t.Cities[pi.City], &t.Cities[pj.City]
			dx, dy := ci.X-cj.X, ci.Y-cj.Y
			oneWay := math.Hypot(dx, dy) * msPerUnit
			if pi.City == pj.City {
				// Same metro: short dark-fibre distance.
				oneWay = 0.3
			}
			if pi.AS != pj.AS {
				// Peering detour, fixed per AS pair.
				u := float64(pairHash(seed^0x0BADF00D, int64(pi.AS), int64(pj.AS))&0xFFFF) / 65536.0
				oneWay += interASPenaltyMinMs + u*(interASPenaltyMaxMs-interASPenaltyMinMs)
			}
			// +-12% path irregularity, fixed per PoP pair.
			u := float64(pairHash(seed^0x00C0FFEE, int64(i), int64(j))&0xFFFF)/65536.0*0.24 - 0.12
			oneWay *= 1 + u
			h.lat[i*n+j] = oneWay
			h.lat[j*n+i] = oneWay
		}
	}
	return h
}
