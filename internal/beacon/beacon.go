// Package beacon implements the two centralised beacon-server approaches
// of the paper's Section 6: Guyton–Schwartz triangulation (SIGCOMM 1995),
// which estimates client-server distances from beacon measurements with
// Hotz's metric, and Beaconing (Kommareddy, Shankar, Bhattacharjee — ICNP
// 2001), where each beacon returns the set of peers at about the same
// latency from itself as the querier and the querier probes that set.
//
// Both degrade identically under the clustering condition: most
// end-networks host no beacon, so all peers of a cluster sit at nearly the
// same latency from every beacon and become indistinguishable.
package beacon

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// The infrastructure deploys 12 beacons and uses a ±15% band.
const (
	// maxBeacons is the number of beacon servers drawn from the members;
	// a membership smaller than that makes every member a beacon.
	maxBeacons = 12
	// tolerance is Beaconing's "about the same latency" band: a member
	// qualifies if its beacon latency is within (1±tolerance)× the
	// querier's.
	tolerance = 0.15
	// maxCandidates caps how many returned peers the querier probes
	// (closest-estimate first).
	maxCandidates = 64
)

// Infrastructure holds the beacon deployment: each beacon has measured its
// latency to every member (maintenance, as these are standing measurements
// the servers keep fresh).
type Infrastructure struct {
	net     *overlay.Network
	members []int
	beacons []int
	// lat[b][m] is the latency from beacon index b to member m.
	lat []map[int]float64
	src *rng.Source
}

// New deploys beacons on a random subset of min(12, len(members)) members
// and takes the standing measurements.
func New(net *overlay.Network, members []int, seed int64) *Infrastructure {
	if len(members) == 0 {
		panic("beacon: no members to deploy beacons on")
	}
	src := rng.New(seed)
	perm := src.Perm(len(members))
	inf := &Infrastructure{
		net:     net,
		members: append([]int(nil), members...),
		src:     src,
	}
	for i := 0; i < min(maxBeacons, len(members)); i++ {
		inf.beacons = append(inf.beacons, members[perm[i]])
	}
	for _, b := range inf.beacons {
		row := make(map[int]float64, len(members))
		for _, m := range members {
			if m != b {
				row[m] = net.MaintProbe(b, m)
			}
		}
		inf.lat = append(inf.lat, row)
	}
	return inf
}

// Beacons returns the beacon hosts.
func (inf *Infrastructure) Beacons() []int { return inf.beacons }

// GuytonSchwartz is the triangulation finder: the target measures its
// latency to every beacon (query probes); each member's distance is then
// estimated with Hotz's metric — the midpoint of the triangulation bounds
// max_b |d(b,m) − d(b,t)| ≤ d(m,t) ≤ min_b (d(b,m) + d(b,t)) — and the
// member with the least estimate is returned (verified with one probe).
type GuytonSchwartz struct {
	Inf *Infrastructure
}

// FindNearest implements overlay.Finder.
func (g *GuytonSchwartz) FindNearest(target int) overlay.Result {
	inf := g.Inf
	var probes int64
	toBeacon := make([]float64, len(inf.beacons))
	for i, b := range inf.beacons {
		toBeacon[i] = inf.net.Probe(target, b)
		probes++
	}
	best := inf.gsBest(toBeacon, target)
	lat := inf.net.Probe(target, best)
	probes++
	return overlay.Result{Peer: best, LatencyMs: lat, Probes: probes, Hops: 0}
}

// gsBest is the Guyton–Schwartz estimation step: given the querier's
// measured beacon latencies, return the member with the least Hotz midpoint
// estimate (the querier itself excluded). NaN entries mark beacons the
// querier could not measure (a wire probe lost) and contribute no bound.
// Shared by the static finder and the wire deployment's estimation server.
func (inf *Infrastructure) gsBest(toBeacon []float64, exclude int) int {
	best, bestEst := -1, math.Inf(1)
	for _, m := range inf.members {
		if m == exclude {
			continue
		}
		lower, upper := 0.0, math.Inf(1)
		for i := range inf.beacons {
			if math.IsNaN(toBeacon[i]) {
				continue
			}
			bm, ok := inf.lat[i][m]
			if !ok { // m is this beacon
				bm = 0
			}
			if l := math.Abs(bm - toBeacon[i]); l > lower {
				lower = l
			}
			if u := bm + toBeacon[i]; u < upper {
				upper = u
			}
		}
		est := (lower + upper) / 2
		if est < bestEst {
			best, bestEst = m, est
		}
	}
	return best
}

// Beaconing is the ICNP 2001 finder: each beacon returns the members whose
// latency to it falls within the tolerance band around the target's; the
// target probes the intersection (falling back to the union when the
// intersection is empty), closest Hotz estimate first, and returns the best
// probed peer.
type Beaconing struct {
	Inf *Infrastructure
}

// FindNearest implements overlay.Finder.
func (b *Beaconing) FindNearest(target int) overlay.Result {
	inf := b.Inf
	var probes int64
	toBeacon := make([]float64, len(inf.beacons))
	for i, bc := range inf.beacons {
		toBeacon[i] = inf.net.Probe(target, bc)
		probes++
	}
	// Count, per member, how many beacons place it in the band.
	votes := make(map[int]int)
	for i := range inf.beacons {
		for _, m := range inf.bandMembers(i, toBeacon[i], target) {
			votes[m]++
		}
	}
	if len(votes) == 0 {
		// Degenerate: fall back to probing a random member.
		m := inf.members[inf.src.Intn(len(inf.members))]
		l := inf.net.Probe(target, m)
		probes++
		return overlay.Result{Peer: m, LatencyMs: l, Probes: probes, Hops: 0}
	}
	// Prefer members every beacon agrees on; rank by vote count then by
	// the triangulation lower bound.
	lower := func(m int) float64 {
		var lo float64
		for i := range inf.beacons {
			if l, ok := inf.lat[i][m]; ok {
				if d := math.Abs(l - toBeacon[i]); d > lo {
					lo = d
				}
			}
		}
		return lo
	}
	ranked := rankBand(votes, lower)
	best, bestLat := -1, math.Inf(1)
	for _, m := range ranked {
		l := inf.net.Probe(target, m)
		probes++
		if l < bestLat {
			best, bestLat = m, l
		}
	}
	return overlay.Result{Peer: best, LatencyMs: bestLat, Probes: probes, Hops: 0}
}

// bandMembers returns the members whose standing latency to beacon index b
// falls inside the tolerance band around the querier's own measurement
// (the querier itself excluded) — one beacon's answer in the Beaconing
// scheme. Shared by the static finder and the wire deployment's per-beacon
// band handler.
func (inf *Infrastructure) bandMembers(b int, toBeacon float64, exclude int) []int {
	lo := toBeacon * (1 - tolerance)
	hi := toBeacon * (1 + tolerance)
	var out []int
	for _, m := range inf.members {
		if m == exclude {
			continue
		}
		if l, ok := inf.lat[b][m]; ok && l >= lo && l <= hi {
			out = append(out, m)
		}
	}
	return out
}

// rankBand orders Beaconing's band candidates: most beacon votes first,
// then smallest triangulation lower bound, then id, capped at
// maxCandidates. Shared by the static finder and the wire deployment so
// both legs probe the identical candidate list.
func rankBand(votes map[int]int, lower func(m int) float64) []int {
	type cand struct {
		id    int
		votes int
		est   float64
	}
	cands := make([]cand, 0, len(votes))
	for m, v := range votes {
		cands = append(cands, cand{id: m, votes: v, est: lower(m)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		if cands[i].est != cands[j].est {
			return cands[i].est < cands[j].est
		}
		return cands[i].id < cands[j].id
	})
	out := make([]int, min(maxCandidates, len(cands)))
	for i := range out {
		out[i] = cands[i].id
	}
	return out
}
