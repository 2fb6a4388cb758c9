// The tracker-sample baseline: what a BitTorrent-style client can actually
// do with the peer lists its tracker hands out. The tracker knows nothing
// about the network, so each announce returns a uniform sample of the
// swarm and the client measures the lot — the paper's Section 3 population
// is exactly this kind of swarm, and random sampling is the baseline every
// structured scheme in the grand table is trying to beat.

package azureus

import (
	"math"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// The baseline uses the classic announce size of 30 peers, twice.
const (
	// announceSize is how many peers one tracker announce returns.
	announceSize = 30
	// announceRounds is how many announces a searching client issues.
	announceRounds = 2
)

// Finder probes tracker samples: each round draws announceSize distinct
// members uniformly (the requester excluded) and probes them all; the
// closest responder over all rounds wins. The draw stream lives with the
// tracker, so a Wire built from the same seed serves identical samples.
type Finder struct {
	net     *overlay.Network
	members []int
	src     *rng.Source
}

// NewFinder creates the baseline over a member set.
func NewFinder(net *overlay.Network, members []int, seed int64) *Finder {
	return &Finder{
		net:     net,
		members: append([]int(nil), members...),
		src:     rng.New(seed).Split("azureus"),
	}
}

// sample draws one announce's peer list: announceSize distinct members,
// exclude left out, by partial Fisher–Yates over the eligible pool.
func (f *Finder) sample(exclude int) []int {
	pool := make([]int, 0, len(f.members))
	for _, m := range f.members {
		if m != exclude {
			pool = append(pool, m)
		}
	}
	k := announceSize
	if k > len(pool) {
		k = len(pool)
	}
	for i := 0; i < k; i++ {
		j := i + f.src.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

// FindNearest implements overlay.Finder.
func (f *Finder) FindNearest(target int) overlay.Result {
	best, bestLat := -1, math.Inf(1)
	var probes int64
	for r := 0; r < announceRounds; r++ {
		for _, m := range f.sample(target) {
			l := f.net.Probe(m, target)
			probes++
			if l < bestLat {
				best, bestLat = m, l
			}
		}
	}
	return overlay.Result{Peer: best, LatencyMs: bestLat, Probes: probes, Hops: announceRounds}
}
