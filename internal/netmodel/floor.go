package netmodel

import "sort"

// This file computes latency floors of the generated topology: analytic
// lower bounds on OneWayMs over host pairs, computed once at Generate time
// (never by enumerating the O(N²) pairs — the floors must be available at
// million-host populations). The sharded simulation kernel (internal/sim)
// uses the cross-PoP floor as its conservative lookahead window: hosts are
// partitioned across shards along PoP boundaries (ShardByPoP), so every
// cross-shard message travels at least MinCrossPoPOneWayMs of virtual time
// and a window of that length can execute without inter-shard
// synchronization.
//
// Both floors follow the TreeOneWayMs pricing decomposition exactly
// (routing.go) and then account for the shortcut model: OneWayMs is the
// tree latency times a factor that is either 1 or in [shortcutMinFact, shortcutMaxFact),
// so multiplying a tree-latency lower bound by shortcutMinFact (< 1) bounds the
// true latency from below. A further 0.1% shave absorbs floating-point
// rounding between the bound's summation order and the priced path's, plus
// the sub-nanosecond truncation of the wire layer's duration split.

// latencyFloors holds the Generate-time results.
type latencyFloors struct {
	// minOneWayMs lower-bounds OneWayMs over all distinct host pairs.
	minOneWayMs float64
	// minCrossPoPMs lower-bounds OneWayMs over pairs in different PoPs.
	minCrossPoPMs float64
	// popMinToCore[p] is the smallest flat.toCore among PoP p's hosts
	// (+Inf for a PoP with no hosts); kept for tests and diagnostics.
	popMinToCore []float64
}

// floorSafety absorbs float summation-order differences between the bound
// and the priced path. Shaving the floor down can only make it more
// conservative.
const floorSafety = 0.999

// computeLatencyFloors fills t.floors. Called at the end of Generate,
// after the flat table, the hub latencies and the shortcut model exist.
func computeLatencyFloors(t *Topology) {
	inf := 1e300
	nPoP := len(t.PoPs)
	popMin := make([]float64, nPoP)
	for i := range popMin {
		popMin[i] = inf
	}
	// Per-PoP minimum host-to-core latency, and the global minimum LAN
	// latency: every diff-EN price includes both endpoints' LAN legs (the
	// same-PoP chain walk never climbs below the hosts' own LAN latency,
	// and hub minus any chain prefix is non-negative by construction).
	minLan := inf
	for h := range t.Hosts {
		if tc := t.flat.toCore[h]; tc < popMin[t.flat.pop[h]] {
			popMin[t.flat.pop[h]] = tc
		}
		if l := t.flat.lan[h]; l < minLan {
			minLan = l
		}
	}
	// Same-EN pairs price as lan[a]+lan[b] (plus a non-negative VLAN
	// penalty): the per-EN sum of the two smallest LAN legs bounds them,
	// and 2*minLan bounds every other pair's two LAN legs.
	enTwoSmallest := make(map[ENID][2]float64)
	for h := range t.Hosts {
		en := t.flat.en[h]
		l := t.flat.lan[h]
		pair, ok := enTwoSmallest[en]
		if !ok {
			enTwoSmallest[en] = [2]float64{l, inf}
			continue
		}
		if l < pair[0] {
			pair[0], pair[1] = l, pair[0]
		} else if l < pair[1] {
			pair[1] = l
		}
		enTwoSmallest[en] = pair
	}
	minSameEN := inf
	for _, pair := range enTwoSmallest {
		if pair[1] < inf && pair[0]+pair[1] < minSameEN {
			minSameEN = pair[0] + pair[1]
		}
	}
	// Cross-PoP pairs price as toCore[a] + hub(pa,pb) + toCore[b] (the
	// hub[b]+lan[b] tail sums the same two operands).
	minCross := inf
	for a := 0; a < nPoP; a++ {
		if popMin[a] >= inf {
			continue
		}
		for b := a + 1; b < nPoP; b++ {
			if popMin[b] >= inf {
				continue
			}
			if v := popMin[a] + t.hubLat.oneWay(PoPID(a), PoPID(b)) + popMin[b]; v < minCross {
				minCross = v
			}
		}
	}
	// Shortcut factor: 1 below 1 ms of tree latency, else >= shortcutMinFact.
	fact := shortcutMinFact
	global := 2 * minLan
	if minSameEN < global {
		global = minSameEN
	}
	if minCross < global {
		global = minCross
	}
	t.floors = latencyFloors{
		minOneWayMs:   global * fact * floorSafety,
		minCrossPoPMs: minCross * fact * floorSafety,
		popMinToCore:  popMin,
	}
}

// MinOneWayMs returns a positive lower bound on OneWayMs over all distinct
// host pairs, computed once at Generate time consistently with the
// TreeOneWayMs pricing (per-EN LAN-leg sums, per-PoP core minima, the hub
// table) and the shortcut model's minimum factor.
func (t *Topology) MinOneWayMs() float64 { return t.floors.minOneWayMs }

// MinCrossPoPOneWayMs returns a positive lower bound on OneWayMs over host
// pairs attached to different PoPs. This is the sharded kernel's lookahead
// window: with hosts partitioned along PoP boundaries, every cross-shard
// message is a cross-PoP message and therefore travels at least this long.
func (t *Topology) MinCrossPoPOneWayMs() float64 { return t.floors.minCrossPoPMs }

// PoPOfHost returns the PoP a host attaches to, from the flat table.
func (t *Topology) PoPOfHost(h HostID) PoPID { return t.flat.pop[h] }

// ShardByPoP partitions the hosts into k shards along PoP boundaries and
// returns the per-host shard index. PoPs are assigned whole — that is what
// makes MinCrossPoPOneWayMs a valid lookahead for cross-shard traffic at
// ANY k, including the k=1 baseline — using deterministic greedy LPT on
// host counts (largest PoP first into the least-loaded shard, ties by PoP
// id then shard index), so the shards balance within the largest single
// PoP's population.
func (t *Topology) ShardByPoP(k int) []int32 {
	if k < 1 {
		k = 1
	}
	counts := make([]int, len(t.PoPs))
	for h := range t.Hosts {
		counts[t.flat.pop[h]]++
	}
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})
	load := make([]int, k)
	popShard := make([]int32, len(counts))
	for _, p := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		popShard[p] = int32(best)
		load[best] += counts[p]
	}
	out := make([]int32, len(t.Hosts))
	for h := range t.Hosts {
		out[h] = popShard[t.flat.pop[h]]
	}
	return out
}
