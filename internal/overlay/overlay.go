// Package overlay provides the plumbing every nearest-peer algorithm in
// this repository shares: a probe-counting view of a latency matrix, the
// member/target split of the paper's Section 4 methodology, and the common
// result type. Probe accounting matters because the paper's core claim is a
// cost claim — under the clustering condition a search degenerates into
// brute-force probing of the cluster — so every algorithm reports exactly
// how many latency measurements it issued.
package overlay

import (
	"fmt"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/rng"
)

// Network is a probe-counting view over a latency matrix. Algorithms must
// measure latencies only through Probe (query-time measurements, the cost
// the paper bounds) or MaintProbe (overlay construction/maintenance
// measurements, accounted separately).
//
// A Network can optionally add measurement noise (SetNoise). The Section 4
// reproduction runs noiseless, like the paper's Meridian simulations; the
// algorithm-comparison ablations run with realistic jitter, because schemes
// that rank peers by sub-millisecond latency differences (beacon
// triangulation in particular) would otherwise exploit the simulator's
// infinite precision — precision the paper's clustering condition expressly
// denies them ("latencies close enough that the algorithm cannot reliably
// distinguish the peers").
type Network struct {
	m           latency.Matrix
	queryProbes int64
	maintProbes int64
	jitterFrac  float64
	floorMs     float64
	noiseSrc    *rng.Source
}

// NewNetwork wraps a matrix.
func NewNetwork(m latency.Matrix) *Network { return &Network{m: m} }

// SetNoise enables multiplicative jitter (standard deviation jitterFrac)
// plus a uniform additive floor on every probe.
func (n *Network) SetNoise(jitterFrac, floorMs float64, seed int64) {
	n.jitterFrac = jitterFrac
	n.floorMs = floorMs
	n.noiseSrc = rng.New(seed)
}

// N returns the node population size.
func (n *Network) N() int { return n.m.N() }

func (n *Network) observe(ms float64) float64 {
	if n.noiseSrc == nil {
		return ms
	}
	ms *= 1 + n.jitterFrac*n.noiseSrc.NormFloat64()
	ms += n.noiseSrc.Float64() * n.floorMs
	if ms < 0.01 {
		ms = 0.01
	}
	return ms
}

// Probe measures the latency between two nodes as part of query execution.
func (n *Network) Probe(i, j int) float64 {
	n.queryProbes++
	return n.observe(n.m.LatencyMs(i, j))
}

// MaintProbe measures a latency during overlay construction/maintenance.
func (n *Network) MaintProbe(i, j int) float64 {
	n.maintProbes++
	return n.observe(n.m.LatencyMs(i, j))
}

// MaintProbeRow measures i against every node of js as maintenance, into
// row[:len(js)]: the same count, values and noise draws, in the same
// order, as one MaintProbe(i, j) per element of js.
func (n *Network) MaintProbeRow(i int, js []int, row []float64) {
	n.maintProbes += int64(len(js))
	row = row[:len(js)]
	latency.GatherRow(n.m, i, js, row)
	if n.noiseSrc != nil {
		for k, ms := range row {
			row[k] = n.observe(ms)
		}
	}
}

// QueryProbes returns the number of query-time probes issued so far.
func (n *Network) QueryProbes() int64 { return n.queryProbes }

// MaintProbes returns the number of maintenance probes issued so far.
func (n *Network) MaintProbes() int64 { return n.maintProbes }

// ResetQueryProbes zeroes the query-probe counter (per-experiment hygiene).
func (n *Network) ResetQueryProbes() { n.queryProbes = 0 }

// Result is the outcome of one nearest-peer query.
type Result struct {
	// Peer is the member the algorithm returned as closest to the target
	// (-1 when the query failed outright).
	Peer int
	// LatencyMs is the true latency between target and Peer.
	LatencyMs float64
	// Probes is the number of query-time latency measurements used.
	Probes int64
	// Hops is the number of overlay nodes that handled the query.
	Hops int
}

// Finder is a nearest-peer algorithm bound to an overlay of members.
type Finder interface {
	// FindNearest locates the member closest to target (a node index in
	// the underlying matrix; the target itself need not be a member).
	FindNearest(target int) Result
}

// Split partitions the population [0, n) into overlay members and held-out
// targets, mirroring the paper's setup: ~2,400 of ~2,500 peers join the
// overlay, the remaining 100 serve as query targets. The permutation is
// deterministic in seed.
func Split(n, nTargets int, seed int64) (members, targets []int) {
	if nTargets >= n {
		panic(fmt.Sprintf("overlay: nTargets %d >= population %d", nTargets, n))
	}
	perm := permute(n, seed)
	targets = perm[:nTargets]
	members = perm[nTargets:]
	return members, targets
}

// permute is a Fisher-Yates shuffle with splitmix64 steps, independent of
// math/rand so the split stays stable even if stdlib internals change.
func permute(n int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	x := uint64(seed) ^ 0x9E3779B97F4A7C15
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TrueNearest returns the member with the smallest true latency to target —
// the oracle every algorithm is scored against.
func TrueNearest(m latency.Matrix, target int, members []int) Result {
	best, bestLat := -1, 0.0
	for _, c := range members {
		if c == target {
			continue
		}
		l := m.LatencyMs(target, c)
		if best < 0 || l < bestLat {
			best, bestLat = c, l
		}
	}
	return Result{Peer: best, LatencyMs: bestLat}
}
