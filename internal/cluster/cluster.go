// Package cluster implements the Section 3.2 measurement pipeline over
// Azureus-style peers: find each peer's closest upstream router from every
// vantage point, keep peers whose upstream router is unique across vantage
// points, group peers by that router into clusters with the router as the
// cluster-hub, estimate hub-to-peer latencies by subtracting the traceroute
// latency to the hub from the latency to the peer, and finally prune every
// cluster so its hub-to-peer latencies lie within a configurable factor of
// one another (1.5 in the paper).
package cluster

import (
	"sort"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// The pipeline's parameters match the paper.
const (
	// pruneFactor is the maximum allowed ratio between the largest and
	// smallest hub-to-peer latency within a pruned cluster.
	pruneFactor = 1.5
	// minClusterSize drops clusters smaller than this (the paper plots
	// clusters of size >= 2).
	minClusterSize = 2
)

// Peer is a pipeline survivor: a responsive peer with a unique upstream
// router and an estimated latency to its cluster-hub.
type Peer struct {
	Host     netmodel.HostID
	Upstream netmodel.RouterID
	// HubLatMs is the estimated RTT between the cluster-hub and the peer
	// in milliseconds (median across vantage points).
	HubLatMs float64
}

// Cluster is a set of peers sharing a closest upstream router.
type Cluster struct {
	Hub   netmodel.RouterID
	Peers []Peer
}

// Size returns the number of peers in the cluster.
func (c *Cluster) Size() int { return len(c.Peers) }

// Result carries the pipeline output and its attrition accounting.
type Result struct {
	// Candidates is the number of input addresses.
	Candidates int
	// Responsive peers answered a TCP ping or traceroute with a latency.
	Responsive int
	// UniqueUpstream peers additionally showed one and the same upstream
	// router from every vantage point.
	UniqueUpstream int
	// Clusters of size >= 2, unpruned.
	Clusters []Cluster
	// Pruned clusters: each is the largest subset of the corresponding
	// cluster whose hub latencies fit within a factor of 1.5.
	Pruned []Cluster
}

// PeersIn returns the total number of peers across the given clusters.
func PeersIn(cs []Cluster) int {
	n := 0
	for i := range cs {
		n += len(cs[i].Peers)
	}
	return n
}

// Run executes the pipeline.
func Run(tools *measure.Tools, vantages []measure.Vantage, candidates []netmodel.HostID) *Result {
	res := &Result{Candidates: len(candidates)}

	byHub := make(map[netmodel.RouterID][]Peer)
	for _, cand := range candidates {
		// Step 1: the peer must yield a latency at all.
		lat0, err := tools.LatencyTo(vantages[0].Host, cand)
		if err != nil {
			continue
		}
		res.Responsive++

		// Step 2: a unique, valid upstream router across all vantages.
		hub := tools.UpstreamRouter(vantages[0].Host, cand)
		if hub == netmodel.NoRouter {
			continue
		}
		unique := true
		for _, v := range vantages[1:] {
			if tools.UpstreamRouter(v.Host, cand) != hub {
				unique = false
				break
			}
		}
		if !unique {
			continue
		}
		res.UniqueUpstream++

		// Step 3: hub-to-peer latency = latency(vantage→peer) minus the
		// traceroute entry for the hub, per vantage; take the median of
		// the non-negative estimates.
		var ests []float64
		for _, v := range vantages {
			var peerMs float64
			if v.Host == vantages[0].Host {
				peerMs = netmodel.Ms(lat0)
			} else {
				d, err := tools.LatencyTo(v.Host, cand)
				if err != nil {
					continue
				}
				peerMs = netmodel.Ms(d)
			}
			hubMs, ok := hubRTTOnTrace(tools, v.Host, cand, hub)
			if !ok {
				continue
			}
			if est := peerMs - hubMs; est > 0 {
				ests = append(ests, est)
			}
		}
		if len(ests) == 0 {
			continue
		}
		sort.Float64s(ests)
		byHub[hub] = append(byHub[hub], Peer{
			Host:     cand,
			Upstream: hub,
			HubLatMs: ests[len(ests)/2],
		})
	}

	// Step 4: clusters, deterministically ordered by hub.
	hubs := make([]netmodel.RouterID, 0, len(byHub))
	for hub := range byHub {
		hubs = append(hubs, hub)
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i] < hubs[j] })
	for _, hub := range hubs {
		peers := byHub[hub]
		if len(peers) < minClusterSize {
			continue
		}
		res.Clusters = append(res.Clusters, Cluster{Hub: hub, Peers: peers})
		if pruned := PruneCluster(peers, pruneFactor); len(pruned) >= minClusterSize {
			res.Pruned = append(res.Pruned, Cluster{Hub: hub, Peers: pruned})
		}
	}
	return res
}

// hubRTTOnTrace finds the measured RTT to the hub router on the traceroute
// from `from` to `to`.
func hubRTTOnTrace(tools *measure.Tools, from, to netmodel.HostID, hub netmodel.RouterID) (float64, bool) {
	for _, hop := range tools.Traceroute(from, to) {
		if hop.Router == hub {
			return netmodel.Ms(hop.RTT), true
		}
	}
	return 0, false
}

// PruneCluster returns the largest subset of peers whose hub latencies are
// all within factor of one another — the paper's "pare down the clusters,
// ensuring that within each cluster, the hub-to-peer latencies are all
// within a factor of 1.5 from one another". With latencies sorted, the
// optimal subset is a contiguous window, found by a linear sweep.
func PruneCluster(peers []Peer, factor float64) []Peer {
	if len(peers) == 0 {
		return nil
	}
	sorted := append([]Peer(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].HubLatMs < sorted[j].HubLatMs })

	bestLo, bestHi := 0, 0 // best window [lo, hi)
	lo := 0
	for hi := 1; hi <= len(sorted); hi++ {
		for sorted[hi-1].HubLatMs > sorted[lo].HubLatMs*factor {
			lo++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	return sorted[bestLo:bestHi]
}

// SizeDistribution returns cluster sizes sorted descending.
func SizeDistribution(cs []Cluster) []int {
	sizes := make([]int, len(cs))
	for i := range cs {
		sizes[i] = len(cs[i].Peers)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// FractionInClustersOfAtLeast returns the fraction of pipeline-surviving
// peers that sit in clusters of at least k peers — the paper's "about 16%
// of the peers are in (pruned) clusters of size 25 or larger".
func FractionInClustersOfAtLeast(cs []Cluster, totalPeers, k int) float64 {
	if totalPeers == 0 {
		return 0
	}
	n := 0
	for i := range cs {
		if len(cs[i].Peers) >= k {
			n += len(cs[i].Peers)
		}
	}
	return float64(n) / float64(totalPeers)
}
