package latency

import (
	"fmt"

	"nearestpeer/internal/rng"
)

// ClusteredConfig parameterises the Section 4 synthetic latency matrix.
// Defaults (via DefaultClusteredConfig) match the paper's setup exactly:
// ~2,500 peers, two peers per end-network, per-cluster mean hub latency
// uniform in [4, 6] ms, intra-end-network latency 100 µs, cluster-hub
// spacing drawn from a Meridian-like dataset with 65 ms median.
type ClusteredConfig struct {
	// ENsPerCluster is the average number of end-networks in a cluster —
	// the x-axis of Figure 8.
	ENsPerCluster int
	// ENSpread is the +- fractional variation of per-cluster end-network
	// counts around ENsPerCluster.
	ENSpread float64
	// PeersPerEN is the number of peers in each end-network (2 in the
	// paper: one overlay peer and, with luck, its same-LAN partner).
	PeersPerEN int
	// TotalPeers is the approximate total population (~2,500).
	TotalPeers int
	// HubMeanMinMs / HubMeanMaxMs bound the per-cluster mean latency
	// between the cluster-hub and its end-networks (4–6 ms).
	HubMeanMinMs float64
	HubMeanMaxMs float64
	// Delta is the paper's δ: each end-network's hub latency is uniform in
	// [(1-δ), (1+δ)] times the cluster mean. δ→0 is the clustering
	// condition at its sharpest.
	Delta float64
	// IntraENMs is the latency between two peers of one end-network
	// (100 µs = 0.1 ms).
	IntraENMs float64
}

// DefaultClusteredConfig returns the paper's Section 4 parameters.
func DefaultClusteredConfig() ClusteredConfig {
	return ClusteredConfig{
		ENsPerCluster: 125,
		ENSpread:      0.2,
		PeersPerEN:    2,
		TotalPeers:    2500,
		HubMeanMinMs:  4,
		HubMeanMaxMs:  6,
		Delta:         0.2,
		IntraENMs:     0.1,
	}
}

// GroundTruth records, for every peer of a clustered matrix, which
// end-network and cluster it belongs to — the information no latency-only
// algorithm has, and exactly what the simulator needs to score results.
type GroundTruth struct {
	// ENOf[i] is the end-network index of peer i.
	ENOf []int
	// ClusterOf[i] is the cluster index of peer i.
	ClusterOf []int
	// HubLatMs[i] is the latency from peer i to its cluster-hub.
	HubLatMs []float64
	// PeersInEN maps an end-network index to its peers.
	PeersInEN map[int][]int
	// NumClusters is the number of clusters generated.
	NumClusters int
	// NumENs is the number of end-networks generated.
	NumENs int
}

// SameEN reports whether peers i and j share an end-network.
func (g *GroundTruth) SameEN(i, j int) bool { return g.ENOf[i] == g.ENOf[j] }

// SameCluster reports whether peers i and j share a cluster.
func (g *GroundTruth) SameCluster(i, j int) bool { return g.ClusterOf[i] == g.ClusterOf[j] }

// ClosestPeer returns the peer among candidates with the smallest latency to
// target (excluding target itself), together with that latency. It is the
// oracle answer a perfect nearest-peer search would produce.
func (g *GroundTruth) ClosestPeer(m Matrix, target int, candidates []int) (int, float64) {
	best, bestLat := -1, 0.0
	for _, c := range candidates {
		if c == target {
			continue
		}
		l := m.LatencyMs(target, c)
		if best < 0 || l < bestLat {
			best, bestLat = c, l
		}
	}
	return best, bestLat
}

// Validate reports a configuration BuildClustered cannot build a matrix
// from, so a front end can turn a bad flag into a message instead of
// BuildClustered's panic.
func (c ClusteredConfig) Validate() error {
	switch {
	case c.PeersPerEN < 1:
		return fmt.Errorf("latency: PeersPerEN %d must be positive", c.PeersPerEN)
	case c.ENsPerCluster < 1:
		return fmt.Errorf("latency: ENsPerCluster %d must be positive", c.ENsPerCluster)
	case c.TotalPeers < c.PeersPerEN:
		return fmt.Errorf("latency: TotalPeers %d must cover one end-network of %d peers", c.TotalPeers, c.PeersPerEN)
	case !(c.Delta >= 0 && c.Delta <= 1):
		return fmt.Errorf("latency: Delta %v outside [0, 1]", c.Delta)
	}
	return nil
}

// BuildClustered constructs the Section 4 latency matrix: clusters of
// end-networks around hubs, hub-to-hub distances from a synthetic
// Meridian-like dataset, two peers per end-network.
//
// Latency rules (paper, Section 4):
//   - peers in one end-network: IntraENMs (100 µs), and identical latencies
//     to everyone else;
//   - peers in different end-networks of one cluster: hub(i) + hub(j);
//   - peers in different clusters: hub(i) + hubDist(ci, cj) + hub(j).
func BuildClustered(cfg ClusteredConfig, seed int64) (*Dense, *GroundTruth) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	src := rng.New(seed)

	peersPerCluster := cfg.ENsPerCluster * cfg.PeersPerEN
	nClusters := cfg.TotalPeers / peersPerCluster
	if nClusters < 1 {
		nClusters = 1
	}

	hubs := SyntheticMeridianDataset(nClusters, src.Split("hubs").Seed())

	gt := &GroundTruth{PeersInEN: make(map[int][]int), NumClusters: nClusters}
	type peerInfo struct {
		en, cluster int
		hubLat      float64
	}
	var peers []peerInfo
	enIndex := 0
	for c := 0; c < nClusters; c++ {
		csrc := src.SplitN("cluster", c)
		mean := csrc.Uniform(cfg.HubMeanMinMs, cfg.HubMeanMaxMs)
		nENs := cfg.ENsPerCluster
		if cfg.ENSpread > 0 {
			lo := int(float64(cfg.ENsPerCluster) * (1 - cfg.ENSpread))
			hi := int(float64(cfg.ENsPerCluster) * (1 + cfg.ENSpread))
			if hi > lo {
				nENs = lo + csrc.Intn(hi-lo+1)
			}
		}
		if nENs < 1 {
			nENs = 1
		}
		for e := 0; e < nENs; e++ {
			// δ: the end-network's hub latency within the cluster.
			hubLat := mean * csrc.Uniform(1-cfg.Delta, 1+cfg.Delta)
			if hubLat < 0.05 {
				hubLat = 0.05
			}
			for p := 0; p < cfg.PeersPerEN; p++ {
				peers = append(peers, peerInfo{en: enIndex, cluster: c, hubLat: hubLat})
			}
			enIndex++
		}
	}
	gt.NumENs = enIndex

	n := len(peers)
	m := NewDense(n)
	gt.ENOf = make([]int, n)
	gt.ClusterOf = make([]int, n)
	gt.HubLatMs = make([]float64, n)
	for i, p := range peers {
		gt.ENOf[i] = p.en
		gt.ClusterOf[i] = p.cluster
		gt.HubLatMs[i] = p.hubLat
		gt.PeersInEN[p.en] = append(gt.PeersInEN[p.en], i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi, pj := peers[i], peers[j]
			var lat float64
			switch {
			case pi.en == pj.en:
				lat = cfg.IntraENMs
			case pi.cluster == pj.cluster:
				lat = pi.hubLat + pj.hubLat
			default:
				lat = pi.hubLat + hubs.LatencyMs(pi.cluster, pj.cluster) + pj.hubLat
			}
			m.Set(i, j, lat)
		}
	}
	return m, gt
}
