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

// Validate reports a configuration NewClustered cannot build a matrix
// from, so a front end can turn a bad flag into a message instead of
// NewClustered's panic. Because the matrix is computed rather than filled
// through Dense.Set, this is also the guard against negative latencies: a
// negative or NaN IntraENMs or hub-mean bound would otherwise be priced.
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
	case !(c.IntraENMs >= 0):
		return fmt.Errorf("latency: IntraENMs %v must be non-negative", c.IntraENMs)
	case !(c.HubMeanMinMs >= 0):
		return fmt.Errorf("latency: HubMeanMinMs %v must be non-negative", c.HubMeanMinMs)
	case !(c.HubMeanMaxMs >= c.HubMeanMinMs):
		return fmt.Errorf("latency: HubMeanMaxMs %v below HubMeanMinMs %v", c.HubMeanMaxMs, c.HubMeanMinMs)
	}
	return nil
}

// Clustered is the Section 4 latency matrix, computed entry by entry from
// each peer's end-network, cluster and hub latency and the hub-to-hub
// table, so it costs O(n + clusters²) memory instead of a dense table's
// O(n²). Latency rules (paper, Section 4):
//   - peers in one end-network: IntraENMs (100 µs), and identical latencies
//     to everyone else;
//   - peers in different end-networks of one cluster: hub(i) + hub(j);
//   - peers in different clusters: hub(i) + hubDist(ci, cj) + hub(j).
//
// Its per-peer slices are the ones in the GroundTruth NewClustered returns,
// which is therefore read-only.
type Clustered struct {
	en, cluster []int
	hubLat      []float64
	hubs        *Dense
	intraEN     float64
}

// NewClustered builds the Section 4 model: clusters of end-networks around
// hubs, hub-to-hub distances from a synthetic Meridian-like dataset,
// PeersPerEN peers per end-network. It panics on a configuration Validate
// rejects.
func NewClustered(cfg ClusteredConfig, seed int64) (*Clustered, *GroundTruth) {
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

	// A cluster's end-network count is drawn from [lo, hi] when the spread
	// leaves a range. Every per-peer slice is sized for hi, so building
	// costs no append re-copies.
	lo, hi := cfg.ENsPerCluster, cfg.ENsPerCluster
	if cfg.ENSpread > 0 {
		lo = int(float64(cfg.ENsPerCluster) * (1 - cfg.ENSpread))
		hi = int(float64(cfg.ENsPerCluster) * (1 + cfg.ENSpread))
	}
	maxPeers := nClusters * hi * cfg.PeersPerEN
	gt := &GroundTruth{
		ENOf:        make([]int, 0, maxPeers),
		ClusterOf:   make([]int, 0, maxPeers),
		HubLatMs:    make([]float64, 0, maxPeers),
		PeersInEN:   make(map[int][]int, nClusters*hi),
		NumClusters: nClusters,
	}
	enIndex := 0
	for c := 0; c < nClusters; c++ {
		csrc := src.SplitN("cluster", c)
		mean := csrc.Uniform(cfg.HubMeanMinMs, cfg.HubMeanMaxMs)
		nENs := cfg.ENsPerCluster
		if hi > lo {
			nENs = lo + csrc.Intn(hi-lo+1)
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
			first := len(gt.ENOf)
			for p := 0; p < cfg.PeersPerEN; p++ {
				gt.ENOf = append(gt.ENOf, enIndex)
				gt.ClusterOf = append(gt.ClusterOf, c)
				gt.HubLatMs = append(gt.HubLatMs, hubLat)
			}
			members := make([]int, cfg.PeersPerEN)
			for p := range members {
				members[p] = first + p
			}
			gt.PeersInEN[enIndex] = members
			enIndex++
		}
	}
	gt.NumENs = enIndex

	m := &Clustered{en: gt.ENOf, cluster: gt.ClusterOf, hubLat: gt.HubLatMs, hubs: hubs, intraEN: cfg.IntraENMs}
	return m, gt
}

// BuildClustered is NewClustered materialised as a *Dense: the same
// entries, bit for bit, in an n×n table.
func BuildClustered(cfg ClusteredConfig, seed int64) (*Dense, *GroundTruth) {
	m, gt := NewClustered(cfg, seed)
	return m.Dense(), gt
}

// N returns the peer count.
func (m *Clustered) N() int { return len(m.en) }

// LatencyMs returns the RTT between peers i and j. A cross-cluster sum is
// taken from the lower index, the order the dense fill always used: the
// rounding of a three-term float sum depends on its order.
func (m *Clustered) LatencyMs(i, j int) float64 {
	switch {
	case i == j:
		return 0
	case m.en[i] == m.en[j]:
		return m.intraEN
	case m.cluster[i] == m.cluster[j]:
		return m.hubLat[i] + m.hubLat[j]
	case j < i:
		i, j = j, i
	}
	return m.hubLat[i] + m.hubs.LatencyMs(m.cluster[i], m.cluster[j]) + m.hubLat[j]
}

// gatherRow is LatencyMs(i, js[k]) for every k, with peer i's end-network,
// cluster, hub latency and hub-table row looked up once.
func (m *Clustered) gatherRow(i int, js []int, out []float64) {
	en, cl, hi := m.en[i], m.cluster[i], m.hubLat[i]
	hubRow := m.hubs.Row(cl)
	for k, j := range js {
		var lat float64
		switch {
		case j == i:
		case m.en[j] == en:
			lat = m.intraEN
		case m.cluster[j] == cl:
			lat = hi + m.hubLat[j]
		case i < j:
			lat = hi + hubRow[m.cluster[j]] + m.hubLat[j]
		default:
			lat = m.hubLat[j] + hubRow[m.cluster[j]] + hi
		}
		out[k] = lat
	}
}

// Dense materialises the matrix as an n×n table.
func (m *Clustered) Dense() *Dense {
	n := m.N()
	d := NewDense(n)
	js := make([]int, n)
	for j := range js {
		js[j] = j
	}
	for i := 0; i < n; i++ {
		m.gatherRow(i, js, d.Row(i))
	}
	return d
}
