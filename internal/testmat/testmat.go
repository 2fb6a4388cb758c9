// Package testmat provides shared latency-matrix fixtures for algorithm
// tests: a well-behaved Euclidean space where every nearest-peer scheme
// should do well, and a strongly clustered space where the paper predicts
// they all fail to find the exact closest peer.
package testmat

import (
	"math"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/rng"
)

// Euclidean returns an n-node matrix with points uniform in a 100×100 box
// and latency = Euclidean distance + 0.01 ms.
func Euclidean(n int, seed int64) *latency.Dense {
	src := rng.New(seed)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{src.Uniform(0, 100), src.Uniform(0, 100)}
	}
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
			m.Set(i, j, math.Hypot(dx, dy)+0.01)
		}
	}
	return m
}

// Clustered returns a Section 4 matrix with the given end-networks per
// cluster and total peers, δ=0.2.
func Clustered(ensPerCluster, totalPeers int, seed int64) (*latency.Clustered, *latency.GroundTruth) {
	cfg := latency.DefaultClusteredConfig()
	cfg.ENsPerCluster = ensPerCluster
	cfg.TotalPeers = totalPeers
	return latency.NewClustered(cfg, seed)
}
