package vivaldi

import (
	"math"
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

func TestCoordDistanceSymmetric(t *testing.T) {
	a, b := NewCoord(3), NewCoord(3)
	a.Vec = []float64{1, 2, 3}
	a.Height = 2
	b.Vec = []float64{4, 6, 3}
	b.Height = 1
	want := 5.0 + 3
	if d := a.DistanceMs(b); math.Abs(d-want) > 1e-12 {
		t.Fatalf("distance = %v, want %v", d, want)
	}
	if a.DistanceMs(b) != b.DistanceMs(a) {
		t.Fatal("distance not symmetric")
	}
}

func TestClone(t *testing.T) {
	a := NewCoord(2)
	a.Vec[0] = 5
	c := a.Clone()
	c.Vec[0] = 9
	if a.Vec[0] != 5 {
		t.Fatal("clone aliases the original")
	}
}

func TestEmbeddingConvergesEuclidean(t *testing.T) {
	// A genuinely low-dimensional space must embed well: median relative
	// error clearly under 30%.
	m := testmat.Euclidean(150, 1)
	net := overlay.NewNetwork(m)
	members := make([]int, m.N())
	for i := range members {
		members[i] = i
	}
	sys := Build(net, members, 7)
	if err := sys.MedianAbsRelErr(400); err > 0.30 {
		t.Fatalf("median relative error %v in Euclidean space", err)
	}
}

func TestClusterPeersCollapse(t *testing.T) {
	// The paper's Section 2.2 low-dimensionality failure, stated
	// precisely: the height model can represent the *star* structure of a
	// cluster (heights absorb hub latencies), but it cannot give each
	// end-network its own position — so (a) the 0.1 ms same-EN pairs are
	// predicted at roughly full cluster latency, and (b) from any peer,
	// the predicted distances to its cluster peers are nearly uniform:
	// the peers are indistinguishable by coordinates.
	m, gt := testmat.Clustered(60, 600, 3)
	net := overlay.NewNetwork(m)
	members := make([]int, m.N())
	for i := range members {
		members[i] = i
	}
	sys := Build(net, members, 7)

	// (a) Same-EN predicted distances are wild overestimates.
	var ratioSum float64
	nPairs := 0
	for _, ps := range gt.PeersInEN {
		if len(ps) < 2 {
			continue
		}
		pred := sys.CoordOf(ps[0]).DistanceMs(sys.CoordOf(ps[1]))
		ratioSum += pred / m.LatencyMs(ps[0], ps[1])
		nPairs++
	}
	if nPairs == 0 {
		t.Fatal("no same-EN pairs")
	}
	if avg := ratioSum / float64(nPairs); avg < 5 {
		t.Fatalf("same-EN predicted/actual = %v; expected coordinates unable to express 100µs pairs", avg)
	}

	// (b) From a peer, predicted distances to its cluster's other peers
	// barely vary relative to what telling ENs apart would require: the
	// coefficient of variation stays small.
	probe := 0
	var dists []float64
	for j := 0; j < m.N(); j++ {
		if j != probe && gt.SameCluster(probe, j) && !gt.SameEN(probe, j) {
			dists = append(dists, sys.CoordOf(probe).DistanceMs(sys.CoordOf(j)))
		}
	}
	if len(dists) < 10 {
		t.Fatal("insufficient cluster peers")
	}
	var mean float64
	for _, d := range dists {
		mean += d
	}
	mean /= float64(len(dists))
	var ss float64
	for _, d := range dists {
		ss += (d - mean) * (d - mean)
	}
	cv := math.Sqrt(ss/float64(len(dists))) / mean
	if cv > 0.5 {
		t.Fatalf("coefficient of variation %v; cluster peers should look indistinguishable", cv)
	}
}

func TestPlaceTargetProbes(t *testing.T) {
	m := testmat.Euclidean(100, 2)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(100, 10, 1)
	sys := Build(net, members, 3)
	net.ResetQueryProbes()
	_, probes := sys.PlaceTarget(targets[0], 12)
	if probes != 12 {
		t.Fatalf("probes = %d, want 12", probes)
	}
	if net.QueryProbes() != probes {
		t.Fatal("probe accounting mismatch")
	}
}

func TestFinderEuclidean(t *testing.T) {
	m := testmat.Euclidean(300, 5)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(300, 30, 2)
	sys := Build(net, members, 3)
	f := &Finder{Sys: sys}

	good := 0
	for _, tgt := range targets {
		res := f.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.Peer == oracle.Peer || res.LatencyMs <= 2*oracle.LatencyMs+0.5 {
			good++
		}
		if res.Probes < 16 {
			t.Fatalf("probes = %d, expected at least the placement probes", res.Probes)
		}
	}
	if good < len(targets)*2/3 {
		t.Fatalf("only %d/%d queries near-optimal in Euclidean space", good, len(targets))
	}
}

func TestErrStaysBounded(t *testing.T) {
	m := testmat.Euclidean(80, 11)
	net := overlay.NewNetwork(m)
	members := make([]int, m.N())
	for i := range members {
		members[i] = i
	}
	sys := Build(net, members, 5)
	for _, id := range members {
		c := sys.CoordOf(id)
		if c.Err < 0.01-1e-12 || c.Err > 1+1e-12 {
			t.Fatalf("error estimate %v out of bounds", c.Err)
		}
		if c.Height < 0 {
			t.Fatalf("negative height %v", c.Height)
		}
		for _, v := range c.Vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("coordinate diverged")
			}
		}
	}
}
