package meridian

import (
	"math"
	"testing"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/rng"
)

// euclideanMatrix builds a well-behaved (doubling) latency space: points
// uniform in a 2-D box, latency = distance. Meridian should excel here.
func euclideanMatrix(n int, seed int64) *latency.Dense {
	src := rng.New(seed)
	xs := make([][2]float64, n)
	for i := range xs {
		xs[i] = [2]float64{src.Uniform(0, 100), src.Uniform(0, 100)}
	}
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i][0]-xs[j][0], xs[i][1]-xs[j][1]
			m.Set(i, j, math.Hypot(dx, dy)+0.01)
		}
	}
	return m
}

func TestRingIndex(t *testing.T) {
	// Built by New, which computes ringIndex's divisor once.
	o := New(overlay.NewNetwork(latency.NewDense(2)), []int{0, 1}, DefaultConfig(), 1)
	cases := []struct {
		ms   float64
		want int
	}{
		{0.05, 0}, {0.99, 0}, {1, 1}, {1.9, 1}, {2, 2}, {3.9, 2},
		{4, 3}, {250, 8}, {1e6, 8},
	}
	for _, c := range cases {
		if got := o.ringIndex(c.ms); got != c.want {
			t.Errorf("ringIndex(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.RingSize = 0
	New(overlay.NewNetwork(latency.NewDense(4)), []int{0, 1, 2}, cfg, 1)
}

func TestRingInvariants(t *testing.T) {
	m := euclideanMatrix(300, 1)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(300, 20, 2)
	cfg := DefaultConfig()
	o := New(net, members, cfg, 3)

	for _, id := range members {
		rings := o.RingsOf(id)
		if len(rings) != numRings {
			t.Fatalf("node %d has %d rings", id, len(rings))
		}
		for r, ring := range rings {
			if len(ring) > cfg.RingSize {
				t.Fatalf("node %d ring %d holds %d members", id, r, len(ring))
			}
			for _, mbr := range ring {
				if mbr == id {
					t.Fatalf("node %d is a member of its own ring", id)
				}
				l, ok := o.RingLatOf(id, mbr)
				if !ok {
					t.Fatalf("node %d has no cached latency to ring member %d", id, mbr)
				}
				if got := o.ringIndex(l); got != r {
					t.Fatalf("node %d ring %d member at latency %v belongs in ring %d", id, r, l, got)
				}
			}
		}
	}
}

func TestFindNearestEuclidean(t *testing.T) {
	// In a doubling space Meridian should find the exact nearest node in a
	// large majority of queries and land very close otherwise.
	const n = 400
	m := euclideanMatrix(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 40, 5)
	o := New(net, members, DefaultConfig(), 9)

	exact, total := 0, 0
	var stretchSum float64
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		total++
		if res.Peer == oracle.Peer {
			exact++
		}
		stretchSum += res.LatencyMs / math.Max(oracle.LatencyMs, 1e-9)
		if res.Probes <= 0 {
			t.Fatal("query issued no probes")
		}
	}
	if frac := float64(exact) / float64(total); frac < 0.6 {
		t.Fatalf("exact-nearest rate in Euclidean space = %v, want >= 0.6", frac)
	}
	if avg := stretchSum / float64(total); avg > 2.5 {
		t.Fatalf("average stretch %v too large", avg)
	}
}

func TestClusteringDegradesExactAccuracy(t *testing.T) {
	// The paper's headline (its Figure 8): accuracy peaks at moderate
	// cluster sizes (~25 end-networks) and collapses once the clustering
	// condition bites (125-250 end-networks per cluster), while the
	// probability of landing in the correct cluster stays high.
	run := func(ens, nQueries int) (exactRate, clusterRate float64) {
		cfg := latency.DefaultClusteredConfig()
		cfg.ENsPerCluster = ens
		cfg.TotalPeers = 1500
		m, gt := latency.NewClustered(cfg, 21)
		net := overlay.NewNetwork(m)
		members, targets := overlay.Split(m.N(), 60, 13)
		o := New(net, members, DefaultConfig(), 17)
		exact, inCluster := 0, 0
		for q := 0; q < nQueries; q++ {
			tgt := targets[q%len(targets)]
			res := o.FindNearest(tgt)
			oracle := overlay.TrueNearest(m, tgt, members)
			if res.Peer == oracle.Peer {
				exact++
			}
			if gt.SameCluster(res.Peer, tgt) {
				inCluster++
			}
		}
		return float64(exact) / float64(nQueries), float64(inCluster) / float64(nQueries)
	}
	exactPeak, _ := run(25, 120)
	exactLarge, clusterLarge := run(250, 120)
	if exactLarge >= exactPeak {
		t.Fatalf("clustering condition did not degrade accuracy: peak=%v large=%v",
			exactPeak, exactLarge)
	}
	if exactLarge > 0.4 {
		t.Fatalf("exact rate under strong clustering = %v, expected low", exactLarge)
	}
	if clusterLarge < 0.5 {
		t.Fatalf("correct-cluster rate = %v, expected high with big clusters", clusterLarge)
	}
}

func TestQueryTerminates(t *testing.T) {
	m := euclideanMatrix(150, 3)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(150, 10, 1)
	o := New(net, members, DefaultConfig(), 2)
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		if res.Hops >= o.maxHops {
			t.Fatalf("query hit the hop cap (%d hops)", res.Hops)
		}
		if res.Peer < 0 {
			t.Fatal("query returned no peer")
		}
	}
}

func TestProbeAccounting(t *testing.T) {
	m := euclideanMatrix(200, 4)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(200, 10, 1)
	o := New(net, members, DefaultConfig(), 2)
	if net.MaintProbes() == 0 {
		t.Fatal("overlay construction recorded no maintenance probes")
	}
	net.ResetQueryProbes()
	res := o.FindNearest(targets[0])
	if net.QueryProbes() != res.Probes {
		t.Fatalf("network counted %d probes, result says %d", net.QueryProbes(), res.Probes)
	}
}

func TestSelectionStrategies(t *testing.T) {
	// All three ring-selection strategies must produce valid overlays and
	// answer queries; diversity selection should not be worse than random
	// in a Euclidean space (soft check: both complete, exactness sane).
	m := euclideanMatrix(300, 11)
	for _, sel := range []RingSelection{SelectHypervolume, SelectMaxMin, SelectRandom} {
		cfg := DefaultConfig()
		cfg.Selection = sel
		net := overlay.NewNetwork(m)
		members, targets := overlay.Split(300, 20, 3)
		o := New(net, members, cfg, 5)
		ok := 0
		for _, tgt := range targets {
			res := o.FindNearest(tgt)
			oracle := overlay.TrueNearest(m, tgt, members)
			if res.LatencyMs <= 3*oracle.LatencyMs+1 {
				ok++
			}
		}
		if ok < len(targets)/2 {
			t.Fatalf("selection %v: only %d/%d queries near-optimal", sel, ok, len(targets))
		}
	}
}

func TestSelectionStrategyStrings(t *testing.T) {
	if SelectHypervolume.String() != "hypervolume" ||
		SelectMaxMin.String() != "maxmin" ||
		SelectRandom.String() != "random" {
		t.Fatal("RingSelection strings wrong")
	}
}

func TestBetaControlsProbes(t *testing.T) {
	// Smaller β terminates earlier: average probes should not increase
	// when β shrinks from 0.9 to 0.3.
	m := euclideanMatrix(400, 19)
	probesAt := func(beta float64) float64 {
		cfg := DefaultConfig()
		cfg.Beta = beta
		net := overlay.NewNetwork(m)
		members, targets := overlay.Split(400, 30, 3)
		o := New(net, members, cfg, 5)
		var sum int64
		for _, tgt := range targets {
			sum += o.FindNearest(tgt).Probes
		}
		return float64(sum) / float64(len(targets))
	}
	small, large := probesAt(0.3), probesAt(0.9)
	if small > large*1.5 {
		t.Fatalf("β=0.3 used %v probes vs β=0.9 %v; expected fewer or similar", small, large)
	}
}
