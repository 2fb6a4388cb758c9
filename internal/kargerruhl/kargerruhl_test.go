package kargerruhl

import (
	"math"
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

func TestBallInvariants(t *testing.T) {
	m := testmat.Euclidean(250, 1)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(250, 20, 2)
	o := New(net, members, 3)

	for _, id := range members {
		balls := o.BallsOf(id)
		if len(balls) != scales {
			t.Fatalf("node %d has %d scales", id, len(balls))
		}
		for i, ball := range balls {
			if len(ball) > sampleSize {
				t.Fatalf("ball %d holds %d > %d", i, len(ball), sampleSize)
			}
			radius := baseMs * math.Pow(2, float64(i))
			for _, c := range ball {
				if c == id {
					t.Fatal("node sampled itself")
				}
				l, ok := o.LatOf(id, c)
				if !ok {
					t.Fatal("no cached latency for ball member")
				}
				if i != scales-1 && l > radius+1e-9 {
					t.Fatalf("ball %d (radius %v) contains node at %v", i, radius, l)
				}
			}
		}
	}
}

func TestBallsNest(t *testing.T) {
	// Every inner-ball member is eligible for all outer balls; with full
	// candidate knowledge (small population), inner balls are subsets of
	// the union of outer candidates — verify monotone counts of eligible
	// members: ball i+1 saw at least as many candidates as ball i.
	m := testmat.Euclidean(120, 5)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(120, 10, 2)
	o := New(net, members, 3)
	for _, id := range members {
		n := o.nodes[id]
		for i := 1; i < len(n.seen); i++ {
			if n.seen[i] < n.seen[i-1] {
				t.Fatalf("node %d: ball %d saw %d < ball %d's %d", id, i, n.seen[i], i-1, n.seen[i-1])
			}
		}
	}
}

func TestFindNearestEuclidean(t *testing.T) {
	const n = 400
	m := testmat.Euclidean(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 40, 5)
	o := New(net, members, 9)

	good := 0
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.Peer == oracle.Peer || res.LatencyMs <= 2*oracle.LatencyMs+0.5 {
			good++
		}
		if res.Probes <= 0 {
			t.Fatal("no probes recorded")
		}
	}
	if good < len(targets)*6/10 {
		t.Fatalf("only %d/%d queries near-optimal in growth-restricted space", good, len(targets))
	}
}

func TestClusteringDefeatsWalk(t *testing.T) {
	m, gt := testmat.Clustered(100, 1000, 11)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(m.N(), 80, 3)
	o := New(net, members, 5)
	exact := 0
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		if res.Peer >= 0 && gt.SameEN(res.Peer, tgt) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(targets)); frac > 0.4 {
		t.Fatalf("Karger-Ruhl exact rate %v under clustering; expected failure", frac)
	}
}

func TestQueryTerminates(t *testing.T) {
	m := testmat.Euclidean(150, 3)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(150, 10, 1)
	o := New(net, members, 2)
	for _, tgt := range targets {
		res := o.FindNearest(tgt)
		if res.Hops >= maxHops {
			t.Fatalf("walk hit the hop cap")
		}
		if res.Peer < 0 {
			t.Fatal("no peer")
		}
	}
}
