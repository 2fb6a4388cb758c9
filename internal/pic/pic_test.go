package pic

import (
	"testing"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
	"nearestpeer/internal/vivaldi"
)

func buildSys(t *testing.T, n int, seed int64) (*latency.Dense, *vivaldi.System, []int, []int) {
	t.Helper()
	m := testmat.Euclidean(n, seed)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, n/10, seed+1)
	sys := vivaldi.Build(net, members, seed+2)
	return m, sys, members, targets
}

func TestNeighborListsWellFormed(t *testing.T) {
	_, sys, members, _ := buildSys(t, 200, 1)
	f := New(sys, 3)
	for _, m := range members {
		nb := f.neighbors[m]
		if len(nb) == 0 {
			t.Fatalf("member %d has no neighbours", m)
		}
		if len(nb) > neighborsPerNode {
			t.Fatalf("member %d has %d neighbours", m, len(nb))
		}
		seen := map[int]bool{}
		for _, n := range nb {
			if n == m {
				t.Fatal("self in neighbour list")
			}
			if seen[n] {
				t.Fatal("duplicate neighbour")
			}
			seen[n] = true
		}
	}
}

func TestGreedyWalksFindNearPeers(t *testing.T) {
	m, sys, members, targets := buildSys(t, 300, 5)
	f := New(sys, 7)
	good := 0
	for _, tgt := range targets {
		res := f.FindNearest(tgt)
		if res.Peer < 0 {
			t.Fatal("walk returned nothing")
		}
		truth := overlay.TrueNearest(m, tgt, members)
		if res.LatencyMs <= 3*truth.LatencyMs+1 {
			good++
		}
		if res.Probes <= 0 {
			t.Fatal("no probes recorded")
		}
	}
	if good < len(targets)/2 {
		t.Fatalf("only %d/%d walks near-optimal", good, len(targets))
	}
}

func TestClusteredSpaceDefeatsWalks(t *testing.T) {
	// Under the clustering condition coordinates collapse, so the greedy
	// walk cannot single out the same-EN partner: exact-match rate stays
	// low even though every target has a 0.1 ms partner in the overlay.
	m, gt := testmat.Clustered(100, 1000, 3)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(m.N(), 80, 1)
	sys := vivaldi.Build(net, members, 2)
	f := New(sys, 7)

	exact := 0
	for _, tgt := range targets {
		res := f.FindNearest(tgt)
		if res.Peer >= 0 && gt.SameEN(res.Peer, tgt) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(targets)); frac > 0.35 {
		t.Fatalf("PIC found the same-EN partner %v of the time under clustering; expected failure", frac)
	}
}
