package tiers

import (
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

func TestHierarchyShape(t *testing.T) {
	m := testmat.Euclidean(300, 1)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(300, 20, 2)
	h := New(net, members, 3)

	if h.Levels() < 2 {
		t.Fatalf("hierarchy has %d levels", h.Levels())
	}
	if h.ClustersAt(h.Levels()-1) != 1 {
		t.Fatalf("top level has %d clusters", h.ClustersAt(h.Levels()-1))
	}
	// Cluster counts shrink going up.
	for l := 1; l < h.Levels(); l++ {
		if h.ClustersAt(l) > h.ClustersAt(l-1) {
			t.Fatalf("level %d has more clusters (%d) than level %d (%d)",
				l, h.ClustersAt(l), l-1, h.ClustersAt(l-1))
		}
	}
	// Level 0 covers every member exactly once.
	seen := map[int]bool{}
	total := 0
	for _, c := range h.levels[0] {
		for _, p := range c.members {
			if seen[p] {
				t.Fatalf("member %d in two leaf clusters", p)
			}
			seen[p] = true
			total++
		}
	}
	if total != len(members) {
		t.Fatalf("leaf clusters cover %d of %d members", total, len(members))
	}
}

func TestLeafClusterRadius(t *testing.T) {
	m := testmat.Euclidean(200, 5)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(200, 10, 2)
	h := New(net, members, 3)
	for _, c := range h.levels[0] {
		for _, p := range c.members {
			if l := m.LatencyMs(p, c.rep); l > radius0Ms+1e-9 {
				t.Fatalf("leaf member at %v from rep, radius %v", l, radius0Ms)
			}
		}
	}
}

func TestFindNearestEuclidean(t *testing.T) {
	const n = 300
	m := testmat.Euclidean(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 30, 5)
	h := New(net, members, 9)

	good := 0
	for _, tgt := range targets {
		res := h.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.Peer == oracle.Peer || res.LatencyMs <= 2*oracle.LatencyMs+0.5 {
			good++
		}
		if res.Probes <= 0 || res.Hops <= 0 {
			t.Fatal("no probes/hops recorded")
		}
	}
	if good < len(targets)/2 {
		t.Fatalf("only %d/%d queries near-optimal", good, len(targets))
	}
}

func TestClusteringDefeatsDescent(t *testing.T) {
	m, gt := testmat.Clustered(100, 1000, 11)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(m.N(), 80, 3)
	h := New(net, members, 5)
	exact := 0
	for _, tgt := range targets {
		res := h.FindNearest(tgt)
		if res.Peer >= 0 && gt.SameEN(res.Peer, tgt) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(targets)); frac > 0.4 {
		t.Fatalf("Tiers exact rate %v under clustering; expected failure", frac)
	}
}
