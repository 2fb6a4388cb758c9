package rendezvous

import (
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

func TestFindNearestStaysInEN(t *testing.T) {
	m, gt := testmat.Clustered(5, 200, 3)
	net := overlay.NewNetwork(m)
	members := make([]int, m.N())
	for i := range members {
		members[i] = i
	}
	d := NewDirectory(net, members, func(i int) int { return gt.ENOf[i] })
	found := 0
	for _, p := range members {
		before := net.QueryProbes()
		res := d.FindNearest(p)
		if probes := net.QueryProbes() - before; res.Probes != probes || int(probes) != len(d.Candidates(p)) {
			t.Fatalf("member %d: result charges %d probes, network counted %d, %d candidates",
				p, res.Probes, probes, len(d.Candidates(p)))
		}
		if res.Peer < 0 {
			continue
		}
		found++
		if !gt.SameEN(p, res.Peer) {
			t.Fatalf("member %d: rendezvous returned %d from outside its end network", p, res.Peer)
		}
		for _, q := range gt.PeersInEN[gt.ENOf[p]] {
			if q != p && m.LatencyMs(p, q) < res.LatencyMs {
				t.Fatalf("member %d: returned %d at %.3f ms, but %d is %.3f ms away",
					p, res.Peer, res.LatencyMs, q, m.LatencyMs(p, q))
			}
		}
	}
	if found == 0 {
		t.Fatal("no member found an end-network peer")
	}
}

func TestFindNearestAloneInEN(t *testing.T) {
	m, gt := testmat.Clustered(5, 200, 3)
	net := overlay.NewNetwork(m)
	// Register one peer of the first end network beside every peer of the
	// others, so that peer is alone in its directory.
	alone := gt.PeersInEN[gt.ENOf[0]][0]
	members := []int{alone}
	for i := 0; i < m.N(); i++ {
		if !gt.SameEN(i, alone) {
			members = append(members, i)
		}
	}
	d := NewDirectory(net, members, func(i int) int { return gt.ENOf[i] })
	res := d.FindNearest(alone)
	if res.Peer != -1 || res.Probes != 0 || net.QueryProbes() != 0 {
		t.Fatalf("alone in its end network: got peer %d at %d probes (network counted %d), want -1 at 0",
			res.Peer, res.Probes, net.QueryProbes())
	}
}
