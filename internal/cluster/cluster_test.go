package cluster

import (
	"testing"

	"nearestpeer/internal/azureus"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

func TestPruneClusterWindow(t *testing.T) {
	peers := mkPeers(1, 1.2, 1.4, 5, 5.5, 6, 7, 30)
	pruned := PruneCluster(peers, 1.5)
	// The largest factor-1.5 window is {5, 5.5, 6, 7}.
	if len(pruned) != 4 {
		t.Fatalf("pruned size = %d, want 4", len(pruned))
	}
	for _, p := range pruned {
		if p.HubLatMs < 5 || p.HubLatMs > 7 {
			t.Fatalf("wrong window member %v", p.HubLatMs)
		}
	}
}

func TestPruneClusterAllWithinFactor(t *testing.T) {
	peers := mkPeers(2, 2.5, 2.9)
	if got := PruneCluster(peers, 1.5); len(got) != 3 {
		t.Fatalf("pruned %d of homogeneous cluster", len(got))
	}
}

func TestPruneClusterSingleton(t *testing.T) {
	if got := PruneCluster(mkPeers(4), 1.5); len(got) != 1 {
		t.Fatal("singleton mishandled")
	}
	if got := PruneCluster(nil, 1.5); got != nil {
		t.Fatal("empty input mishandled")
	}
}

func TestPruneFactorInvariant(t *testing.T) {
	// Property: output window always satisfies max <= factor*min.
	for seed := 0; seed < 50; seed++ {
		peers := mkPeers()
		x := 1.0
		for i := 0; i < 20; i++ {
			x *= 1 + float64((seed*i)%7)/10
			peers = append(peers, Peer{HubLatMs: x})
		}
		out := PruneCluster(peers, 1.5)
		if len(out) == 0 {
			t.Fatal("empty output for non-empty input")
		}
		lo, hi := out[0].HubLatMs, out[0].HubLatMs
		for _, p := range out {
			if p.HubLatMs < lo {
				lo = p.HubLatMs
			}
			if p.HubLatMs > hi {
				hi = p.HubLatMs
			}
		}
		if hi > lo*1.5+1e-9 {
			t.Fatalf("window violates factor: [%v, %v]", lo, hi)
		}
	}
}

func mkPeers(lats ...float64) []Peer {
	out := make([]Peer, len(lats))
	for i, l := range lats {
		out[i] = Peer{Host: netmodel.HostID(i), HubLatMs: l}
	}
	return out
}

func TestPipelineEndToEnd(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 3)
	tools := measure.NewTools(top, measure.DefaultConfig(), 7)
	vs, err := measure.SelectVantages(top, 5)
	if err != nil {
		t.Fatal(err)
	}
	pop := azureus.Sample(top, 3000, 0.5, 11)
	res := Run(tools, vs, pop.Hosts)

	if res.Candidates != len(pop.Hosts) {
		t.Fatal("candidate accounting wrong")
	}
	if res.Responsive == 0 || res.Responsive > res.Candidates {
		t.Fatalf("responsive = %d", res.Responsive)
	}
	if res.UniqueUpstream > res.Responsive {
		t.Fatal("unique-upstream exceeds responsive")
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters found")
	}

	survivors := 0
	for _, c := range res.Clusters {
		if len(c.Peers) < minClusterSize {
			t.Fatal("undersized cluster emitted")
		}
		survivors += len(c.Peers)
		// All cluster peers share the hub.
		for _, p := range c.Peers {
			if p.Upstream != c.Hub {
				t.Fatal("peer in wrong cluster")
			}
			if p.HubLatMs <= 0 {
				t.Fatalf("non-positive hub latency %v", p.HubLatMs)
			}
		}
	}
	if survivors > res.UniqueUpstream {
		t.Fatal("cluster peers exceed unique-upstream survivors")
	}

	// Pruned clusters respect the factor and never outgrow the original.
	if len(res.Pruned) == 0 {
		t.Fatal("no pruned clusters")
	}
	for _, c := range res.Pruned {
		lo, hi := c.Peers[0].HubLatMs, c.Peers[0].HubLatMs
		for _, p := range c.Peers {
			if p.HubLatMs < lo {
				lo = p.HubLatMs
			}
			if p.HubLatMs > hi {
				hi = p.HubLatMs
			}
		}
		if hi > lo*1.5+1e-9 {
			t.Fatalf("pruned cluster spreads [%v, %v]", lo, hi)
		}
	}
	if PeersIn(res.Pruned) > PeersIn(res.Clusters) {
		t.Fatal("pruning added peers")
	}
}

func TestPipelineGroundTruth(t *testing.T) {
	// Home peers behind one BRAS must land in one cluster: the pipeline's
	// inferred hub is the true edge router for well-behaved peers.
	top := netmodel.Generate(netmodel.DefaultConfig(), 3)
	tools := measure.NewTools(top, measure.DefaultConfig(), 7)
	vs, err := measure.SelectVantages(top, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-pick well-behaved home peers sharing an edge router.
	byEdge := make(map[netmodel.RouterID][]netmodel.HostID)
	for i := range top.Hosts {
		h := &top.Hosts[i]
		en := top.EN(h.EN)
		if !en.IsHome || h.Multihomed || !h.RespondsTCP {
			continue
		}
		edge := en.EdgeRouter()
		if edge == netmodel.NoRouter || top.Router(edge).Anonymous {
			continue
		}
		byEdge[edge] = append(byEdge[edge], netmodel.HostID(i))
	}
	var candidates []netmodel.HostID
	var wantHub netmodel.RouterID
	for edge, hosts := range byEdge {
		if len(hosts) >= 3 {
			candidates = hosts
			wantHub = edge
			break
		}
	}
	if candidates == nil {
		t.Skip("no BRAS with 3+ responsive homes in fixture")
	}
	res := Run(tools, vs, candidates)
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want 1", len(res.Clusters))
	}
	if res.Clusters[0].Hub != wantHub {
		t.Fatalf("hub = %d, want %d", res.Clusters[0].Hub, wantHub)
	}
	if len(res.Clusters[0].Peers) != len(candidates) {
		t.Fatalf("cluster holds %d of %d peers", len(res.Clusters[0].Peers), len(candidates))
	}
}

func TestSizeDistributionAndFractions(t *testing.T) {
	cs := []Cluster{
		{Peers: make([]Peer, 30)},
		{Peers: make([]Peer, 10)},
		{Peers: make([]Peer, 25)},
	}
	sizes := SizeDistribution(cs)
	if sizes[0] != 30 || sizes[1] != 25 || sizes[2] != 10 {
		t.Fatalf("sizes = %v", sizes)
	}
	frac := FractionInClustersOfAtLeast(cs, 65, 25)
	if frac != 55.0/65.0 {
		t.Fatalf("fraction = %v", frac)
	}
	if FractionInClustersOfAtLeast(nil, 0, 25) != 0 {
		t.Fatal("empty fraction")
	}
}
