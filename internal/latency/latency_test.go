package latency

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"nearestpeer/internal/netmodel"
)

func TestDenseSymmetric(t *testing.T) {
	d := NewDense(4)
	d.Set(1, 2, 7.5)
	if d.LatencyMs(1, 2) != 7.5 || d.LatencyMs(2, 1) != 7.5 {
		t.Fatal("Set not symmetric")
	}
	if d.LatencyMs(0, 0) != 0 {
		t.Fatal("diagonal not zero")
	}
	if d.N() != 4 {
		t.Fatal("N wrong")
	}
}

func TestDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2).Set(0, 1, -1)
}

func TestSyntheticMeridianDataset(t *testing.T) {
	m := SyntheticMeridianDataset(200, 3)
	var all []float64
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			l := m.LatencyMs(i, j)
			if l <= 0 {
				t.Fatalf("non-positive latency %v", l)
			}
			if l != m.LatencyMs(j, i) {
				t.Fatal("asymmetric")
			}
			all = append(all, l)
		}
	}
	sort.Float64s(all)
	med := all[len(all)/2]
	if math.Abs(med-65) > 1.5 {
		t.Fatalf("median = %v, want ~65 ms", med)
	}
}

func TestSyntheticMeridianDeterministic(t *testing.T) {
	a := SyntheticMeridianDataset(50, 7)
	b := SyntheticMeridianDataset(50, 7)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if a.LatencyMs(i, j) != b.LatencyMs(i, j) {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestBuildClusteredStructure(t *testing.T) {
	cfg := DefaultClusteredConfig()
	cfg.ENsPerCluster = 25
	m, gt := BuildClustered(cfg, 11)

	if m.N() < 2000 || m.N() > 3000 {
		t.Fatalf("population %d, want ~2500", m.N())
	}
	if gt.NumClusters != cfg.TotalPeers/(cfg.ENsPerCluster*cfg.PeersPerEN) {
		t.Fatalf("clusters = %d", gt.NumClusters)
	}

	// Every end-network holds exactly PeersPerEN peers.
	for en, ps := range gt.PeersInEN {
		if len(ps) != cfg.PeersPerEN {
			t.Fatalf("EN %d has %d peers", en, len(ps))
		}
		// Intra-EN latency is exactly 100 µs.
		if l := m.LatencyMs(ps[0], ps[1]); l != cfg.IntraENMs {
			t.Fatalf("intra-EN latency %v", l)
		}
	}

	// Same-cluster, different-EN latency = hub(i)+hub(j).
	found := false
	for i := 0; i < m.N() && !found; i++ {
		for j := i + 1; j < m.N(); j++ {
			if gt.SameCluster(i, j) && !gt.SameEN(i, j) {
				want := gt.HubLatMs[i] + gt.HubLatMs[j]
				if math.Abs(m.LatencyMs(i, j)-want) > 1e-9 {
					t.Fatalf("intra-cluster latency %v, want %v", m.LatencyMs(i, j), want)
				}
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no intra-cluster pair found")
	}

	// Cross-cluster latencies exceed intra-cluster ones on median: hubs
	// are ~65 ms apart while intra-cluster is ~8-12 ms.
	var intra, cross []float64
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			switch {
			case gt.SameEN(i, j):
			case gt.SameCluster(i, j):
				intra = append(intra, m.LatencyMs(i, j))
			default:
				cross = append(cross, m.LatencyMs(i, j))
			}
		}
	}
	if len(intra) == 0 || len(cross) == 0 {
		t.Skip("sample too small for gradation check")
	}
	sort.Float64s(intra)
	sort.Float64s(cross)
	if intra[len(intra)/2] >= cross[len(cross)/2] {
		t.Fatalf("intra-cluster median %v >= cross median %v",
			intra[len(intra)/2], cross[len(cross)/2])
	}
}

func TestBuildClusteredHubLatencyRange(t *testing.T) {
	cfg := DefaultClusteredConfig()
	cfg.Delta = 0.2
	_, gt := BuildClustered(cfg, 5)
	for i, h := range gt.HubLatMs {
		// mean in [4,6], δ=0.2 → hub latency in [4*0.8, 6*1.2].
		if h < 4*0.8-1e-9 || h > 6*1.2+1e-9 {
			t.Fatalf("peer %d hub latency %v outside [3.2, 7.2]", i, h)
		}
	}
}

func TestBuildClusteredDeltaZero(t *testing.T) {
	cfg := DefaultClusteredConfig()
	cfg.Delta = 0
	cfg.ENsPerCluster = 10
	cfg.TotalPeers = 400
	m, gt := BuildClustered(cfg, 2)
	// With δ=0 every end-network of a cluster sits at exactly the cluster
	// mean, so all cross-EN intra-cluster latencies within a cluster are
	// equal — the clustering condition in its purest form.
	for c := 0; c < gt.NumClusters; c++ {
		var lats []float64
		for i := 0; i < m.N(); i++ {
			if gt.ClusterOf[i] != c {
				continue
			}
			for j := i + 1; j < m.N(); j++ {
				if gt.ClusterOf[j] == c && !gt.SameEN(i, j) {
					lats = append(lats, m.LatencyMs(i, j))
				}
			}
		}
		for _, l := range lats {
			if math.Abs(l-lats[0]) > 1e-9 {
				t.Fatalf("δ=0 cluster %d has unequal latencies %v vs %v", c, l, lats[0])
			}
		}
	}
}

func TestClosestPeerOracle(t *testing.T) {
	cfg := DefaultClusteredConfig()
	cfg.ENsPerCluster = 10
	cfg.TotalPeers = 200
	m, gt := BuildClustered(cfg, 8)
	candidates := make([]int, m.N())
	for i := range candidates {
		candidates[i] = i
	}
	// For any peer, the oracle closest peer is its same-EN partner.
	for i := 0; i < m.N(); i++ {
		best, lat := gt.ClosestPeer(m, i, candidates)
		if !gt.SameEN(i, best) {
			t.Fatalf("oracle closest of %d is %d (different EN)", i, best)
		}
		if lat != cfg.IntraENMs {
			t.Fatalf("oracle latency %v", lat)
		}
	}
}

func TestTopologyMatrix(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 1)
	hosts := []netmodel.HostID{0, 5, 10, 15}
	m := &TopologyMatrix{Top: top, Hosts: hosts}
	if m.N() != 4 {
		t.Fatal("N wrong")
	}
	if m.LatencyMs(2, 2) != 0 {
		t.Fatal("diagonal not zero")
	}
	if m.LatencyMs(0, 1) != top.RTTms(0, 5) {
		t.Fatal("adaptor disagrees with topology")
	}
}

// TestGatherRowMatchesLatencyMs: GatherRow is LatencyMs element for element,
// on the Dense fast path and on the LatencyMs loop every other matrix takes
// (js out of order, repeated, and naming the row itself).
func TestGatherRowMatchesLatencyMs(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 2)
	hosts := make([]netmodel.HostID, 0, 40)
	for i := 0; i < 40; i++ {
		hosts = append(hosts, netmodel.HostID(i*11%top.NumHosts()))
	}
	js := []int{39, 0, 3, 3, 17, 8, 25, 1}
	for name, m := range map[string]Matrix{
		"Dense":              SyntheticMeridianDataset(40, 6),
		"TopologyMatrix":     &TopologyMatrix{Top: top, Hosts: hosts},
		"FullTopologyMatrix": &FullTopologyMatrix{Top: top},
	} {
		out := make([]float64, len(js))
		for _, i := range []int{0, 3, 39} {
			GatherRow(m, i, js, out)
			for k, j := range js {
				if want := m.LatencyMs(i, j); out[k] != want {
					t.Errorf("%s: GatherRow(%d)[%d] = %v, LatencyMs(%d, %d) = %v", name, i, k, out[k], i, j, want)
				}
			}
		}
	}
}

// TestRTTCacheTransparent: a cache-enabled topology matrix, and a subset
// matrix read through its pair memo, must be indistinguishable, value for
// value, from the topology itself, in either order of the pair.
func TestRTTCacheTransparent(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 4)
	full := &FullTopologyMatrix{Top: top}
	cachedFull := (&FullTopologyMatrix{Top: top}).EnableRTTCache(1 << 8)
	hosts := make([]netmodel.HostID, 0, 50)
	for i := 0; i < 50; i++ {
		hosts = append(hosts, netmodel.HostID(i*7%top.NumHosts()))
	}
	sub := &TopologyMatrix{Top: top, Hosts: hosts}
	for round := 0; round < 2; round++ { // second round exercises hits
		for i := 0; i < len(hosts); i++ {
			for j := 0; j < len(hosts); j++ {
				a, b := int(hosts[i]), int(hosts[j])
				if got, want := cachedFull.LatencyMs(a, b), full.LatencyMs(a, b); got != want {
					t.Fatalf("cached full matrix (%d,%d) = %v, direct %v", a, b, got, want)
				}
				want := top.RTTms(hosts[i], hosts[j])
				if i == j {
					want = 0
				}
				if got := sub.LatencyMs(i, j); got != want {
					t.Fatalf("cached sub matrix (%d,%d) = %v, direct %v", i, j, got, want)
				}
			}
		}
	}
}

// TestClusteredConfigValidate: the configurations NewClustered cannot
// build from, or would price a negative or NaN latency from, are errors a
// front end can print (npsim -peers 1 used to reach the builder's panic),
// and NewClustered and BuildClustered still refuse them themselves.
func TestClusteredConfigValidate(t *testing.T) {
	if err := DefaultClusteredConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*ClusteredConfig)
	}{
		{"TotalPeers", func(c *ClusteredConfig) { c.TotalPeers = 1 }},
		{"ENsPerCluster", func(c *ClusteredConfig) { c.ENsPerCluster = 0 }},
		{"PeersPerEN", func(c *ClusteredConfig) { c.PeersPerEN = 0 }},
		{"Delta", func(c *ClusteredConfig) { c.Delta = 1.5 }},
		{"IntraENMs", func(c *ClusteredConfig) { c.IntraENMs = -0.1 }},
		{"IntraENMs", func(c *ClusteredConfig) { c.IntraENMs = math.NaN() }},
		{"HubMeanMinMs", func(c *ClusteredConfig) { c.HubMeanMinMs = -1 }},
		{"HubMeanMinMs", func(c *ClusteredConfig) { c.HubMeanMinMs = math.NaN() }},
		{"HubMeanMaxMs", func(c *ClusteredConfig) { c.HubMeanMinMs, c.HubMeanMaxMs = 6, 4 }},
		{"HubMeanMaxMs", func(c *ClusteredConfig) { c.HubMeanMaxMs = math.NaN() }},
	} {
		cfg := DefaultClusteredConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("bad %s (%+v): Validate() = %v, want an error naming it", tc.field, cfg, err)
			continue
		}
		for name, build := range map[string]func(){
			"NewClustered":   func() { NewClustered(cfg, 1) },
			"BuildClustered": func() { BuildClustered(cfg, 1) },
		} {
			func() {
				defer func() {
					if r := recover(); fmt.Sprint(r) != err.Error() {
						t.Errorf("bad %s: %s panicked with %v, want %v", tc.field, name, r, err)
					}
				}()
				build()
			}()
		}
	}
	// Equal hub-mean bounds are a point, not an inverted range.
	cfg := DefaultClusteredConfig()
	cfg.HubMeanMinMs, cfg.HubMeanMaxMs = 5, 5
	if err := cfg.Validate(); err != nil {
		t.Errorf("HubMeanMinMs = HubMeanMaxMs rejected: %v", err)
	}
}
