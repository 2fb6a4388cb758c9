package core

import (
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

func fixture(t *testing.T, cfg Config) (*netmodel.Topology, *Service, []netmodel.HostID) {
	t.Helper()
	top := netmodel.Generate(netmodel.DefaultConfig(), 12)
	tools := measure.NewTools(top, measure.DefaultConfig(), 9)
	var peers []netmodel.HostID
	for i := range top.Hosts {
		if top.Hosts[i].RespondsTCP && top.Hosts[i].DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
	}
	if len(peers) > 600 {
		peers = peers[:600]
	}
	svc := NewService(top, tools, peers, cfg, 5)
	return top, svc, peers
}

func TestCascadeFindsSameENPeers(t *testing.T) {
	top, svc, peers := fixture(t, DefaultConfig())
	attempts, hits := 0, 0
	for _, p := range peers {
		partner := false
		for _, q := range peers {
			if q != p && top.SameEN(p, q) {
				partner = true
				break
			}
		}
		if !partner {
			continue
		}
		attempts++
		res := svc.FindNearest(p)
		if res.Peer >= 0 && top.SameEN(p, res.Peer) {
			hits++
		}
		if attempts >= 25 {
			break
		}
	}
	if attempts < 5 {
		t.Skip("insufficient eligible peers")
	}
	if frac := float64(hits) / float64(attempts); frac < 0.7 {
		t.Fatalf("composite hit rate %.2f (%d/%d)", frac, hits, attempts)
	}
}

func TestCascadeStopsWhenSatisfied(t *testing.T) {
	top, svc, peers := fixture(t, DefaultConfig())
	for _, p := range peers[:40] {
		res := svc.FindNearest(p)
		if res.Peer < 0 {
			continue
		}
		if res.RTTms <= svc.cfg.SatisfiedMs && len(res.StagesRun) == 4 {
			// Satisfied results must have short-circuited unless the
			// last stage produced them.
			if res.Method == MethodMeridian {
				continue
			}
			t.Fatalf("satisfied result (%.3f ms via %s) ran all stages", res.RTTms, res.Method)
		}
		_ = top
	}
}

func TestMeridianOnlyFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseMulticast = false
	cfg.UseUCL = false
	cfg.UsePrefix = false
	_, svc, peers := fixture(t, cfg)
	res := svc.FindNearest(peers[0])
	if res.Method != MethodMeridian && res.Peer >= 0 {
		t.Fatalf("method = %s", res.Method)
	}
	if len(res.StagesRun) != 1 || res.StagesRun[0] != MethodMeridian {
		t.Fatalf("stages = %v", res.StagesRun)
	}
}

func TestResultAgainstOracle(t *testing.T) {
	top, svc, peers := fixture(t, DefaultConfig())
	worse := 0
	n := 0
	for _, p := range peers[:30] {
		res := svc.FindNearest(p)
		if res.Peer < 0 {
			continue
		}
		n++
		_, oracleLat := svc.TrueNearest(p)
		if res.RTTms > 10*oracleLat+5 {
			worse++
		}
	}
	if n == 0 {
		t.Fatal("no results")
	}
	if worse > n/2 {
		t.Fatalf("%d/%d results far from oracle", worse, n)
	}
	_ = top
}

func TestDetectClusteringCondition(t *testing.T) {
	top, svc, peers := fixture(t, DefaultConfig())
	// A home peer behind a busy PoP should see many peers at similar
	// latencies; the report must be well-formed either way.
	rep := svc.DetectClusteringCondition(peers[0], 40, 7)
	if rep.Sampled == 0 {
		t.Skip("no responsive sample")
	}
	if rep.BandFraction < 0 || rep.BandFraction > 1 {
		t.Fatalf("band fraction %v", rep.BandFraction)
	}
	if rep.MedianMs <= 0 {
		t.Fatalf("median %v", rep.MedianMs)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	_ = top
}

func TestEmptyPeersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewService(nil, nil, nil, DefaultConfig(), 1)
}

// multicastCase is one peer's view of the in-network stage alone: its
// partners in the same end-network, split by VLAN, and what the stage
// answered.
type multicastCase struct {
	peer        netmodel.HostID
	same, other []netmodel.HostID
	res         Result
}

// multicastCases runs every peer through the in-network stage with the
// other stages off. Round 0 reaches the searcher's same-VLAN partners and
// round 1, only where the end-network routes multicast across VLANs, the
// rest of its partners.
func multicastCases(t *testing.T, crossVLANProb float64) (*netmodel.Topology, []multicastCase) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UseUCL, cfg.UsePrefix, cfg.UseMeridian = false, false, false
	cfg.CrossVLANProb = crossVLANProb
	top, svc, peers := fixture(t, cfg)
	cases := make([]multicastCase, 0, len(peers))
	for _, p := range peers {
		c := multicastCase{peer: p}
		for _, q := range peers {
			switch {
			case q == p || !top.SameEN(p, q):
			case top.Host(q).VLAN == top.Host(p).VLAN:
				c.same = append(c.same, q)
			default:
				c.other = append(c.other, q)
			}
		}
		c.res = svc.FindNearest(p)
		cases = append(cases, c)
	}
	return top, cases
}

// checkAnswer asserts that the stage answered with the nearest of reached
// and spent one message per reached partner.
func checkAnswer(t *testing.T, top *netmodel.Topology, c multicastCase, reached []netmodel.HostID) {
	t.Helper()
	want := netmodel.HostID(-1)
	for _, q := range reached {
		if want < 0 || top.RTTms(c.peer, q) < top.RTTms(c.peer, want) {
			want = q
		}
	}
	if c.res.Peer != want || c.res.Messages != int64(len(reached)) {
		t.Fatalf("peer %d (%d same-VLAN, %d other-VLAN partners): found %d with %d messages, want %d with %d",
			c.peer, len(c.same), len(c.other), c.res.Peer, c.res.Messages, want, len(reached))
	}
}

// A peer with a same-VLAN partner is answered by round 0 with the nearest
// of them, whether or not its end-network routes across VLANs.
func TestMulticastStageFindsSameVLANPeer(t *testing.T) {
	for _, prob := range []float64{0, 1} {
		top, cases := multicastCases(t, prob)
		n := 0
		for _, c := range cases {
			if len(c.same) > 0 {
				checkAnswer(t, top, c, c.same)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("CrossVLANProb %v: fixture has no peer with a same-VLAN partner", prob)
		}
	}
}

// Where multicast is routed across VLANs, a peer whose partners all sit on
// other VLANs is answered by round 1.
func TestMulticastStageCrossVLANSucceedsWhenRouted(t *testing.T) {
	top, cases := multicastCases(t, 1)
	n := 0
	for _, c := range cases {
		if len(c.same) == 0 && len(c.other) > 0 {
			checkAnswer(t, top, c, c.other)
			n++
		}
	}
	if n == 0 {
		t.Fatal("fixture has no peer with partners only across VLANs")
	}
}

// Where multicast stops at the VLAN boundary, a peer whose partners all sit
// on other VLANs finds nothing and spends nothing.
func TestMulticastStageVLANBoundaryFailure(t *testing.T) {
	top, cases := multicastCases(t, 0)
	n := 0
	for _, c := range cases {
		if len(c.same) == 0 && len(c.other) > 0 {
			checkAnswer(t, top, c, nil)
			n++
		}
	}
	if n == 0 {
		t.Fatal("fixture has no peer with partners only across VLANs")
	}
}

// A peer alone in its end-network finds nothing and spends nothing.
func TestMulticastStageLonePeerFindsNothing(t *testing.T) {
	for _, prob := range []float64{0, 1} {
		top, cases := multicastCases(t, prob)
		n := 0
		for _, c := range cases {
			if len(c.same)+len(c.other) == 0 {
				checkAnswer(t, top, c, nil)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("CrossVLANProb %v: fixture has no lone peer", prob)
		}
	}
}

// The stage groups peers by end-network: no answer ever leaves the
// searcher's end-network, and every peer with a partner there is answered
// when multicast is routed across VLANs.
func TestMulticastStageStaysInEndNetwork(t *testing.T) {
	top, cases := multicastCases(t, 1)
	for _, c := range cases {
		if c.res.Peer >= 0 && !top.SameEN(c.peer, c.res.Peer) {
			t.Fatalf("peer %d answered with %d from another end-network", c.peer, c.res.Peer)
		}
		if (c.res.Peer >= 0) != (len(c.same)+len(c.other) > 0) {
			t.Fatalf("peer %d with %d partners in its end-network: found %d", c.peer, len(c.same)+len(c.other), c.res.Peer)
		}
	}
}
