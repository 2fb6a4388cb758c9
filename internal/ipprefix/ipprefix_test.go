package ipprefix

import (
	"math"
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

func newFixture(t *testing.T) (*netmodel.Topology, *System, []netmodel.HostID) {
	t.Helper()
	top := netmodel.Generate(netmodel.DefaultConfig(), 4)
	tools := measure.NewTools(top, measure.DefaultConfig(), 9)
	var peers []netmodel.HostID
	for i := range top.Hosts {
		if top.Hosts[i].RespondsTCP && top.Hosts[i].DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
	}
	nodes := make([]string, len(peers))
	for i, p := range peers {
		nodes[i] = top.Host(p).IP.String()
	}
	sys := New(tools, nodes)
	for _, p := range peers {
		sys.Join(p)
	}
	return top, sys, peers
}

func TestPrefixKeyGrouping(t *testing.T) {
	top, sys, peers := newFixture(t)
	// A query returns exactly the other peers sharing the /24.
	p := peers[0]
	res := sys.FindNearest(p)
	want := 0
	for _, q := range peers {
		if q != p && top.Host(q).IP.SharesPrefix(top.Host(p).IP, 24) {
			want++
		}
	}
	if res.Candidates != want {
		t.Fatalf("candidates = %d, want %d", res.Candidates, want)
	}
}

func TestSameENPeersFound(t *testing.T) {
	top, sys, peers := newFixture(t)
	attempts, hits := 0, 0
	for _, p := range peers {
		hasPartner := false
		for _, q := range peers {
			if q != p && top.SameEN(p, q) {
				hasPartner = true
				break
			}
		}
		if !hasPartner {
			continue
		}
		attempts++
		res := sys.FindNearest(p)
		if res.Peer >= 0 && top.SameEN(p, res.Peer) {
			hits++
		}
		if attempts >= 40 {
			break
		}
	}
	if attempts < 5 {
		t.Skip("insufficient eligible peers")
	}
	// Same-EN peers share a /24 by construction, so the prefix scheme
	// should find them reliably (they are also the closest candidates).
	if frac := float64(hits) / float64(attempts); frac < 0.6 {
		t.Fatalf("prefix scheme hit rate %.2f (%d/%d)", frac, hits, attempts)
	}
}

func TestLeaveShrinksBucket(t *testing.T) {
	top, sys, peers := newFixture(t)
	// Find two peers sharing a /24.
	var p, q netmodel.HostID = -1, -1
	for i, a := range peers {
		for _, b := range peers[i+1:] {
			if top.Host(a).IP.SharesPrefix(top.Host(b).IP, 24) {
				p, q = a, b
				break
			}
		}
		if p >= 0 {
			break
		}
	}
	if p < 0 {
		t.Skip("no prefix-sharing pair")
	}
	before := sys.FindNearest(p).Candidates
	sys.Leave(q)
	after := sys.FindNearest(p).Candidates
	if after != before-1 {
		t.Fatalf("candidates %d -> %d after leave, want -1", before, after)
	}
}

func TestErrorRatesMonotoneTrend(t *testing.T) {
	top, _, peers := newFixture(t)
	if len(peers) > 400 {
		peers = peers[:400]
	}
	dist := func(a, b netmodel.HostID) float64 { return top.RTTms(a, b) }
	fp8, fn8 := ErrorRates(top, peers, 8, 10, dist)
	fp24, fn24 := ErrorRates(top, peers, 24, 10, dist)
	if math.IsNaN(fp8) || math.IsNaN(fp24) {
		t.Skip("insufficient pair coverage")
	}
	// Figure 11's shape: FP falls and FN rises with prefix length.
	if fp24 > fp8 {
		t.Fatalf("false-positive rate rose with longer prefix: /8=%v /24=%v", fp8, fp24)
	}
	if !math.IsNaN(fn8) && !math.IsNaN(fn24) && fn24 < fn8-1e-9 {
		t.Fatalf("false-negative rate fell with longer prefix: /8=%v /24=%v", fn8, fn24)
	}
	if fp8 < 0 || fp8 > 1 || fn24 < 0 || fn24 > 1 {
		t.Fatal("rates out of [0,1]")
	}
}
