package netmodel

import (
	"testing"
	"testing/quick"
)

func testTopology(t *testing.T) *Topology {
	t.Helper()
	return Generate(DefaultConfig(), 1)
}

func TestIPv4Prefix(t *testing.T) {
	ip := IPv4(0xC0A80164) // 192.168.1.100
	if got := ip.Prefix(24); got != 0xC0A80100 {
		t.Fatalf("Prefix(24) = %08x", uint32(got))
	}
	if got := ip.Prefix(16); got != 0xC0A80000 {
		t.Fatalf("Prefix(16) = %08x", uint32(got))
	}
	if ip.Prefix(0) != 0 {
		t.Fatal("Prefix(0) != 0")
	}
	if ip.Prefix(32) != ip {
		t.Fatal("Prefix(32) != identity")
	}
}

func TestIPv4PrefixProperties(t *testing.T) {
	err := quick.Check(func(a, b uint32, bits uint8) bool {
		n := int(bits % 33)
		x, y := IPv4(a), IPv4(b)
		// Idempotence and symmetry.
		if x.Prefix(n).Prefix(n) != x.Prefix(n) {
			return false
		}
		if x.SharesPrefix(y, n) != y.SharesPrefix(x, n) {
			return false
		}
		// Longer agreement implies shorter agreement.
		if n > 0 && x.SharesPrefix(y, n) && !x.SharesPrefix(y, n-1) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIPBlock(t *testing.T) {
	b := IPBlock{Base: 0x10000000, Bits: 24}
	if b.Size() != 256 {
		t.Fatalf("Size = %d", b.Size())
	}
	if !b.Contains(0x100000FF) {
		t.Fatal("Contains failed")
	}
	if b.Contains(0x10000100) {
		t.Fatal("Contains accepted outside address")
	}
	if b.Nth(5) != 0x10000005 {
		t.Fatalf("Nth(5) = %v", b.Nth(5))
	}
	sub := IPBlock{Base: 0x10000000, Bits: 12}.SubBlock(24, 3)
	if sub.Base != 0x10000300 || sub.Bits != 24 {
		t.Fatalf("SubBlock = %+v", sub)
	}
}

func TestIPv4String(t *testing.T) {
	if s := IPv4(0x01020304).String(); s != "1.2.3.4" {
		t.Fatalf("String = %q", s)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(), 9)
	b := Generate(DefaultConfig(), 9)
	if len(a.Hosts) != len(b.Hosts) || len(a.Routers) != len(b.Routers) {
		t.Fatal("same seed produced different topology sizes")
	}
	for i := range a.Hosts {
		if a.Hosts[i].IP != b.Hosts[i].IP {
			t.Fatalf("host %d IP differs", i)
		}
	}
	c := Generate(DefaultConfig(), 10)
	if len(c.Hosts) == len(a.Hosts) && c.Hosts[0].IP == a.Hosts[0].IP && c.Hosts[len(c.Hosts)-1].IP == a.Hosts[len(a.Hosts)-1].IP {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestTopologyInvariants(t *testing.T) {
	top := testTopology(t)
	if len(top.Hosts) == 0 || len(top.ENs) == 0 || len(top.PoPs) == 0 {
		t.Fatal("empty topology")
	}

	// Unique IPs.
	seen := make(map[IPv4]bool, len(top.Hosts))
	for i := range top.Hosts {
		ip := top.Hosts[i].IP
		if seen[ip] {
			t.Fatalf("duplicate IP %v", ip)
		}
		seen[ip] = true
	}

	// EN membership is consistent both ways; chain latencies cumulative.
	for i := range top.ENs {
		en := &top.ENs[i]
		if len(en.Chain) != len(en.ChainLatMs) {
			t.Fatalf("EN %d chain/latency length mismatch", i)
		}
		prev := 0.0
		for j, lat := range en.ChainLatMs {
			if lat < prev-1e-9 {
				t.Fatalf("EN %d chain latency not cumulative at %d: %v < %v", i, j, lat, prev)
			}
			prev = lat
		}
		if len(en.ChainLatMs) > 0 {
			last := en.ChainLatMs[len(en.ChainLatMs)-1]
			if last != en.HubLatMs {
				t.Fatalf("EN %d hub latency %v != edge cumulative %v", i, en.HubLatMs, last)
			}
		}
		for _, h := range en.Hosts {
			if top.Hosts[h].EN != ENID(i) {
				t.Fatalf("host %d not back-linked to EN %d", h, i)
			}
		}
	}

	// Every router referenced by a chain belongs to the EN's PoP.
	for i := range top.ENs {
		en := &top.ENs[i]
		for _, r := range en.Chain {
			if top.Routers[r].PoP != en.PoP {
				t.Fatalf("EN %d chain router %d in wrong PoP", i, r)
			}
		}
	}

	// PoPs have core routers and back-link their ENs.
	for i := range top.PoPs {
		p := &top.PoPs[i]
		if len(p.Core) == 0 {
			t.Fatalf("PoP %d has no core routers", i)
		}
		for _, en := range p.ENs {
			if top.ENs[en].PoP != PoPID(i) {
				t.Fatalf("PoP %d EN %d not back-linked", i, en)
			}
		}
	}
}

func TestHostByIP(t *testing.T) {
	top := testTopology(t)
	for i := 0; i < len(top.Hosts); i += 97 {
		id, ok := top.HostByIP(top.Hosts[i].IP)
		if !ok || id != HostID(i) {
			t.Fatalf("HostByIP(%v) = %v, %v", top.Hosts[i].IP, id, ok)
		}
	}
	if _, ok := top.HostByIP(0xFFFFFFFF); ok {
		t.Fatal("HostByIP found a non-existent address")
	}
}

func TestRTTSymmetricNonNegative(t *testing.T) {
	top := testTopology(t)
	n := len(top.Hosts)
	for trial := 0; trial < 500; trial++ {
		a := HostID((trial * 131) % n)
		b := HostID((trial*313 + 7) % n)
		ra, rb := top.RTTms(a, b), top.RTTms(b, a)
		if ra != rb {
			t.Fatalf("RTT not symmetric: %v vs %v", ra, rb)
		}
		if a != b && ra <= 0 {
			t.Fatalf("RTT(%d,%d) = %v", a, b, ra)
		}
	}
	if top.RTTms(3, 3) != 0 {
		t.Fatal("self RTT nonzero")
	}
}

func TestShortcutNeverLengthens(t *testing.T) {
	top := testTopology(t)
	n := len(top.Hosts)
	for trial := 0; trial < 2000; trial++ {
		a := HostID((trial * 17) % n)
		b := HostID((trial*41 + 3) % n)
		if top.OneWayMs(a, b) > top.TreeOneWayMs(a, b)+1e-12 {
			t.Fatalf("shortcut lengthened path between %d and %d", a, b)
		}
	}
}

// TestLatencyGradation verifies the paper's core structural assumption
// (validated by its Section 3.1): intra-end-network latencies are an order
// of magnitude smaller than intra-cluster latencies, which in turn are
// smaller than typical cross-PoP latencies.
func TestLatencyGradation(t *testing.T) {
	top := testTopology(t)

	var sameEN, samePoP, crossPoP []float64
	for i := range top.ENs {
		en := &top.ENs[i]
		if en.IsHome || len(en.Hosts) < 2 {
			continue
		}
		sameEN = append(sameEN, top.RTTms(en.Hosts[0], en.Hosts[1]))
	}
	for pi := range top.PoPs {
		p := &top.PoPs[pi]
		var first HostID = -1
		for _, en := range p.ENs {
			if top.ENs[en].IsHome || len(top.ENs[en].Hosts) == 0 {
				continue
			}
			h := top.ENs[en].Hosts[0]
			if first < 0 {
				first = h
			} else {
				samePoP = append(samePoP, top.RTTms(first, h))
				break
			}
		}
	}
	// A few cross-PoP samples.
	for pi := 0; pi+1 < len(top.PoPs) && len(crossPoP) < 50; pi += 2 {
		a, b := &top.PoPs[pi], &top.PoPs[pi+1]
		if len(a.ENs) == 0 || len(b.ENs) == 0 {
			continue
		}
		ha := firstHost(top, a)
		hb := firstHost(top, b)
		if ha >= 0 && hb >= 0 && top.City(a.City) != top.City(b.City) {
			crossPoP = append(crossPoP, top.RTTms(ha, hb))
		}
	}

	if len(sameEN) == 0 || len(samePoP) == 0 || len(crossPoP) == 0 {
		t.Fatalf("insufficient samples: %d/%d/%d", len(sameEN), len(samePoP), len(crossPoP))
	}
	mEN := median(sameEN)
	mPoP := median(samePoP)
	mX := median(crossPoP)
	if mEN*5 > mPoP {
		t.Fatalf("intra-EN median %v not ≪ intra-cluster median %v", mEN, mPoP)
	}
	if mPoP > mX {
		t.Fatalf("intra-cluster median %v not < cross-PoP median %v", mPoP, mX)
	}
	if mEN > 0.5 {
		t.Fatalf("intra-EN RTT %v ms, want sub-millisecond", mEN)
	}
}

func firstHost(top *Topology, p *PoP) HostID {
	for _, en := range p.ENs {
		if len(top.ENs[en].Hosts) > 0 {
			return top.ENs[en].Hosts[0]
		}
	}
	return -1
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// TestClusteringCondition verifies the generator actually produces the
// paper's clustering condition: end-networks of a PoP sit at roughly equal
// latencies from the hub.
func TestClusteringCondition(t *testing.T) {
	top := testTopology(t)
	spread := hubLatSpread
	for pi := range top.PoPs {
		p := &top.PoPs[pi]
		var lats []float64
		for _, en := range p.ENs {
			if !top.ENs[en].IsHome {
				lats = append(lats, top.ENs[en].HubLatMs)
			}
		}
		if len(lats) < 2 {
			continue
		}
		lo, hi := lats[0], lats[0]
		for _, l := range lats {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		maxRatio := (1 + spread) / (1 - spread)
		if hi/lo > maxRatio*1.01 {
			t.Fatalf("PoP %d hub latencies spread %v..%v exceeds configured ratio %v", pi, lo, hi, maxRatio)
		}
	}
}

func TestPathEndsAtUpstreamRouter(t *testing.T) {
	top := testTopology(t)
	n := len(top.Hosts)
	checked := 0
	for i := 0; i < n && checked < 300; i += 7 {
		from := HostID(i)
		to := HostID((i*577 + 11) % n)
		if from == to || top.Hosts[to].Multihomed || top.SameEN(from, to) {
			continue
		}
		hops := top.Path(from, to)
		if len(hops) == 0 {
			t.Fatalf("empty path between distinct ENs %d -> %d", from, to)
		}
		last := hops[len(hops)-1]
		if want := top.HostEN(to).EdgeRouter(); last.Router != want {
			t.Fatalf("path to %d ends at router %d, want edge %d", to, last.Router, want)
		}
		// Hop RTTs along the source's climb must be reachable and the
		// final hop RTT must not exceed the full tree RTT.
		if last.RTTms > top.TreeRTTms(from, to)+1e-9 {
			t.Fatalf("last hop RTT %v exceeds end-to-end %v", last.RTTms, top.TreeRTTms(from, to))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
}

func TestPathSameENIsEmpty(t *testing.T) {
	top := testTopology(t)
	for i := range top.ENs {
		en := &top.ENs[i]
		if len(en.Hosts) >= 2 {
			if hops := top.Path(en.Hosts[0], en.Hosts[1]); len(hops) != 0 {
				t.Fatalf("intra-EN path has %d router hops", len(hops))
			}
			return
		}
	}
}

func TestMultihomedSeenDifferently(t *testing.T) {
	top := testTopology(t)
	// Find a multihomed host and two observers in different ENs; their
	// observed upstream routers must not always agree.
	var mh HostID = -1
	for i := range top.Hosts {
		if top.Hosts[i].Multihomed && top.Hosts[i].AltUpstream != NoRouter {
			mh = HostID(i)
			break
		}
	}
	if mh < 0 {
		t.Skip("no multihomed host in small topology")
	}
	seen := make(map[RouterID]bool)
	for i := 0; i < len(top.Hosts) && len(seen) < 2; i += 31 {
		from := HostID(i)
		if from == mh || top.SameEN(from, mh) {
			continue
		}
		if r := top.LastValidRouter(from, mh); r != NoRouter {
			seen[r] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("multihomed host %d always observed via one upstream", mh)
	}
}

func TestDNSServersExist(t *testing.T) {
	top := testTopology(t)
	servers := top.DNSServers()
	if len(servers) == 0 {
		t.Fatal("no DNS servers generated")
	}
	for _, s := range servers {
		h := top.Host(s)
		if h.DNS == nil || len(h.DNS.Domains) == 0 {
			t.Fatalf("server %d lacks DNS role", s)
		}
		if !h.DNS.Recursive {
			t.Fatalf("server %d not recursive", s)
		}
	}
}

func TestRouterRTTAlongOwnChain(t *testing.T) {
	top := testTopology(t)
	for i := range top.ENs {
		en := &top.ENs[i]
		if len(en.Chain) == 0 || len(en.Hosts) == 0 {
			continue
		}
		h := en.Hosts[0]
		// RTT to the edge router must be smaller than RTT to the core.
		edge := top.RouterRTTms(h, en.EdgeRouter())
		core := top.RouterRTTms(h, top.PoPs[en.PoP].Core[0])
		if edge > core+1e-9 {
			t.Fatalf("EN %d: edge router RTT %v > core RTT %v", i, edge, core)
		}
		return
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(1.5).Microseconds() != 1500 {
		t.Fatal("Duration(1.5ms) wrong")
	}
	if Ms(Duration(2.25)) != 2.25 {
		t.Fatal("Ms(Duration) not inverse")
	}
}
