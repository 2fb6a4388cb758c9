package netmodel

import (
	"testing"

	"nearestpeer/internal/rng"
)

// treeOneWayMsReference is the original struct-walking implementation of
// TreeOneWayMs, kept verbatim as the oracle: the flat-table hot path must
// reproduce it bit for bit, not merely within a tolerance — the figure
// goldens depend on every float operation happening in the same order.
func treeOneWayMsReference(t *Topology, a, b HostID) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	ha, hb := &t.Hosts[a], &t.Hosts[b]
	if ha.EN == hb.EN {
		lat := ha.LANLatMs + hb.LANLatMs
		if ha.VLAN != hb.VLAN {
			lat += vlanCrossMs
		}
		return lat
	}
	ea, eb := &t.ENs[ha.EN], &t.ENs[hb.EN]
	if ea.PoP == eb.PoP {
		d := commonChainDepth(ea, eb)
		if d > 0 {
			c := ea.ChainLatMs[d-1]
			return ha.LANLatMs + (ea.HubLatMs - c) + (eb.HubLatMs - c) + hb.LANLatMs
		}
		return ha.LANLatMs + ea.HubLatMs + eb.HubLatMs + hb.LANLatMs
	}
	hub := t.hubLat.oneWay(ea.PoP, eb.PoP)
	return ha.LANLatMs + ea.HubLatMs + hub + eb.HubLatMs + hb.LANLatMs
}

// TestTreeOneWayMsMatchesReferenceExactly sweeps random pairs (plus every
// structural case: same EN, same PoP, cross PoP) and requires bit-exact
// agreement between the flat hot path and the struct walk.
func TestTreeOneWayMsMatchesReferenceExactly(t *testing.T) {
	top := Generate(DefaultConfig(), 42)
	n := len(top.Hosts)
	src := rng.New(7)
	for i := 0; i < 20000; i++ {
		a, b := HostID(src.Intn(n)), HostID(src.Intn(n))
		got, want := top.TreeOneWayMs(a, b), treeOneWayMsReference(top, a, b)
		if got != want {
			t.Fatalf("TreeOneWayMs(%d, %d) = %v, reference %v (Δ %g)", a, b, got, want, got-want)
		}
	}
	// Every host paired with a same-EN neighbour, to force the intra-EN
	// branch for ENs of every VLAN shape.
	for _, en := range top.ENs {
		if len(en.Hosts) < 2 {
			continue
		}
		a, b := en.Hosts[0], en.Hosts[len(en.Hosts)-1]
		if got, want := top.TreeOneWayMs(a, b), treeOneWayMsReference(top, a, b); got != want {
			t.Fatalf("same-EN TreeOneWayMs(%d, %d) = %v, reference %v", a, b, got, want)
		}
	}
}

// TestHostFlatTableMirrorsStructs pins the SoA table against the structs
// it flattens.
func TestHostFlatTableMirrorsStructs(t *testing.T) {
	top := Generate(DefaultConfig(), 3)
	f := &top.flat
	if len(f.lan) != len(top.Hosts) {
		t.Fatalf("flat table covers %d hosts, topology has %d", len(f.lan), len(top.Hosts))
	}
	for i := range top.Hosts {
		h := &top.Hosts[i]
		en := &top.ENs[h.EN]
		if f.lan[i] != h.LANLatMs || f.hub[i] != en.HubLatMs ||
			f.toCore[i] != h.LANLatMs+en.HubLatMs ||
			f.en[i] != h.EN || f.pop[i] != en.PoP || f.vlan[i] != int32(h.VLAN) {
			t.Fatalf("flat table row %d diverged from structs", i)
		}
	}
}

// TestTreeOneWayMsZeroAlloc is a failing test, not a bench note: the
// pricing hot path must not allocate, or 48.5M kernel events worth of
// pricing turns into GC pressure.
func TestTreeOneWayMsZeroAlloc(t *testing.T) {
	top := Generate(DefaultConfig(), 1)
	n := len(top.Hosts)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		_ = top.TreeOneWayMs(HostID(i%n), HostID((i*7+3)%n))
		i++
	}); avg != 0 {
		t.Fatalf("TreeOneWayMs allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		_ = top.RTTms(HostID(i%n), HostID((i*13+5)%n))
		i++
	}); avg != 0 {
		t.Fatalf("RTTms allocates %v per call, want 0", avg)
	}
}

// TestRTTCacheMatchesDirect requires cached reads to be bit-identical to
// direct pricing, on both the miss (fill) and hit (serve) path.
func TestRTTCacheMatchesDirect(t *testing.T) {
	top := Generate(DefaultConfig(), 5)
	n := len(top.Hosts)
	c := NewRTTCache(top, 1<<10)
	src := rng.New(9)
	pairs := make([][2]HostID, 500)
	for i := range pairs {
		pairs[i] = [2]HostID{HostID(src.Intn(n)), HostID(src.Intn(n))}
	}
	for round := 0; round < 3; round++ { // round 0 fills, later rounds hit
		for _, p := range pairs {
			if got, want := c.RTTms(p[0], p[1]), top.RTTms(p[0], p[1]); got != want {
				t.Fatalf("round %d: cache RTTms(%d, %d) = %v, direct %v", round, p[0], p[1], got, want)
			}
		}
	}
	if c.Hits == 0 || c.Misses == 0 {
		t.Fatalf("cache accounting implausible: %d hits, %d misses", c.Hits, c.Misses)
	}
	// Symmetry through the canonical pair key.
	a, b := pairs[0][0], pairs[0][1]
	if c.RTTms(a, b) != c.RTTms(b, a) {
		t.Fatal("cache broke RTT symmetry")
	}
	if c.RTTms(a, a) != 0 {
		t.Fatal("self RTT through cache not zero")
	}
}

// TestRTTCacheZeroAllocOnHit: the steady state of chord stabilize is a
// cache hit; it must be allocation-free.
func TestRTTCacheZeroAllocOnHit(t *testing.T) {
	top := Generate(DefaultConfig(), 1)
	c := NewRTTCache(top, 1<<10)
	c.RTTms(0, 1)
	if avg := testing.AllocsPerRun(1000, func() { _ = c.RTTms(0, 1) }); avg != 0 {
		t.Fatalf("cache hit allocates %v per call, want 0", avg)
	}
}

func TestRTTCacheSlotRounding(t *testing.T) {
	top := Generate(DefaultConfig(), 1)
	if c := NewRTTCache(top, 100); len(c.keys) != 128 {
		t.Fatalf("100 slots rounded to %d, want 128", len(c.keys))
	}
	if c := NewRTTCache(top, 0); len(c.keys) != DefaultRTTCacheSlots {
		t.Fatalf("default slots = %d, want %d", len(c.keys), DefaultRTTCacheSlots)
	}
}
