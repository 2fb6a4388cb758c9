package netmodel

// This file is the latency-pricing hot path. The message-level experiments
// price every wire message through Topology.RTTms, so at scale-study
// populations (48.5M kernel events at 100k hosts) the pointer-chasing
// cost of walking Host and EndNetwork structs per call dominates whole
// cells. Two structures flatten it:
//
//   - hostFlat: a per-host structure-of-arrays table (LAN latency, EN hub
//     latency, their precomputed sum, and the EN/PoP/VLAN identifiers)
//     built once at Generate time. TreeOneWayMs then prices the common
//     cross-PoP case from four flat array loads plus the existing hubLat
//     lookup, touching neither the Host nor the EndNetwork structs.
//   - RTTCache: a small direct-mapped cache over unordered host pairs.
//     Protocol maintenance (chord stabilize, ring pings) re-prices the
//     same few pairs millions of times; a cache hit skips both the tree
//     walk and the shortcut-model hash.
//
// Determinism note: every fast path reproduces the exact floating-point
// operation order of the original struct walk (same operands, same
// left-to-right summation), and the cache stores values the slow path
// computed — so figures priced through either path are byte-identical.

// hostFlat holds per-host latency inputs as parallel arrays indexed by
// HostID. All values are copies of Host/EndNetwork fields, never mutated
// after Generate, so reads are safe from any number of goroutines.
type hostFlat struct {
	// lan[h] is Host.LANLatMs.
	lan []float64
	// hub[h] is the host's EndNetwork.HubLatMs.
	hub []float64
	// toCore[h] is lan[h] + hub[h], precomputed in exactly that order —
	// the prefix every via-the-core price starts with.
	toCore []float64
	// en, pop and vlan are the host's end-network, PoP and VLAN index.
	en   []ENID
	pop  []PoPID
	vlan []int32
}

// buildHostFlat populates the SoA table from the generated hosts. Called
// once at the end of Generate, after every host exists.
func buildHostFlat(t *Topology) {
	n := len(t.Hosts)
	t.flat = hostFlat{
		lan:    make([]float64, n),
		hub:    make([]float64, n),
		toCore: make([]float64, n),
		en:     make([]ENID, n),
		pop:    make([]PoPID, n),
		vlan:   make([]int32, n),
	}
	for i := range t.Hosts {
		h := &t.Hosts[i]
		en := &t.ENs[h.EN]
		t.flat.lan[i] = h.LANLatMs
		t.flat.hub[i] = en.HubLatMs
		t.flat.toCore[i] = h.LANLatMs + en.HubLatMs
		t.flat.en[i] = h.EN
		t.flat.pop[i] = en.PoP
		t.flat.vlan[i] = int32(h.VLAN)
	}
}

// RTTCache is a direct-mapped cache of Topology.RTTms over unordered host
// pairs. A colliding pair simply overwrites the slot — the cache trades
// capacity misses for a fixed footprint and zero probe loops. Cached
// values are exactly what RTTms computed, so reading through the cache
// can never change a figure byte.
//
// The cache is deliberately NOT safe for concurrent use: parallel engine
// trials each wrap the shared read-only Topology in their own cache (see
// latency.FullTopologyMatrix.EnableRTTCache), the same way each trial
// owns its own kernel.
type RTTCache struct {
	// Hits and Misses count lookups for observability; they carry no
	// semantic weight.
	Hits, Misses uint64

	top  *Topology
	keys []uint64 // packed pair key + 1; 0 marks an empty slot
	vals []float64
	mask uint64
}

// DefaultRTTCacheSlots is the slot count NewRTTCache uses for slots <= 0:
// 32k slots (512 KiB) covers a chord ring's successor/finger working set
// with room to spare.
const DefaultRTTCacheSlots = 1 << 15

// NewRTTCache builds a cache over the topology with the given slot count,
// rounded up to a power of two. slots <= 0 selects DefaultRTTCacheSlots.
func NewRTTCache(t *Topology, slots int) *RTTCache {
	if slots <= 0 {
		slots = DefaultRTTCacheSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &RTTCache{
		top:  t,
		keys: make([]uint64, n),
		vals: make([]float64, n),
		mask: uint64(n - 1),
	}
}

// RTTms returns Topology.RTTms(a, b), serving repeats of the same
// unordered pair from the cache.
func (c *RTTCache) RTTms(a, b HostID) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	key++ // keep 0 free as the empty-slot marker
	// Fibonacci hashing spreads the dense low bits of (a, b) across slots.
	slot := (key * 0x9E3779B97F4A7C15 >> 13) & c.mask
	if c.keys[slot] == key {
		c.Hits++
		return c.vals[slot]
	}
	c.Misses++
	v := c.top.RTTms(a, b)
	c.keys[slot] = key
	c.vals[slot] = v
	return v
}
