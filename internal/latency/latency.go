// Package latency provides latency matrices: the abstraction the
// nearest-peer algorithms consume, a dense implementation, an adaptor over
// the netmodel topology, and — centrally — the synthetic clustered matrix of
// the paper's Section 4 Meridian study.
package latency

import (
	"fmt"
	"math"

	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/rng"
)

// Matrix exposes pairwise latencies among n nodes. Latencies are RTTs in
// milliseconds, the paper's working unit.
type Matrix interface {
	N() int
	// LatencyMs returns the RTT between nodes i and j in milliseconds.
	// LatencyMs(i, i) is 0.
	LatencyMs(i, j int) float64
}

// Dense is an in-memory symmetric matrix.
type Dense struct {
	n    int
	data []float64
}

// NewDense allocates an n×n zero matrix.
func NewDense(n int) *Dense {
	return &Dense{n: n, data: make([]float64, n*n)}
}

// N returns the node count.
func (d *Dense) N() int { return d.n }

// LatencyMs returns the RTT between i and j.
func (d *Dense) LatencyMs(i, j int) float64 { return d.data[i*d.n+j] }

// Row returns node i's latencies to every node, indexed by node; the slice
// aliases the matrix and must not be written.
func (d *Dense) Row(i int) []float64 { return d.data[i*d.n : (i+1)*d.n] }

// GatherRow fills out[k] with m.LatencyMs(i, js[k]) for every k, reading
// js in order. A *Dense or *Clustered gathers the row itself; any other
// matrix gets the same values one LatencyMs call at a time, so a matrix
// with per-call state (an RTT cache) sees exactly the per-pair sequence.
func GatherRow(m Matrix, i int, js []int, out []float64) {
	out = out[:len(js)]
	if g, ok := m.(rowGatherer); ok {
		g.gatherRow(i, js, out)
		return
	}
	for k, j := range js {
		out[k] = m.LatencyMs(i, j)
	}
}

// rowGatherer is a matrix with a faster row read than per-pair LatencyMs.
type rowGatherer interface {
	gatherRow(i int, js []int, out []float64)
}

func (d *Dense) gatherRow(i int, js []int, out []float64) {
	row := d.Row(i)
	for k, j := range js {
		out[k] = row[j]
	}
}

// Set assigns the symmetric pair (i, j).
func (d *Dense) Set(i, j int, ms float64) {
	if ms < 0 {
		panic(fmt.Sprintf("latency: negative latency %v", ms))
	}
	d.data[i*d.n+j] = ms
	d.data[j*d.n+i] = ms
}

// FullTopologyMatrix adapts an entire netmodel topology: node index i is
// host ID i. Latencies are computed on demand — nothing is materialised —
// so it scales to hundreds of thousands of hosts.
type FullTopologyMatrix struct {
	Top *netmodel.Topology

	cache *netmodel.RTTCache
}

// N returns the host count.
func (m *FullTopologyMatrix) N() int { return m.Top.NumHosts() }

// EnableRTTCache attaches a direct-mapped unordered-pair cache (slots <= 0
// selects the netmodel default) and returns m for chaining. Cached values
// are bit-identical to direct pricing, so figures cannot change; what
// changes is that protocol maintenance re-pricing the same pairs (chord
// stabilize, ring pings) stops re-walking the topology. The cache makes
// the matrix single-goroutine: callers that share one topology across
// engine trials must enable the cache on each trial's own matrix, never
// on a shared one.
func (m *FullTopologyMatrix) EnableRTTCache(slots int) *FullTopologyMatrix {
	m.cache = netmodel.NewRTTCache(m.Top, slots)
	return m
}

// LatencyMs returns the true RTT between hosts i and j.
func (m *FullTopologyMatrix) LatencyMs(i, j int) float64 {
	if m.cache != nil {
		return m.cache.RTTms(netmodel.HostID(i), netmodel.HostID(j))
	}
	if i == j {
		return 0
	}
	return m.Top.RTTms(netmodel.HostID(i), netmodel.HostID(j))
}

// TopologyMatrix adapts a netmodel topology restricted to a host subset.
// It prices each pair once: the first read of (i, j) or (j, i) walks the
// topology, smaller HostID first as netmodel.RTTCache does, and later
// reads come from a triangle of n(n−1)/2 float64 allocated on the first
// read (0.64 MB at 400 hosts, 16 MB at 2,000). Values are bit-identical to
// the topology's, so the memo cannot change a figure; it does make the
// matrix single-goroutine, so each run builds its own.
type TopologyMatrix struct {
	Top   *netmodel.Topology
	Hosts []netmodel.HostID

	memo []float64 // pair i < j at j(j−1)/2 + i; 0 marks one not yet priced
}

// N returns the host-subset size.
func (m *TopologyMatrix) N() int { return len(m.Hosts) }

// LatencyMs returns the true RTT between the i-th and j-th selected hosts.
func (m *TopologyMatrix) LatencyMs(i, j int) float64 {
	if i == j {
		return 0
	}
	if m.memo == nil {
		m.memo = make([]float64, len(m.Hosts)*(len(m.Hosts)-1)/2)
	}
	i, j = min(i, j), max(i, j)
	v := &m.memo[j*(j-1)/2+i]
	if *v == 0 {
		*v = m.Top.RTTms(min(m.Hosts[i], m.Hosts[j]), max(m.Hosts[i], m.Hosts[j]))
	}
	return *v
}

// SyntheticMeridianDataset generates pairwise RTTs among n "DNS servers"
// with the gross statistics of the Meridian latency dataset the paper uses
// for cluster-hub spacing: a median pairwise RTT of about 65 ms. Nodes are
// embedded in a 5-dimensional Euclidean space (keeping the matrix roughly
// metric, as wide-area latencies are) and perturbed with mild multiplicative
// noise (triangle-inequality violations of the kind real measurements show).
func SyntheticMeridianDataset(n int, seed int64) *Dense {
	if n < 2 {
		// No pairs to rescale; a 0×0 or 1×1 matrix is all zeros anyway.
		return NewDense(n)
	}
	src := rng.New(seed)
	const dims = 5
	coords := make([][dims]float64, n)
	for i := range coords {
		for d := 0; d < dims; d++ {
			coords[i][d] = src.NormFloat64()
		}
	}
	m := NewDense(n)
	// One allocation for the pair list: growing it by append doubling
	// re-copies O(n²) floats and was measurable churn when parallel trials
	// each build their own clustered matrix.
	all := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var ss float64
			for d := 0; d < dims; d++ {
				diff := coords[i][d] - coords[j][d]
				ss += diff * diff
			}
			lat := math.Sqrt(ss) * (1 + 0.15*src.NormFloat64())
			if lat < 0.05 {
				lat = 0.05
			}
			m.Set(i, j, lat)
			all = append(all, lat)
		}
	}
	// Rescale so the median lands at 65 ms, the figure the paper quotes
	// for DNS-server pairs in the Meridian dataset.
	med := medianOf(all)
	scale := 65.0 / med
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, m.LatencyMs(i, j)*scale)
		}
	}
	return m
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	// Insertion into a partial sort is overkill; use a simple quickselect.
	k := len(cp) / 2
	lo, hi := 0, len(cp)-1
	for lo < hi {
		p := partition(cp, lo, hi)
		switch {
		case p == k:
			lo, hi = k, k
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return cp[k]
}

func partition(xs []float64, lo, hi int) int {
	pivot := xs[(lo+hi)/2]
	xs[(lo+hi)/2], xs[hi] = xs[hi], xs[(lo+hi)/2]
	store := lo
	for i := lo; i < hi; i++ {
		if xs[i] < pivot {
			xs[i], xs[store] = xs[store], xs[i]
			store++
		}
	}
	xs[store], xs[hi] = xs[hi], xs[store]
	return store
}
