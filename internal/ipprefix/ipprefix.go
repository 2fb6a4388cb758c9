// Package ipprefix implements the paper's IP-prefix mitigation (Section
// 5): peers publish themselves in the DHT under a fixed-length prefix of
// their IP address; a joining peer retrieves everyone sharing its prefix
// and probes them. The scheme is simpler than the UCL but suffers the
// false-positive/false-negative trade-off of Figure 11: short prefixes
// return swaths of far-away peers to probe, long prefixes miss close-by
// peers in neighbouring blocks.
package ipprefix

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// The scheme's fixed parameters.
const (
	// prefixBits is the fixed prefix length used as the DHT key (the paper
	// sweeps 8–24; /24 is the running example).
	prefixBits int = 24
	// maxProbes caps how many retrieved candidates the querier probes.
	maxProbes int = 64
)

// prefixKey is the DHT key a peer at ip publishes under.
func prefixKey(ip netmodel.IPv4) string {
	return fmt.Sprintf("prefix/%d/%08x", prefixBits, uint32(ip.Prefix(prefixBits)))
}

// System is a deployed IP-prefix service.
type System struct {
	tools *measure.Tools
	ring  *dht.Ring
}

// New creates the system over the given DHT hosting nodes.
func New(tools *measure.Tools, dhtNodes []string) *System {
	return &System{tools: tools, ring: dht.New(dhtNodes)}
}

func encodePeer(p netmodel.HostID) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint32(buf, uint32(p))
	return buf
}

// Join publishes a peer under its prefix key.
func (s *System) Join(peer netmodel.HostID) {
	ip := s.tools.Top.Host(peer).IP
	s.ring.Put(prefixKey(ip), encodePeer(peer))
}

// Leave withdraws a peer's mapping.
func (s *System) Leave(peer netmodel.HostID) {
	ip := s.tools.Top.Host(peer).IP
	s.ring.Remove(prefixKey(ip), encodePeer(peer))
}

// Result reports a prefix query's outcome and cost.
type Result struct {
	Peer       netmodel.HostID
	RTTms      float64
	Candidates int
	Probes     int
	Lookups    int
}

// FindNearest retrieves the querier's prefix bucket and probes it.
func (s *System) FindNearest(peer netmodel.HostID) Result {
	ip := s.tools.Top.Host(peer).IP
	vals := s.ring.Get(prefixKey(ip))
	res := Result{Peer: -1, RTTms: math.Inf(1), Lookups: 1}

	var cands []netmodel.HostID
	for _, v := range vals {
		if len(v) != 4 {
			continue
		}
		p := netmodel.HostID(binary.BigEndian.Uint32(v))
		if p != peer {
			cands = append(cands, p)
		}
	}
	res.Candidates = len(cands)
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, c := range cands[:min(maxProbes, len(cands))] {
		d, err := s.tools.LatencyTo(peer, c)
		res.Probes++
		if err != nil {
			continue
		}
		if ms := netmodel.Ms(d); ms < res.RTTms {
			res.Peer = c
			res.RTTms = ms
		}
	}
	return res
}

// Ring exposes the underlying DHT.
func (s *System) Ring() *dht.Ring { return s.ring }

// ErrorRates computes the paper's Figure 11 statistics over a peer set:
// for each peer, the false-positive rate is the fraction of peers sharing
// its prefix among all peers farther than thresholdMs, and the
// false-negative rate is the fraction of peers with a different prefix
// among all peers within thresholdMs. Distances come from the supplied
// oracle (the paper uses shortest paths over the traceroute graph).
// Returned values are the medians across peers that have at least one peer
// within the threshold (for FN) or beyond it (for FP).
func ErrorRates(top *netmodel.Topology, peers []netmodel.HostID, bits int, thresholdMs float64, dist func(a, b netmodel.HostID) float64) (fp, fn float64) {
	var fps, fns []float64
	for _, a := range peers {
		var nearSame, nearDiff, farSame, farDiff int
		ipA := top.Host(a).IP
		for _, b := range peers {
			if a == b {
				continue
			}
			d := dist(a, b)
			same := ipA.SharesPrefix(top.Host(b).IP, bits)
			if d <= thresholdMs {
				if same {
					nearSame++
				} else {
					nearDiff++
				}
			} else {
				if same {
					farSame++
				} else {
					farDiff++
				}
			}
		}
		if farSame+farDiff > 0 {
			fps = append(fps, float64(farSame)/float64(farSame+farDiff))
		}
		if nearSame+nearDiff > 0 {
			fns = append(fns, float64(nearDiff)/float64(nearSame+nearDiff))
		}
	}
	return medianOf(fps), medianOf(fns)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
