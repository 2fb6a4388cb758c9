// Package ucl implements the paper's most promising mitigation (Section
// 5): the Upstream Connectivity List. Each peer determines the routers
// within a few hops upstream of itself by running traceroutes toward a
// handful of anchor destinations, and publishes a DHT mapping from each
// upstream router to its own address — annotated with its latency to that
// router, so that a querier can estimate its latency to a candidate as the
// sum of their latencies to the shared router and discard candidates that
// are certainly far, without probing them (the paper's answer to the
// IP-prefix heuristic's false-positive problem).
package ucl

import (
	"encoding/binary"
	"fmt"
	"math"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// The mechanism's fixed parameters.
const (
	// tracedAnchors is the number of distant destinations traced to
	// discover the upstream chain ("running traceroutes to a few different
	// locations in the Internet").
	tracedAnchors = 3
	// maxProbes caps how many retrieved candidates the querier probes.
	maxProbes = 32
)

// estimateCutoffMs discards candidates whose estimated latency (sum of
// latencies to the shared router) exceeds this bound, unprobed.
const estimateCutoffMs float64 = 20

// Config tunes the UCL mechanism.
type Config struct {
	// TrackDepth is the number of closest upstream routers each peer
	// tracks (the paper evaluates 3 for a 50% success rate at <5 ms, ~6
	// for 75%).
	TrackDepth int
}

// DefaultConfig tracks 3 routers, as in the paper's headline evaluation.
func DefaultConfig() Config {
	return Config{TrackDepth: 3}
}

// Entry is one published mapping value: a peer and its RTT to the router.
type Entry struct {
	Peer  netmodel.HostID
	RTTms float64
}

func (e Entry) encode() []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[:4], uint32(e.Peer))
	binary.BigEndian.PutUint64(buf[4:], math.Float64bits(e.RTTms))
	return buf
}

func decodeEntry(b []byte) (Entry, error) {
	if len(b) != 12 {
		return Entry{}, fmt.Errorf("ucl: malformed entry of %d bytes", len(b))
	}
	return Entry{
		Peer:  netmodel.HostID(binary.BigEndian.Uint32(b[:4])),
		RTTms: math.Float64frombits(binary.BigEndian.Uint64(b[4:])),
	}, nil
}

func routerKey(r netmodel.RouterID) string { return fmt.Sprintf("ucl/router/%d", r) }

// System is a deployed UCL service: a DHT populated with router→peer
// mappings.
type System struct {
	cfg     Config
	tools   *measure.Tools
	ring    *dht.Ring
	anchors []netmodel.HostID
	// joined tracks each member's published (router, entry) pairs so
	// Leave can withdraw the exact bytes it stored.
	joined map[netmodel.HostID][]Published
}

// Published is one (upstream router, entry) pair a peer stores in the DHT.
type Published struct {
	Router netmodel.RouterID
	Entry  Entry
}

// New creates the system. dhtNodes are the addresses hosting the key-value
// map (in a real deployment, the peers themselves); anchors are traceroute
// destinations spread across the topology.
func New(tools *measure.Tools, dhtNodes []string, anchors []netmodel.HostID, cfg Config) *System {
	if cfg.TrackDepth <= 0 {
		panic(fmt.Sprintf("ucl: invalid config %+v", cfg))
	}
	if len(anchors) == 0 {
		panic("ucl: need at least one anchor")
	}
	return &System{
		cfg:     cfg,
		tools:   tools,
		ring:    dht.New(dhtNodes),
		anchors: anchors,
		joined:  make(map[netmodel.HostID][]Published),
	}
}

// ComputeUCL determines a peer's upstream connectivity list: the first
// TrackDepth distinct responding routers on traceroutes from the peer
// toward the anchors, with the peer's (measured) RTT to each. Anonymous
// routers are invisible — a real false-negative source the model preserves.
// It is a package-level function because both the static System and the
// message-level Wire deployment compute the list the same way (running a
// traceroute is local to the peer either way; only publishing differs).
func ComputeUCL(tools *measure.Tools, anchors []netmodel.HostID, cfg Config, peer netmodel.HostID) []Published {
	var out []Published
	seen := make(map[netmodel.RouterID]bool)
	for i := 0; i < tracedAnchors && i < len(anchors); i++ {
		anchor := anchors[i]
		if anchor == peer {
			continue
		}
		for _, hop := range tools.Traceroute(peer, anchor) {
			if len(out) >= cfg.TrackDepth {
				break
			}
			if hop.Router == netmodel.NoRouter || seen[hop.Router] {
				continue
			}
			seen[hop.Router] = true
			out = append(out, Published{
				Router: hop.Router,
				Entry:  Entry{Peer: peer, RTTms: netmodel.Ms(hop.RTT)},
			})
		}
		if len(out) >= cfg.TrackDepth {
			break
		}
	}
	return out
}

// ComputeUCL determines the peer's upstream connectivity list with the
// system's tools, anchors and config.
func (s *System) ComputeUCL(peer netmodel.HostID) []Published {
	return ComputeUCL(s.tools, s.anchors, s.cfg, peer)
}

// Join publishes a peer's UCL mappings into the DHT.
func (s *System) Join(peer netmodel.HostID) {
	pubs := s.ComputeUCL(peer)
	for _, p := range pubs {
		s.ring.Put(routerKey(p.Router), p.Entry.encode())
	}
	s.joined[peer] = pubs
}

// Leave withdraws exactly the mappings a peer published.
func (s *System) Leave(peer netmodel.HostID) {
	for _, p := range s.joined[peer] {
		s.ring.Remove(routerKey(p.Router), p.Entry.encode())
	}
	delete(s.joined, peer)
}

// Result reports a UCL query's outcome and cost.
type Result struct {
	// Peer is the closest responsive candidate found (-1 if none).
	Peer netmodel.HostID
	// RTT is the measured RTT to Peer in milliseconds.
	RTTms float64
	// Candidates is how many distinct peers the DHT returned.
	Candidates int
	// Discarded counts candidates dropped by the latency estimate without
	// probing.
	Discarded int
	// Probes is the number of latency probes the querier issued.
	Probes int
	// Lookups is the number of DHT lookups issued.
	Lookups int
}

// FindNearest runs the UCL query for a (new) peer: compute its UCL, fetch
// all peers sharing any of those routers, estimate latencies via the shared
// router, discard the certainly-far, probe the rest, return the closest.
func (s *System) FindNearest(peer netmodel.HostID) Result {
	own := s.ComputeUCL(peer)
	res := Result{Peer: -1, RTTms: math.Inf(1)}

	best := make(map[netmodel.HostID]float64) // peer -> best estimate
	for _, p := range own {
		vals := s.ring.Get(routerKey(p.Router))
		res.Lookups++
		for _, v := range vals {
			e, err := decodeEntry(v)
			if err != nil || e.Peer == peer {
				continue
			}
			est := e.RTTms + p.Entry.RTTms
			if old, ok := best[e.Peer]; !ok || est < old {
				best[e.Peer] = est
			}
		}
	}
	res.Candidates = len(best)

	// rankHintCands (shared with the wire deployment) applies the cutoff
	// and the est-then-peer order, so the static baseline and the
	// message-level run probe the same candidates in the same order.
	cands := rankHintCands(best)
	res.Discarded = res.Candidates - len(cands)

	for _, c := range cands[:min(maxProbes, len(cands))] {
		d, err := s.tools.LatencyTo(peer, c.peer)
		res.Probes++
		if err != nil {
			continue
		}
		if ms := netmodel.Ms(d); ms < res.RTTms {
			res.Peer = c.peer
			res.RTTms = ms
		}
	}
	return res
}

// Ring exposes the underlying DHT (experiments report its lookup costs).
func (s *System) Ring() *dht.Ring { return s.ring }
