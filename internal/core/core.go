// Package core is the library's public face: a NearestPeer service that
// deploys the paper's recommended combination of mechanisms over a P2P
// population — multicast search inside the end-network, the UCL and
// IP-prefix DHT hints, and a Meridian overlay as the latency-only fallback
// — plus a clustering-condition detector implementing the Section 2.1
// definition, so an application can tell when latency-only search is going
// to struggle.
//
// The paper's conclusion, made executable: "the three approaches would be
// used in conjunction with existing near-peer finding algorithms (and with
// one another) to obtain maximum accuracy in finding the nearest peer."
package core

import (
	"fmt"
	"math"
	"sort"

	"nearestpeer/internal/ipprefix"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/ucl"
)

// Method identifies which mechanism produced a result.
type Method string

// The methods a Service composes.
const (
	MethodMulticast Method = "multicast"
	MethodUCL       Method = "ucl"
	MethodPrefix    Method = "ipprefix"
	MethodMeridian  Method = "meridian"
	MethodNone      Method = "none"
)

// Config assembles the composite service.
type Config struct {
	// UseMulticast / UseUCL / UsePrefix / UseMeridian toggle stages.
	UseMulticast bool
	UseUCL       bool
	UsePrefix    bool
	UseMeridian  bool
	// SatisfiedMs stops the cascade early once a peer at or under this
	// RTT is found (same-extended-LAN latencies are sub-millisecond).
	SatisfiedMs float64
	// CrossVLANProb is the probability that an end-network routes
	// multicast across its VLANs. Where it does not, the in-network search
	// never leaves the searcher's own VLAN — the paper's caveat that a
	// multicast "may not reach any other host in large end-networks
	// composed of multiple LANs or VLANs".
	CrossVLANProb float64
}

// DefaultConfig enables the full cascade.
func DefaultConfig() Config {
	return Config{
		UseMulticast:  true,
		UseUCL:        true,
		UsePrefix:     true,
		UseMeridian:   true,
		SatisfiedMs:   1.0,
		CrossVLANProb: 0.4,
	}
}

// Result is the composite outcome.
type Result struct {
	// Peer is the nearest peer found (-1 when every stage failed).
	Peer netmodel.HostID
	// RTTms is the measured RTT to Peer.
	RTTms float64
	// Method is the stage that produced Peer.
	Method Method
	// Probes is the total number of latency measurements across stages.
	Probes int64
	// Messages counts multicast messages and DHT lookups.
	Messages int64
	// StagesRun lists the methods attempted, in order.
	StagesRun []Method
}

// Service is the composite nearest-peer service over a peer population.
type Service struct {
	cfg    Config
	top    *netmodel.Topology
	tools  *measure.Tools
	peers  []netmodel.HostID
	stages []stage
}

// stage is one mechanism of the cascade: the method it reports as, and its
// search for a target's nearest peer, which fills a Result's Peer (negative
// for none), RTTms, Probes and Messages.
type stage struct {
	method Method
	find   func(target netmodel.HostID) Result
}

// NewService deploys the configured mechanisms over the given peers. The
// peers are registered in every enabled subsystem (multicast groups, UCL
// and prefix DHT mappings, the Meridian overlay).
func NewService(top *netmodel.Topology, tools *measure.Tools, peers []netmodel.HostID, cfg Config, seed int64) *Service {
	if len(peers) == 0 {
		panic("core: no peers")
	}
	s := &Service{
		cfg:   cfg,
		top:   top,
		tools: tools,
		peers: append([]netmodel.HostID(nil), peers...),
	}
	src := rng.New(seed)

	if cfg.UseMulticast {
		s.stages = append(s.stages, stage{MethodMulticast, multicastSearch(top, s.peers, cfg.CrossVLANProb, src.Split("multicast"))})
	}
	if cfg.UseUCL || cfg.UsePrefix {
		// The peers themselves host the DHT.
		nodes := make([]string, 0, len(s.peers))
		for _, p := range s.peers {
			nodes = append(nodes, top.Host(p).IP.String())
		}
		anchors := pickAnchors(top, s.peers, 5, src.Split("anchors"))
		if cfg.UseUCL {
			sys := ucl.New(tools, nodes, anchors, ucl.DefaultConfig())
			for _, p := range s.peers {
				sys.Join(p)
			}
			s.stages = append(s.stages, stage{MethodUCL, func(target netmodel.HostID) Result {
				r := sys.FindNearest(target)
				return Result{Peer: r.Peer, RTTms: r.RTTms, Probes: int64(r.Probes), Messages: int64(r.Lookups)}
			}})
		}
		if cfg.UsePrefix {
			sys := ipprefix.New(tools, nodes)
			for _, p := range s.peers {
				sys.Join(p)
			}
			s.stages = append(s.stages, stage{MethodPrefix, func(target netmodel.HostID) Result {
				r := sys.FindNearest(target)
				return Result{Peer: r.Peer, RTTms: r.RTTms, Probes: int64(r.Probes), Messages: int64(r.Lookups)}
			}})
		}
	}
	if cfg.UseMeridian {
		members := make([]int, len(s.peers))
		for i, p := range s.peers {
			members[i] = int(p)
		}
		mer := meridian.New(overlay.NewNetwork(&latency.FullTopologyMatrix{Top: top}), members, meridian.DefaultConfig(), src.Split("meridian").Seed())
		s.stages = append(s.stages, stage{MethodMeridian, func(target netmodel.HostID) Result {
			r := mer.FindNearest(int(target))
			return Result{Peer: netmodel.HostID(r.Peer), RTTms: r.LatencyMs, Probes: r.Probes}
		}})
	}
	return s
}

// multicastSearch is the in-network stage: the expanding-ring rule over the
// searcher's end-network, with multicast's reach. Every peer subscribes to
// its end-network's group; round 0 reaches the searcher's own VLAN, round 1
// the whole end-network where its routing crosses VLANs (decided once per
// end-network from src). A third round would reach no one new.
func multicastSearch(top *netmodel.Topology, peers []netmodel.HostID, crossVLANProb float64, src *rng.Source) func(netmodel.HostID) Result {
	type group struct {
		members      []netmodel.HostID
		crossesVLANs bool
	}
	groups := make(map[netmodel.ENID]*group)
	for _, p := range peers {
		en := top.Host(p).EN
		g := groups[en]
		if g == nil {
			g = &group{crossesVLANs: src.SplitN("crossvlan", int(en)).Bool(crossVLANProb)}
			groups[en] = g
		}
		g.members = append(g.members, p)
	}
	return func(target netmodel.HostID) Result {
		res := Result{Peer: -1, RTTms: math.Inf(1)}
		from := top.Host(target)
		g := groups[from.EN]
		if g == nil {
			return res
		}
		r := p2p.ExpandRing(2, len(g.members), func(round, j int) (float64, bool) {
			m := g.members[j]
			if m == target || top.Host(m).VLAN != from.VLAN && (round == 0 || !g.crossesVLANs) {
				return 0, false
			}
			return top.RTTms(target, m), true
		})
		res.Messages = int64(r.Probes)
		if r.Found {
			res.Peer, res.RTTms = g.members[r.Peer], r.RTTms
		}
		return res
	}
}

// pickAnchors selects well-spread hosts to serve as traceroute anchors.
func pickAnchors(top *netmodel.Topology, peers []netmodel.HostID, n int, src *rng.Source) []netmodel.HostID {
	var anchors []netmodel.HostID
	usedCity := make(map[netmodel.CityID]bool)
	perm := src.Perm(top.NumHosts())
	for _, idx := range perm {
		h := netmodel.HostID(idx)
		city := top.PoP(top.HostEN(h).PoP).City
		if usedCity[city] {
			continue
		}
		usedCity[city] = true
		anchors = append(anchors, h)
		if len(anchors) == n {
			break
		}
	}
	if len(anchors) == 0 {
		anchors = append(anchors, peers[0])
	}
	return anchors
}

// FindNearest runs the cascade for a joining peer (not necessarily a
// current member) and returns the best peer found with full cost
// accounting: the stages run in order, their bills add, and the first
// stage after which the best answer is within SatisfiedMs ends it.
func (s *Service) FindNearest(target netmodel.HostID) Result {
	res := Result{Peer: -1, RTTms: math.Inf(1), Method: MethodNone}
	for _, st := range s.stages {
		res.StagesRun = append(res.StagesRun, st.method)
		r := st.find(target)
		res.Probes += r.Probes
		res.Messages += r.Messages
		if r.Peer >= 0 && r.Peer != target && r.RTTms < res.RTTms {
			res.Peer, res.RTTms, res.Method = r.Peer, r.RTTms, st.method
		}
		if res.RTTms <= s.cfg.SatisfiedMs {
			break
		}
	}
	return res
}

// TrueNearest returns the ground-truth nearest member to target, which
// only the simulator can know.
func (s *Service) TrueNearest(target netmodel.HostID) (netmodel.HostID, float64) {
	best, bestLat := netmodel.HostID(-1), math.Inf(1)
	for _, p := range s.peers {
		if p == target {
			continue
		}
		if l := s.top.RTTms(target, p); l < bestLat {
			best, bestLat = p, l
		}
	}
	return best, bestLat
}

// ClusterReport is the output of the clustering-condition detector.
type ClusterReport struct {
	// Sampled is the number of peers probed.
	Sampled int
	// MedianMs is the median RTT to the sampled peers.
	MedianMs float64
	// BandFraction is the fraction of sampled peers within a factor-1.5
	// latency band around the median — Section 3.2's indistinguishability
	// criterion.
	BandFraction float64
	// Suspected is true when the population looks like a cluster: many
	// peers, most in the band, at non-LAN latencies.
	Suspected bool
}

// String renders the report.
func (r ClusterReport) String() string {
	return fmt.Sprintf("sampled=%d median=%.2fms band=%.0f%% suspected=%v",
		r.Sampled, r.MedianMs, r.BandFraction*100, r.Suspected)
}

// DetectClusteringCondition probes up to sampleSize random peers from the
// population and checks the Section 2.1 criteria: a large number of peers
// at about the same (non-LAN) latency from the observer. Applications can
// use this to decide whether a latency-only search is worth running.
func (s *Service) DetectClusteringCondition(from netmodel.HostID, sampleSize int, seed int64) ClusterReport {
	src := rng.New(seed)
	var lats []float64
	perm := src.Perm(len(s.peers))
	for _, i := range perm {
		p := s.peers[i]
		if p == from {
			continue
		}
		d, err := s.tools.LatencyTo(from, p)
		if err != nil {
			continue
		}
		lats = append(lats, netmodel.Ms(d))
		if len(lats) >= sampleSize {
			break
		}
	}
	rep := ClusterReport{Sampled: len(lats)}
	if len(lats) == 0 {
		return rep
	}
	sort.Float64s(lats)
	med := lats[len(lats)/2]
	rep.MedianMs = med
	inBand := 0
	for _, l := range lats {
		if l >= med/1.5 && l <= med*1.5 {
			inBand++
		}
	}
	rep.BandFraction = float64(inBand) / float64(len(lats))
	rep.Suspected = rep.Sampled >= 10 && rep.BandFraction >= 0.5 && med > 2
	return rep
}
