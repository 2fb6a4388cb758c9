// Wire deployment of the UCL mitigation: the same upstream-router hint
// scheme as System, but the key-value map is the message-level Chord DHT
// (internal/p2p) hosted by the peers themselves, publishing is a sequence
// of wire Puts, lookups are iterative wire Gets, and candidate probing is
// pings over the runtime — so every cost the static simulation counts as
// one probe or one hop is re-priced by a wire that can lose, delay, and
// time out, and hint entries can go stale when their publisher churns out.

package ucl

import (
	"sort"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
)

// Wire is a deployed message-level UCL service. The hosts slice fixes the
// HostID ↔ runtime NodeID mapping: node i of the runtime's latency matrix
// is hosts[i]. All hosts are expected to be Chord members; entries naming
// peers outside the mapping are discarded at query time.
type Wire struct {
	cfg     Config
	tools   *measure.Tools
	chord   *p2p.Chord
	index   map[netmodel.HostID]p2p.NodeID
	anchors []netmodel.HostID
}

// NewWire creates the wire deployment over an existing Chord instance.
func NewWire(tools *measure.Tools, chord *p2p.Chord, hosts []netmodel.HostID, anchors []netmodel.HostID, cfg Config) *Wire {
	if len(anchors) == 0 {
		panic("ucl: need at least one anchor")
	}
	index := make(map[netmodel.HostID]p2p.NodeID, len(hosts))
	for i, h := range hosts {
		index[h] = p2p.NodeID(i)
	}
	return &Wire{cfg: cfg, tools: tools, chord: chord, index: index, anchors: anchors}
}

// NodeOf maps a host to its runtime node id.
func (w *Wire) NodeOf(peer netmodel.HostID) p2p.NodeID { return w.index[peer] }

// Publish computes the peer's UCL locally (traceroutes are the peer's own
// business) and stores each router→peer mapping in the DHT as wire Puts.
// done receives how many of the mappings were acknowledged stored.
func (w *Wire) Publish(peer netmodel.HostID, done func(stored int)) {
	pubs := ComputeUCL(w.tools, w.anchors, w.cfg, peer)
	node := w.NodeOf(peer)
	stored := 0
	var next func(i int)
	next = func(i int) {
		if i >= len(pubs) {
			if done != nil {
				done(stored)
			}
			return
		}
		w.chord.Put(node, routerKey(pubs[i].Router), pubs[i].Entry.encode(), func(r p2p.OpResult) {
			if r.OK {
				stored++
			}
			next(i + 1)
		})
	}
	next(0)
}

// FindNearest runs the UCL query for peer over the wire: compute its UCL
// locally, fetch the peers sharing each of those routers from the DHT,
// estimate latencies via the shared router, discard the certainly-far,
// ping the rest over the runtime, return the closest responder (as its
// runtime node id: hosts[Peer] is the host). RPCs counts the DHT Gets
// issued, RPCFails those that never resolved an owner, Hops their routing
// cost. done fires exactly once (the issuing node is assumed to stay up
// for the query).
func (w *Wire) FindNearest(peer netmodel.HostID, done func(p2p.FindResult)) {
	own := ComputeUCL(w.tools, w.anchors, w.cfg, peer)
	node := w.NodeOf(peer)
	q := p2p.NewQuery(w.chord.Transport().Node(node), "ucl", 0)
	q.Res.RPCs = len(own) // one DHT Get per router of the UCL
	best := make(map[netmodel.HostID]float64)

	probe := func(cands []hintCand) {
		ids := make([]p2p.NodeID, len(cands))
		for i, c := range cands {
			ids[i] = w.index[c.peer]
		}
		q.Sweep(ids, func(p2p.NodeID, float64, bool) { done(q.Res) })
	}

	var get func(i int)
	get = func(i int) {
		if i >= len(own) {
			kept := rankHintCands(best, w.cfg)
			if w.cfg.MaxProbes > 0 && len(kept) > w.cfg.MaxProbes {
				kept = kept[:w.cfg.MaxProbes]
			}
			probe(kept)
			return
		}
		p := own[i]
		w.chord.Get(node, routerKey(p.Router), func(r p2p.OpResult) {
			q.Res.Hops += r.Hops
			q.Res.RPCFails += r.LookupFails
			if r.OK {
				for _, v := range r.Vals {
					e, err := decodeEntry(v)
					if err != nil || e.Peer == peer {
						continue
					}
					if _, known := w.index[e.Peer]; !known {
						continue
					}
					est := e.RTTms + p.Entry.RTTms
					if old, ok := best[e.Peer]; !ok || est < old {
						best[e.Peer] = est
					}
				}
			}
			get(i + 1)
		})
	}
	get(0)
}

// hintCand is one retrieved candidate with its router-sum latency estimate.
type hintCand struct {
	peer netmodel.HostID
	est  float64
}

// rankHintCands applies the estimate cutoff, closest estimate first (the
// probe cap is applied by the caller so it can count the cutoff discards).
func rankHintCands(best map[netmodel.HostID]float64, cfg Config) []hintCand {
	cands := make([]hintCand, 0, len(best))
	for p, est := range best {
		if est > cfg.EstimateCutoffMs {
			continue
		}
		cands = append(cands, hintCand{peer: p, est: est})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].est != cands[j].est {
			return cands[i].est < cands[j].est
		}
		return cands[i].peer < cands[j].peer
	})
	return cands
}
