// Wire deployment of the IP-prefix mitigation: the same prefix-bucket
// hint scheme as System, but publishing and lookup run as wire operations
// against the message-level Chord DHT (internal/p2p), and candidate
// probing is pings over the runtime — the scheme's Figure 11
// false-positive cost now additionally pays per-probe timeouts for stale
// entries whose publisher churned out.

package ipprefix

import (
	"encoding/binary"
	"sort"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
)

// Wire is a deployed message-level IP-prefix service. hosts fixes the
// HostID ↔ runtime NodeID mapping: node i of the runtime's latency matrix
// is hosts[i].
type Wire struct {
	cfg   Config
	tools *measure.Tools
	chord *p2p.Chord
	index map[netmodel.HostID]p2p.NodeID
}

// NewWire creates the wire deployment over an existing Chord instance.
func NewWire(tools *measure.Tools, chord *p2p.Chord, hosts []netmodel.HostID, cfg Config) *Wire {
	index := make(map[netmodel.HostID]p2p.NodeID, len(hosts))
	for i, h := range hosts {
		index[h] = p2p.NodeID(i)
	}
	return &Wire{cfg: cfg, tools: tools, chord: chord, index: index}
}

// NodeOf maps a host to its runtime node id.
func (w *Wire) NodeOf(peer netmodel.HostID) p2p.NodeID { return w.index[peer] }

// Publish stores the peer under its prefix key as a wire Put. done
// receives whether the store was acknowledged.
func (w *Wire) Publish(peer netmodel.HostID, done func(ok bool)) {
	ip := w.tools.Top.Host(peer).IP
	w.chord.Put(w.NodeOf(peer), prefixKey(ip, w.cfg.PrefixBits), encodePeer(peer), func(r p2p.OpResult) {
		if done != nil {
			done(r.OK)
		}
	})
}

// FindNearest retrieves the querier's prefix bucket over the wire and
// probes it, closest candidate id first (the static scheme's order),
// returning the closest responder as its runtime node id (hosts[Peer] is
// the host). RPCs counts the one DHT Get, RPCFails whether it failed, Hops
// its routing cost. done fires exactly once (the issuing node is assumed to
// stay up).
func (w *Wire) FindNearest(peer netmodel.HostID, done func(p2p.FindResult)) {
	ip := w.tools.Top.Host(peer).IP
	node := w.NodeOf(peer)
	q := p2p.NewQuery(w.chord.Transport().Node(node), "ipprefix", 0)
	q.Res.RPCs = 1
	w.chord.Get(node, prefixKey(ip, w.cfg.PrefixBits), func(r p2p.OpResult) {
		q.Res.Hops += r.Hops
		q.Res.RPCFails += r.LookupFails
		seen := make(map[netmodel.HostID]bool)
		var cands []netmodel.HostID
		if r.OK {
			for _, v := range r.Vals {
				if len(v) != 4 {
					continue
				}
				p := netmodel.HostID(binary.BigEndian.Uint32(v))
				if p == peer || seen[p] {
					continue // republished duplicates collapse to one candidate
				}
				if _, known := w.index[p]; !known {
					continue
				}
				seen[p] = true
				cands = append(cands, p)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		if w.cfg.MaxProbes > 0 && len(cands) > w.cfg.MaxProbes {
			cands = cands[:w.cfg.MaxProbes]
		}
		ids := make([]p2p.NodeID, len(cands))
		for i, c := range cands {
			ids[i] = w.index[c]
		}
		q.Sweep(ids, func(p2p.NodeID, float64, bool) { done(q.Res) })
	})
}
