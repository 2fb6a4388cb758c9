// Wire deployment of the Tiers hierarchy: the same bounded clusters as the
// static Hierarchy, but each representative serves its own cluster's member
// list as an RPC and the querier's per-cluster probing is real pings over
// the runtime. The descent is therefore priced end to end — a dead
// representative severs its whole subtree from the query, the failure mode
// a leader-based hierarchy buys with its O(log n) probe bill.

package tiers

import (
	"sort"

	"nearestpeer/internal/p2p"
)

// Message types of the Tiers wire protocol.
const (
	// MsgCluster asks a representative for the member list of the cluster
	// it leads at the requested level (clusterMsg/clusterOK).
	MsgCluster   = "t_cluster"
	MsgClusterOK = "t_cluster_ok"
)

type clusterMsg struct{ Level int }
type clusterOK struct {
	// OK is false when the asked node leads no cluster at that level.
	OK  bool
	IDs []int // sorted ascending
}

func init() {
	p2p.RegisterPayload(MsgCluster, clusterMsg{})
	p2p.RegisterPayload(MsgClusterOK, clusterOK{})
}

// Wire is a deployed message-level Tiers service. Member indices are
// runtime NodeIDs (the hierarchy is built over the runtime's latency
// matrix). The Wire owns its Hierarchy instance; build it with the same
// seed as a static leg's and the two descend identical trees.
type Wire struct {
	base *Hierarchy
	rt   p2p.Transport
	// repIdx[level][rep] is the cluster index the rep leads at that level.
	repIdx []map[int]int
	// table is the member role's dispatch table, served by every member.
	table *p2p.Table
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Hierarchy) *Wire {
	w := &Wire{base: base, rt: rt, repIdx: make([]map[int]int, len(base.levels))}
	for l, clusters := range base.levels {
		w.repIdx[l] = make(map[int]int, len(clusters))
		for ci, c := range clusters {
			w.repIdx[l][c.rep] = ci
		}
	}
	w.table = p2p.NewTable().With(MsgCluster, w.handleCluster)
	return w
}

// Join brings a member up on the runtime, serving the cluster handler
// (every member leads its own singleton view at level 0 or better; non-reps
// simply answer OK=false).
func (w *Wire) Join(id p2p.NodeID) {
	w.rt.AddNode(id).Serve(w.table)
}

// handleCluster answers with the cluster the member leads at the asked
// level.
func (w *Wire) handleCluster(n *p2p.Node, env p2p.Envelope) {
	cm := env.Payload.(clusterMsg)
	if cm.Level < 0 || cm.Level >= len(w.base.levels) {
		n.Reply(env, MsgClusterOK, clusterOK{})
		return
	}
	ci, ok := w.repIdx[cm.Level][int(n.ID)]
	if !ok {
		n.Reply(env, MsgClusterOK, clusterOK{})
		return
	}
	ids := append([]int(nil), w.base.levels[cm.Level][ci].members...)
	sort.Ints(ids)
	n.Reply(env, MsgClusterOK, clusterOK{OK: true, IDs: ids})
}

// FindNearest descends the hierarchy over the wire from client: fetch the
// top cluster from the (well-known) top representative, ping its members,
// follow the closest into its own cluster one level down, repeat. done
// fires exactly once, also when the client stops mid-query (its requests
// fail at the stop, and the descent ends there).
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "tiers", 0)
	level := len(w.base.levels) - 1
	rep := w.base.levels[level][0].rep

	var descend func(level, rep int)
	descend = func(level, rep int) {
		q.Call(p2p.NodeID(rep), MsgCluster, clusterMsg{Level: level},
			func(env p2p.Envelope) {
				co := env.Payload.(clusterOK)
				if !co.OK {
					done(q.Res)
					return
				}
				ids := make([]p2p.NodeID, 0, len(co.IDs))
				for _, m := range co.IDs {
					if p2p.NodeID(m) != client {
						ids = append(ids, p2p.NodeID(m))
					}
				}
				q.Sweep(ids, func(s p2p.Swept) {
					q.Res.Hops++
					if level == 0 || !s.Found {
						done(q.Res)
						return
					}
					descend(level-1, int(s.Peer))
				})
			},
			// The subtree is unreachable: report the best so far.
			func() { done(q.Res) })
	}
	descend(level, rep)
}
