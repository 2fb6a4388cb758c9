// Package trace builds the traceroute-derived adjacency graph of Section 5's
// evaluation: the Azureus peers plus every router seen on traceroutes from
// the vantage points, with inter-node latencies estimated from consecutive
// hop RTT differences. Shortest paths over this graph (Dijkstra) provide the
// peer-to-peer latency and router-hop estimates behind Figures 10 and 11.
package trace

import (
	"container/heap"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// nodeID indexes the graph: routers first, then hosts.
type nodeID int32

// Graph is an undirected weighted graph over routers and peer hosts.
// Weights are one-way latencies in milliseconds.
type Graph struct {
	nRouters  int
	hosts     []netmodel.HostID
	hostIndex map[netmodel.HostID]nodeID
	adj       map[nodeID][]edge
	// edgeSeen dedupes edges, keeping the smallest weight observed.
	edgeSeen map[[2]nodeID]float64
}

type edge struct {
	to nodeID
	w  float64
}

// NewGraph creates an empty graph over a topology's router space.
func NewGraph(nRouters int) *Graph {
	return &Graph{
		nRouters:  nRouters,
		hostIndex: make(map[netmodel.HostID]nodeID),
		adj:       make(map[nodeID][]edge),
		edgeSeen:  make(map[[2]nodeID]float64),
	}
}

func (g *Graph) routerNode(r netmodel.RouterID) nodeID { return nodeID(r) }

func (g *Graph) hostNode(h netmodel.HostID) nodeID {
	if id, ok := g.hostIndex[h]; ok {
		return id
	}
	id := nodeID(g.nRouters + len(g.hosts))
	g.hosts = append(g.hosts, h)
	g.hostIndex[h] = id
	return id
}

// NumHosts returns the number of host nodes.
func (g *Graph) NumHosts() int { return len(g.hosts) }

// addEdge inserts an undirected edge, keeping the minimum weight seen.
func (g *Graph) addEdge(a, b nodeID, w float64) {
	if a == b {
		return
	}
	if w < 0.01 {
		w = 0.01 // RTT subtraction noise floor
	}
	key := [2]nodeID{a, b}
	if b < a {
		key = [2]nodeID{b, a}
	}
	if old, ok := g.edgeSeen[key]; ok {
		if w >= old {
			return
		}
		// Rewrite both adjacency entries with the smaller weight.
		for i := range g.adj[a] {
			if g.adj[a][i].to == b {
				g.adj[a][i].w = w
			}
		}
		for i := range g.adj[b] {
			if g.adj[b][i].to == a {
				g.adj[b][i].w = w
			}
		}
		g.edgeSeen[key] = w
		return
	}
	g.edgeSeen[key] = w
	g.adj[a] = append(g.adj[a], edge{to: b, w: w})
	g.adj[b] = append(g.adj[b], edge{to: a, w: w})
}

// Build runs traceroutes from every vantage point to every peer and
// assembles the adjacency graph, exactly as Section 5 does: consecutive
// responding routers contribute an edge weighted by half their RTT
// difference; the peer itself is linked to its last responding router when
// the peer produced a valid latency (TCP ping or traceroute).
func Build(tools *measure.Tools, vantages []netmodel.HostID, peers []netmodel.HostID) *Graph {
	g := NewGraph(len(tools.Top.Routers))
	for _, v := range vantages {
		for _, p := range peers {
			trace := tools.Traceroute(v, p)
			prev := netmodel.NoRouter
			prevMs := 0.0
			for _, hop := range trace {
				if hop.Router == netmodel.NoRouter {
					continue // '*' hop or the destination entry
				}
				ms := netmodel.Ms(hop.RTT)
				if prev != netmodel.NoRouter {
					g.addEdge(g.routerNode(prev), g.routerNode(hop.Router), (ms-prevMs)/2)
				}
				prev, prevMs = hop.Router, ms
			}
			if prev == netmodel.NoRouter {
				continue
			}
			if d, err := tools.LatencyTo(v, p); err == nil {
				g.addEdge(g.routerNode(prev), g.hostNode(p), (netmodel.Ms(d)-prevMs)/2)
			}
		}
	}
	return g
}

// PeerDist is a peer reachable from a source, with the shortest-path RTT
// estimate and the number of routers on that path.
type PeerDist struct {
	Peer       netmodel.HostID
	RTTms      float64
	RouterHops int
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node nodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ClosestPeers runs a bounded Dijkstra from the given peer and returns all
// other peers within maxRTTms (shortest-path RTT), with router hop counts.
func (g *Graph) ClosestPeers(from netmodel.HostID, maxRTTms float64) []PeerDist {
	src, ok := g.hostIndex[from]
	if !ok {
		return nil
	}
	maxOneWay := maxRTTms / 2

	dist := make(map[nodeID]float64)
	hops := make(map[nodeID]int)
	done := make(map[nodeID]bool)
	q := &pq{{node: src, dist: 0}}
	dist[src] = 0

	var out []PeerDist
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] || it.dist > maxOneWay {
			continue
		}
		done[it.node] = true
		if int(it.node) >= g.nRouters && it.node != src {
			out = append(out, PeerDist{
				Peer:       g.hosts[int(it.node)-g.nRouters],
				RTTms:      2 * it.dist,
				RouterHops: hops[it.node],
			})
			// Hosts are leaves in the traceroute graph, but continue in
			// case a host accumulated multiple router links.
		}
		for _, e := range g.adj[it.node] {
			nd := it.dist + e.w
			if nd > maxOneWay {
				continue
			}
			if old, seen := dist[e.to]; !seen || nd < old-1e-12 {
				dist[e.to] = nd
				h := hops[it.node]
				if int(e.to) < g.nRouters {
					h++ // the next node is a router on the path
				}
				hops[e.to] = h
				heap.Push(q, pqItem{node: e.to, dist: nd})
			}
		}
	}
	return out
}

// AllPairsWithin computes, for every peer in the graph, its neighbours
// within maxRTTms. Pairs are reported once (a < b by host ID).
func (g *Graph) AllPairsWithin(maxRTTms float64) map[[2]netmodel.HostID]PeerDist {
	out := make(map[[2]netmodel.HostID]PeerDist)
	for _, h := range g.hosts {
		for _, pd := range g.ClosestPeers(h, maxRTTms) {
			a, b := h, pd.Peer
			if b < a {
				a, b = b, a
			}
			key := [2]netmodel.HostID{a, b}
			if old, ok := out[key]; !ok || pd.RTTms < old.RTTms {
				rec := pd
				rec.Peer = b
				out[key] = rec
			}
		}
	}
	return out
}
