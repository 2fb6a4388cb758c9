package trace

import (
	"math"
	"math/rand"
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

// addRouterEdge inserts an edge between two routers.
func (g *Graph) addRouterEdge(a, b netmodel.RouterID, oneWayMs float64) {
	g.addEdge(g.routerNode(a), g.routerNode(b), oneWayMs)
}

// addHostEdge inserts an edge between a router and a host.
func (g *Graph) addHostEdge(r netmodel.RouterID, h netmodel.HostID, oneWayMs float64) {
	g.addEdge(g.routerNode(r), g.hostNode(h), oneWayMs)
}

// hasHost reports whether the host ever appeared in the graph.
func (g *Graph) hasHost(h netmodel.HostID) bool {
	_, ok := g.hostIndex[h]
	return ok
}

// numEdges returns the number of distinct undirected edges.
func (g *Graph) numEdges() int { return len(g.edgeSeen) }

// shortestRTT returns the shortest-path RTT between two specific peers, or
// +Inf when disconnected within the bound.
func (g *Graph) shortestRTT(a, b netmodel.HostID, maxRTTms float64) float64 {
	for _, pd := range g.ClosestPeers(a, maxRTTms) {
		if pd.Peer == b {
			return pd.RTTms
		}
	}
	return math.Inf(1)
}

func TestHandBuiltGraph(t *testing.T) {
	// peer100 -- r0 -- r1 -- peer200, plus a shortcut r0 -- r2 -- r1 that
	// is longer. One-way weights.
	g := NewGraph(3)
	g.addHostEdge(0, 100, 1)
	g.addRouterEdge(0, 1, 2)
	g.addHostEdge(1, 200, 1)
	g.addRouterEdge(0, 2, 3)
	g.addRouterEdge(2, 1, 3)

	peers := g.ClosestPeers(100, 100)
	if len(peers) != 1 {
		t.Fatalf("got %d peers", len(peers))
	}
	pd := peers[0]
	if pd.Peer != 200 {
		t.Fatalf("peer = %d", pd.Peer)
	}
	if want := 2 * (1.0 + 2 + 1); pd.RTTms != want {
		t.Fatalf("RTT = %v, want %v", pd.RTTms, want)
	}
	if pd.RouterHops != 2 {
		t.Fatalf("hops = %d, want 2", pd.RouterHops)
	}
}

func TestBoundedSearch(t *testing.T) {
	g := NewGraph(2)
	g.addHostEdge(0, 100, 1)
	g.addRouterEdge(0, 1, 50)
	g.addHostEdge(1, 200, 1)
	if peers := g.ClosestPeers(100, 10); len(peers) != 0 {
		t.Fatalf("bound ignored: %v", peers)
	}
	if peers := g.ClosestPeers(100, 1000); len(peers) != 1 {
		t.Fatalf("bound too tight: %v", peers)
	}
}

func TestEdgeDedupKeepsMinimum(t *testing.T) {
	g := NewGraph(2)
	g.addRouterEdge(0, 1, 5)
	g.addRouterEdge(0, 1, 3)
	g.addRouterEdge(1, 0, 7)
	if g.numEdges() != 1 {
		t.Fatalf("edges = %d", g.numEdges())
	}
	g.addHostEdge(0, 100, 0.5)
	g.addHostEdge(1, 200, 0.5)
	want := 2 * (0.5 + 3 + 0.5)
	if got := g.shortestRTT(100, 200, 100); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RTT = %v, want %v", got, want)
	}
}

func TestWeightFloor(t *testing.T) {
	g := NewGraph(2)
	g.addRouterEdge(0, 1, -5) // negative RTT subtraction artefact
	g.addHostEdge(0, 100, 0.5)
	g.addHostEdge(1, 200, 0.5)
	got := g.shortestRTT(100, 200, 100)
	if got < 2*(0.5+0.01+0.5)-1e-9 {
		t.Fatalf("negative weight not floored: %v", got)
	}
}

// TestDijkstraAgainstFloydWarshall cross-checks the bounded Dijkstra against
// an exhaustive all-pairs computation on random graphs.
func TestDijkstraAgainstFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		const nr = 12 // routers
		const nh = 6  // hosts
		g := NewGraph(nr)
		n := nr + nh
		const inf = math.MaxFloat64 / 4
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
			for j := range dist[i] {
				if i != j {
					dist[i][j] = inf
				}
			}
		}
		addRef := func(a, b int, w float64) {
			if w < dist[a][b] {
				dist[a][b] = w
				dist[b][a] = w
			}
		}
		// Random router mesh.
		for e := 0; e < 30; e++ {
			a, b := r.Intn(nr), r.Intn(nr)
			if a == b {
				continue
			}
			w := 0.1 + r.Float64()*5
			g.addRouterEdge(netmodel.RouterID(a), netmodel.RouterID(b), w)
			addRef(a, b, w)
		}
		// Hosts hang off random routers.
		for h := 0; h < nh; h++ {
			a := r.Intn(nr)
			w := 0.05 + r.Float64()
			g.addHostEdge(netmodel.RouterID(a), netmodel.HostID(1000+h), w)
			addRef(a, nr+h, w)
		}
		// Floyd-Warshall.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if dist[i][k]+dist[k][j] < dist[i][j] {
						dist[i][j] = dist[i][k] + dist[k][j]
					}
				}
			}
		}
		for h := 0; h < nh; h++ {
			got := make(map[netmodel.HostID]float64)
			for _, pd := range g.ClosestPeers(netmodel.HostID(1000+h), 1e9) {
				got[pd.Peer] = pd.RTTms
			}
			for h2 := 0; h2 < nh; h2++ {
				if h2 == h {
					continue
				}
				want := dist[nr+h][nr+h2]
				gotRTT, ok := got[netmodel.HostID(1000+h2)]
				if want >= inf {
					if ok {
						t.Fatalf("trial %d: found unreachable host", trial)
					}
					continue
				}
				if !ok {
					t.Fatalf("trial %d: missed reachable host (want %v)", trial, 2*want)
				}
				if math.Abs(gotRTT-2*want) > 1e-6 {
					t.Fatalf("trial %d: RTT %v, want %v", trial, gotRTT, 2*want)
				}
			}
		}
	}
}

func TestBuildFromTopology(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 1)
	tools := measure.NewTools(top, measure.DefaultConfig(), 5)
	vs, err := measure.SelectVantages(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	vhosts := []netmodel.HostID{vs[0].Host, vs[1].Host, vs[2].Host}

	// Use responsive peers only so they join the graph.
	var peers []netmodel.HostID
	for i := range top.Hosts {
		h := &top.Hosts[i]
		if (h.RespondsTCP || h.RespondsPing) && h.DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
		if len(peers) == 400 {
			break
		}
	}
	g := Build(tools, vhosts, peers)
	if g.NumHosts() == 0 || g.numEdges() == 0 {
		t.Fatal("empty graph from topology build")
	}

	// Shortest-path RTT between same-EN peers should be far below the
	// RTT between random cross-PoP peers.
	var sameEN, cross float64
	var nSame, nCross int
	for i, a := range peers {
		if !g.hasHost(a) {
			continue
		}
		for _, b := range peers[i+1:] {
			if !g.hasHost(b) {
				continue
			}
			rtt := g.shortestRTT(a, b, 400)
			if math.IsInf(rtt, 1) {
				continue
			}
			if top.SameEN(a, b) {
				sameEN += rtt
				nSame++
			} else if !top.SamePoPCluster(a, b) && nCross < 50 {
				cross += rtt
				nCross++
			}
		}
		if nSame > 10 && nCross >= 50 {
			break
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Skipf("insufficient pairs (same=%d cross=%d)", nSame, nCross)
	}
	if sameEN/float64(nSame) >= cross/float64(nCross) {
		t.Fatalf("graph does not reflect locality: sameEN %v >= cross %v",
			sameEN/float64(nSame), cross/float64(nCross))
	}
}
