package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/stats"
	"nearestpeer/internal/trace"
)

// This file reproduces the Section 5 evaluation behind Figures 10 and 11:
// the traceroute-derived adjacency graph over responsive peers, Dijkstra
// closest-peer sets, UCL hop-length analysis and IP-prefix error rates.

var graphs memo[*Env, *trace.Graph]

// TraceGraph builds (cached) the traceroute graph over the environment's
// responsive peers.
func TraceGraph(env *Env) *trace.Graph {
	return graphs.get(env, func() *trace.Graph {
		return trace.Build(env.FreshTools(), env.VantageHosts(), env.ResponsivePeers())
	})
}

// Fig10Result reproduces Figure 10: inter-peer router hop-length as a
// function of inter-peer latency, for close (<10 ms) peer pairs.
type Fig10Result struct {
	Peers int
	Pairs int
	Bins  []stats.PercentileBin
}

// Fig10 computes the figure over the traceroute graph.
func Fig10(env *Env) *Fig10Result { return Fig10From(env, TraceGraph(env)) }

// Fig10From computes the figure from an existing graph.
func Fig10From(env *Env, g *trace.Graph) *Fig10Result {
	peers := env.ResponsivePeers()
	var lats, hops []float64
	pairs := g.AllPairsWithin(10)
	for _, pd := range pairs {
		lats = append(lats, pd.RTTms)
		hops = append(hops, float64(pd.RouterHops))
	}
	return &Fig10Result{
		Peers: len(peers),
		Pairs: len(pairs),
		Bins:  stats.BinnedPercentiles(lats, hops, 10),
	}
}

// Render prints the binned percentile table.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: inter-peer router hops vs latency (UCL reach analysis)\n")
	fmt.Fprintf(&b, "%d responsive peers, %d pairs under 10 ms\n", r.Peers, r.Pairs)
	fmt.Fprintf(&b, "%10s %8s %8s %8s %8s %8s %8s\n",
		"lat(ms)", "n", "p5", "p25", "median", "p75", "p95")
	for _, bin := range r.Bins {
		fmt.Fprintf(&b, "%10.2f %8d %8.0f %8.0f %8.0f %8.0f %8.0f\n",
			bin.X, bin.Count, bin.P5, bin.P25, bin.Median, bin.P75, bin.P95)
	}
	b.WriteString("tracking n routers discovers peers 2n hops away: the paper reads \"median 4 hops\nat ~4 ms\" as 2 tracked routers reaching the median such pair\n")
	return b.String()
}

// Fig11Point is one prefix length of Figure 11.
type Fig11Point struct {
	Bits int
	FP   float64 // median false-positive rate
	FN   float64 // median false-negative rate
}

// Fig11Result reproduces Figure 11.
type Fig11Result struct {
	ThresholdMs float64
	// NearPopulation is the number of peers with at least one other peer
	// within the threshold (paper: ~2,400).
	NearPopulation int
	Points         []Fig11Point
}

// Fig11 computes median false-positive and false-negative rates of the
// IP-prefix heuristic as a function of prefix length, using shortest-path
// latencies over the traceroute graph (exactly the paper's method).
func Fig11(env *Env) *Fig11Result { return Fig11From(env, TraceGraph(env)) }

// Fig11From computes the figure from an existing graph.
func Fig11From(env *Env, g *trace.Graph) *Fig11Result {
	peers := env.ResponsivePeers()
	const threshold = 10.0

	// near[p] = set of peers within threshold of p.
	near := make(map[netmodel.HostID]map[netmodel.HostID]bool, len(peers))
	for _, p := range peers {
		for _, pd := range g.ClosestPeers(p, threshold) {
			if near[p] == nil {
				near[p] = make(map[netmodel.HostID]bool)
			}
			near[p][pd.Peer] = true
			if near[pd.Peer] == nil {
				near[pd.Peer] = make(map[netmodel.HostID]bool)
			}
			near[pd.Peer][p] = true
		}
	}
	out := &Fig11Result{ThresholdMs: threshold, NearPopulation: len(near)}

	for bits := 8; bits <= 24; bits += 2 {
		// Bucket peers by prefix for O(1) same-prefix totals.
		bucket := make(map[netmodel.IPv4]int)
		for _, p := range peers {
			bucket[env.Top.Host(p).IP.Prefix(bits)]++
		}
		var fps, fns []float64
		for _, p := range peers {
			ip := env.Top.Host(p).IP
			sameTotal := bucket[ip.Prefix(bits)] - 1
			nearSet := near[p]
			nearSame, nearDiff := 0, 0
			for q := range nearSet {
				if env.Top.Host(q).IP.SharesPrefix(ip, bits) {
					nearSame++
				} else {
					nearDiff++
				}
			}
			farSame := sameTotal - nearSame
			farTotal := len(peers) - 1 - len(nearSet)
			if farTotal > 0 {
				fps = append(fps, float64(farSame)/float64(farTotal))
			}
			if len(nearSet) > 0 {
				fns = append(fns, float64(nearDiff)/float64(len(nearSet)))
			}
		}
		out.Points = append(out.Points, Fig11Point{
			Bits: bits,
			FP:   medianFloat(fps),
			FN:   medianFloat(fns),
		})
	}
	return out
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// Render prints the two error-rate curves.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: IP-prefix heuristic error rates vs prefix length (threshold %.0f ms)\n", r.ThresholdMs)
	fmt.Fprintf(&b, "peers with a <%.0f ms neighbour: %d (paper: ~2,400)\n", r.ThresholdMs, r.NearPopulation)
	fmt.Fprintf(&b, "%8s %16s %16s\n", "bits", "false-positive", "false-negative")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %16.4f %16.4f\n", p.Bits, p.FP, p.FN)
	}
	b.WriteString("paper: FP falls and FN rises with prefix length; no sweet spot exists\n")
	return b.String()
}
