package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nearestpeer/internal/cluster"
	"nearestpeer/internal/stats"
)

// This file reproduces the Section 3.2 Azureus study behind Figures 6 and
// 7: the vantage-point pipeline over the synthetic peer population.

var azStudies memo[*Env, *cluster.Result]

// AzureusStudy runs (cached) the clustering pipeline over the environment's
// population.
func AzureusStudy(env *Env) *cluster.Result {
	return azStudies.get(env, func() *cluster.Result { return ComputeAzureusStudy(env) })
}

// ComputeAzureusStudy runs the pipeline without caching (benchmarks time it).
func ComputeAzureusStudy(env *Env) *cluster.Result {
	return cluster.Run(env.FreshTools(), env.Vantages, env.Population.Hosts)
}

// Fig6Result is the Figure 6 reproduction: the distribution of cluster
// sizes before and after pruning.
type Fig6Result struct {
	Candidates     int
	Responsive     int
	UniqueUpstream int
	// SizesUnpruned and SizesPruned are cluster sizes, descending.
	SizesUnpruned []int
	SizesPruned   []int
	// FracPruned25 is the fraction of surviving peers in pruned clusters
	// of size >= 25 (paper: ~16%).
	FracPruned25 float64
}

// Fig6 computes the figure.
func Fig6(env *Env) *Fig6Result { return Fig6From(AzureusStudy(env)) }

// Fig6From computes the figure from an existing pipeline result.
func Fig6From(res *cluster.Result) *Fig6Result {
	out := &Fig6Result{
		Candidates:     res.Candidates,
		Responsive:     res.Responsive,
		UniqueUpstream: res.UniqueUpstream,
		SizesUnpruned:  cluster.SizeDistribution(res.Clusters),
		SizesPruned:    cluster.SizeDistribution(res.Pruned),
		FracPruned25:   cluster.FractionInClustersOfAtLeast(res.Pruned, res.UniqueUpstream, 25),
	}
	return out
}

// cumulativeAtSizes renders the paper's axis: for each size threshold, the
// number of peers in clusters of size <= threshold.
func cumulativeAtSizes(sizes []int, thresholds []int) []int {
	asc := append([]int(nil), sizes...)
	sort.Ints(asc)
	out := make([]int, len(thresholds))
	for ti, th := range thresholds {
		total := 0
		for _, s := range asc {
			if s <= th {
				total += s
			}
		}
		out[ti] = total
	}
	return out
}

// Render prints the cumulative cluster-size distribution.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: cluster sizes before/after pruning\n")
	fmt.Fprintf(&b, "pipeline: %d addresses -> %d responsive -> %d unique-upstream\n",
		r.Candidates, r.Responsive, r.UniqueUpstream)
	fmt.Fprintf(&b, "(paper: 156,658 -> 22,796 responsive -> 5,904 unique-upstream)\n")
	thresholds := []int{1, 2, 5, 10, 25, 50, 100, 200, 500}
	unp := cumulativeAtSizes(r.SizesUnpruned, thresholds)
	pru := cumulativeAtSizes(r.SizesPruned, thresholds)
	fmt.Fprintf(&b, "%10s %18s %18s\n", "size<=", "peers (unpruned)", "peers (pruned)")
	for i, th := range thresholds {
		fmt.Fprintf(&b, "%10d %18d %18d\n", th, unp[i], pru[i])
	}
	fmt.Fprintf(&b, "fraction of peers in pruned clusters >=25: %.1f%% (paper: ~16%%)\n",
		r.FracPruned25*100)
	return b.String()
}

// Fig7Result is the Figure 7 reproduction: hub-to-peer latency
// distributions of the five largest pruned clusters.
type Fig7Result struct {
	// Sizes of the five clusters, descending.
	Sizes []int
	// CDFs of hub-to-peer latencies, parallel to Sizes.
	CDFs []*stats.CDF
}

// Fig7 computes the figure.
func Fig7(env *Env) *Fig7Result { return Fig7From(AzureusStudy(env)) }

// Fig7From computes the figure from an existing pipeline result.
func Fig7From(res *cluster.Result) *Fig7Result {
	clusters := append([]cluster.Cluster(nil), res.Pruned...)
	sort.Slice(clusters, func(i, j int) bool { return len(clusters[i].Peers) > len(clusters[j].Peers) })
	n := 5
	if n > len(clusters) {
		n = len(clusters)
	}
	out := &Fig7Result{}
	for _, c := range clusters[:n] {
		lats := make([]float64, len(c.Peers))
		for i, p := range c.Peers {
			lats[i] = p.HubLatMs
		}
		out.Sizes = append(out.Sizes, len(c.Peers))
		out.CDFs = append(out.CDFs, stats.NewCDF(lats))
	}
	return out
}

// Render prints the five distributions as cumulative counts.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: hub-to-peer latency distribution, 5 largest pruned clusters\n")
	fmt.Fprintf(&b, "cluster sizes: %v (paper: 235, 139, 113, 79, 73)\n", r.Sizes)
	fmt.Fprintf(&b, "%10s", "lat(ms)<=")
	for i := range r.CDFs {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("c%d(n=%d)", i+1, r.Sizes[i]))
	}
	b.WriteByte('\n')
	for _, x := range []float64{5, 10, 20, 50, 100} {
		fmt.Fprintf(&b, "%10.0f", x)
		for _, c := range r.CDFs {
			fmt.Fprintf(&b, " %9d", c.CountAtMost(x))
		}
		b.WriteByte('\n')
	}
	b.WriteString("paper: most cluster peers sit at 10-100 ms from the hub, i.e. in distinct end-networks\n")
	return b.String()
}

// Table1Result reproduces Table 1: the vantage points.
type Table1Result struct {
	Rows [][3]string // name, paper location, simulated city
}

// Table1 lists the vantage points.
func Table1(env *Env) *Table1Result {
	out := &Table1Result{}
	for _, v := range env.Vantages {
		out.Rows = append(out.Rows, [3]string{v.Name, v.Location, v.City})
	}
	return out
}

// Render prints the table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: vantage points (paper's PlanetLab nodes -> simulated cities)\n")
	fmt.Fprintf(&b, "%-34s %-20s %-16s\n", "Vantage Point", "Location (paper)", "Simulated City")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %-20s %-16s\n", row[0], row[1], row[2])
	}
	return b.String()
}
