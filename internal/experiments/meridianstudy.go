package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
)

// This file reproduces the Section 4 Meridian simulations behind Figures 8
// and 9: ~2.5k peers in clustered latency matrices, ~2.4k in the overlay,
// 100 held-out targets, 5,000 closest-peer queries, three runs per
// configuration, β=0.5 and 16 nodes per ring.

// simulateMeridian runs one (matrix, overlay, queries) simulation of the
// registry's Meridian through the held-out-target cell.
func simulateMeridian(cfg latency.ClusteredConfig, nTargets, nQueries int, seed int64) TargetScore {
	m, gt := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), nTargets, seed+1)
	o := must(StaticFinder("meridian", overlay.NewNetwork(m), members, seed+1, nil))
	return must(RunStaticTargets(o, m, gt, members, targets, nQueries, seed+3))
}

// scaleParams returns (total peers, targets, queries, runs) per scale.
func scaleParams(s Scale) (peers, targets, queries, runs int) {
	if s == Full {
		return 2500, 100, 5000, 3
	}
	return 1200, 60, 800, 2
}

// summary3 holds median/min/max over runs.
type summary3 struct{ med, min, max float64 }

func summarize(xs []float64) summary3 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return summary3{med: cp[len(cp)/2], min: cp[0], max: cp[len(cp)-1]}
}

// meridianSweep is the grid behind Figures 8 and 9: the scale's run count at
// each of n sweep positions, position i's run configured and seeded by at.
// Every (position, run) pair is one independent simulation — its matrix,
// overlay and query stream derive only from its own seed — so the grid fans
// out across the engine worker pool and the merged figure is identical at
// any -workers. The scores come back grouped by position.
func meridianSweep(label string, scale Scale, seed int64, n int, at func(i, run int) (latency.ClusteredConfig, int64)) [][]TargetScore {
	peers, targets, queries, runs := scaleParams(scale)
	type cell struct{ i, run int }
	var cells []cell
	for i := 0; i < n; i++ {
		for r := 0; r < runs; r++ {
			cells = append(cells, cell{i, r})
		}
	}
	flat := engine.Map(engine.Config{Seed: seed, Label: label}, cells, func(_ *engine.Trial, c cell) TargetScore {
		cfg, runSeed := at(c.i, c.run)
		cfg.TotalPeers = peers
		return simulateMeridian(cfg, targets, queries, runSeed)
	})
	out := make([][]TargetScore, n)
	for i := range out {
		out[i] = flat[i*runs : (i+1)*runs]
	}
	return out
}

// overRuns summarises one score column over a position's runs.
func overRuns(runs []TargetScore, column func(TargetScore) float64) summary3 {
	xs := make([]float64, len(runs))
	for i, run := range runs {
		xs[i] = column(run)
	}
	return summarize(xs)
}

// meanProbesOver is the mean of the runs' probes-per-query column.
func meanProbesOver(runs []TargetScore) float64 {
	var probes float64
	for _, run := range runs {
		probes += run.MeanProbes
	}
	return probes / float64(len(runs))
}

// Fig8Point is one x position of Figure 8.
type Fig8Point struct {
	ENsPerCluster int
	PExact        summary3
	PCluster      summary3
	MeanProbes    float64
}

// Fig8Result reproduces Figure 8.
type Fig8Result struct {
	Points []Fig8Point
	Delta  float64
}

// Fig8 sweeps the number of end-networks per cluster.
func Fig8(scale Scale, seed int64) *Fig8Result {
	out := &Fig8Result{Delta: 0.2}
	ensSweep := []int{5, 25, 50, 125, 250}
	sweep := meridianSweep("fig8", scale, seed, len(ensSweep), func(i, run int) (latency.ClusteredConfig, int64) {
		cfg := latency.DefaultClusteredConfig()
		cfg.ENsPerCluster = ensSweep[i]
		cfg.Delta = out.Delta
		return cfg, seed + int64(1000*ensSweep[i]+run)
	})
	for i, runs := range sweep {
		out.Points = append(out.Points, Fig8Point{
			ENsPerCluster: ensSweep[i],
			PExact:        overRuns(runs, func(r TargetScore) float64 { return r.PExact }),
			PCluster:      overRuns(runs, func(r TargetScore) float64 { return r.PCluster }),
			MeanProbes:    meanProbesOver(runs),
		})
	}
	return out
}

// Render prints the figure's two series.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Meridian success vs end-networks per cluster (δ=%.1f, β=0.5, 16/ring, 2 peers/EN)\n", r.Delta)
	fmt.Fprintf(&b, "%8s %28s %28s %10s\n", "#ENs", "P(exact closest) med[min,max]", "P(correct cluster)", "probes/q")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %12.3f [%5.3f,%5.3f] %12.3f [%5.3f,%5.3f] %10.1f\n",
			p.ENsPerCluster,
			p.PExact.med, p.PExact.min, p.PExact.max,
			p.PCluster.med, p.PCluster.min, p.PCluster.max,
			p.MeanProbes)
	}
	b.WriteString("paper: P(exact) peaks near 25 ENs then falls as the clustering condition bites;\nP(correct cluster) rises monotonically toward 1\n")
	return b.String()
}

// Fig9Point is one δ position of Figure 9.
type Fig9Point struct {
	Delta      float64
	PExact     summary3
	HubLat     summary3 // mean hub latency of non-exact found peers, per run
	MeanProbes float64
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	ENsPerCluster int
	Points        []Fig9Point
}

// Fig9 sweeps δ at 125 end-networks per cluster.
func Fig9(scale Scale, seed int64) *Fig9Result {
	out := &Fig9Result{ENsPerCluster: 125}
	deltaSweep := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	sweep := meridianSweep("fig9", scale, seed, len(deltaSweep), func(i, run int) (latency.ClusteredConfig, int64) {
		cfg := latency.DefaultClusteredConfig()
		cfg.ENsPerCluster = out.ENsPerCluster
		cfg.Delta = deltaSweep[i]
		return cfg, seed + int64(10000*deltaSweep[i]) + int64(run)
	})
	for i, runs := range sweep {
		out.Points = append(out.Points, Fig9Point{
			Delta:      deltaSweep[i],
			PExact:     overRuns(runs, func(r TargetScore) float64 { return r.PExact }),
			HubLat:     overRuns(runs, func(r TargetScore) float64 { return r.MeanHubLat }),
			MeanProbes: meanProbesOver(runs),
		})
	}
	return out
}

// Render prints the figure's two series.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Meridian accuracy vs δ (%d ENs/cluster, β=0.5, 2 peers/EN)\n", r.ENsPerCluster)
	fmt.Fprintf(&b, "%8s %28s %28s %10s\n", "δ", "P(exact closest) med[min,max]", "hub-lat of found (ms)", "probes/q")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.1f %12.3f [%5.3f,%5.3f] %12.2f [%5.2f,%5.2f] %10.1f\n",
			p.Delta,
			p.PExact.med, p.PExact.min, p.PExact.max,
			p.HubLat.med, p.HubLat.min, p.HubLat.max,
			p.MeanProbes)
	}
	b.WriteString("paper: P(exact) rises with δ (the condition weakens); the found peer's hub latency\nfalls because Meridian preferentially lands on peers near the hub\n")
	return b.String()
}
