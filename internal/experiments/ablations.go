package experiments

import (
	"fmt"
	"strings"

	"nearestpeer/internal/core"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/ucl"
)

// This file implements the ablation benches A1-A6: the
// design-choice studies the paper motivates but does not tabulate.

// AblationRow is one configuration's scores.
type AblationRow struct {
	Name       string
	PExact     float64
	PCluster   float64
	MeanProbes float64
}

// AblationResult is a set of rows with a title.
type AblationResult struct {
	Title string
	Note  string
	Rows  []AblationRow
}

// Render prints the table.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-24s %10s %12s %12s\n", "configuration", "P(exact)", "P(cluster)", "probes/query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %10.3f %12.3f %12.1f\n", row.Name, row.PExact, row.PCluster, row.MeanProbes)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "%s\n", r.Note)
	}
	return b.String()
}

// ablationCell is what A1-A3 and A6 share: one clustered matrix under strong
// clustering (the Figure 9 default, 125 end-networks per cluster), one member
// split and the scale's query budget.
type ablationCell struct {
	m                *latency.Clustered
	gt               *latency.GroundTruth
	members, targets []int
	queries          int
	seed             int64
}

func newAblationCell(scale Scale, seed int64) ablationCell {
	peers, _, queries, _ := scaleParams(scale)
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	m, gt := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), 60, seed+1)
	return ablationCell{m: m, gt: gt, members: members, targets: targets, queries: queries, seed: seed}
}

// row scores one finder through the held-out-target cell.
func (c ablationCell) row(name string, f overlay.Finder, queries int, streamSeed int64) AblationRow {
	sc := must(RunStaticTargets(f, c.m, c.gt, c.members, c.targets, queries, streamSeed))
	return AblationRow{Name: name, PExact: sc.PExact, PCluster: sc.PCluster, MeanProbes: sc.MeanProbes}
}

// meridianRow scores one Meridian configuration on a noiseless network: the
// configuration is the study's variable, so these overlays are built here,
// not by the registry.
func (c ablationCell) meridianRow(name string, mc meridian.Config) AblationRow {
	o := meridian.New(overlay.NewNetwork(c.m), c.members, mc, c.seed+2)
	return c.row(name, o, c.queries, c.seed+3)
}

// AblationHypervolume (A1) compares Meridian's ring-selection strategies
// under the clustering condition.
func AblationHypervolume(scale Scale, seed int64) *AblationResult {
	c := newAblationCell(scale, seed)
	out := &AblationResult{
		Title: "Ablation A1: Meridian ring-member selection under clustering (125 ENs/cluster)",
		Note:  "paper §2.3: hypervolume maximisation cannot help when the space is not doubling —\nall selections should score alike here",
	}
	for _, sel := range []meridian.RingSelection{meridian.SelectHypervolume, meridian.SelectMaxMin, meridian.SelectRandom} {
		mc := meridian.DefaultConfig()
		mc.Selection = sel
		out.Rows = append(out.Rows, c.meridianRow(sel.String(), mc))
	}
	return out
}

// AblationBetaSweep (A2) sweeps Meridian's β threshold: accuracy vs probes.
func AblationBetaSweep(scale Scale, seed int64) *AblationResult {
	c := newAblationCell(scale, seed)
	out := &AblationResult{
		Title: "Ablation A2: Meridian β sweep under clustering",
		Note:  "β trades probes for accuracy (the paper's footnote 5); no β escapes the\nclustering condition",
	}
	for _, beta := range []float64{0.25, 0.5, 0.75, 0.9} {
		mc := meridian.DefaultConfig()
		mc.Beta = beta
		out.Rows = append(out.Rows, c.meridianRow(fmt.Sprintf("beta=%.2f", beta), mc))
	}
	return out
}

// AblationRingSize (A6) sweeps nodes per ring.
func AblationRingSize(scale Scale, seed int64) *AblationResult {
	c := newAblationCell(scale, seed)
	out := &AblationResult{
		Title: "Ablation A6: Meridian ring size under clustering",
		Note:  "bigger rings probe more of the cluster per hop — brute force in disguise",
	}
	for _, k := range []int{8, 16, 32} {
		mc := meridian.DefaultConfig()
		mc.RingSize = k
		out.Rows = append(out.Rows, c.meridianRow(fmt.Sprintf("ring=%d", k), mc))
	}
	return out
}

// AblationAlgorithmComparison (A3) scores every implemented nearest-peer
// algorithm on one clustered matrix, with realistic probe jitter. Every
// finder gets its own network replaying the same noise stream.
func AblationAlgorithmComparison(scale Scale, seed int64) *AblationResult {
	c := newAblationCell(scale, seed)
	queries := c.queries / 2 // several algorithms probe heavily
	out := &AblationResult{
		Title: "Ablation A3: all algorithms under the clustering condition (125 ENs/cluster, 3% probe jitter)",
		Note:  "paper §2.3/§6: every latency-only scheme fails to find the exact (same-EN) peer",
	}
	mkNet := func() *overlay.Network {
		net := overlay.NewNetwork(c.m)
		net.SetNoise(0.03, 0.3, seed+7)
		return net
	}
	// A3's Meridian fills its rings from DefaultConfig's gossip sample; the
	// registry's sees the full membership, as the Figure 8/9 simulator does.
	out.Rows = append(out.Rows, c.row("meridian",
		meridian.New(mkNet(), c.members, meridian.DefaultConfig(), seed+2), queries, seed+4))
	for _, r := range []struct{ label, scheme string }{
		{"karger-ruhl", "kargerruhl"},
		{"tapestry", "tapestry"},
		{"tiers", "tiers"},
		{"vivaldi-coords", "vivaldi"},
		{"pic", "pic"},
		{"guyton-schwartz", "guyton"},
		{"beaconing", "beaconing"},
	} {
		f := must(StaticFinder(r.scheme, mkNet(), c.members, seed+1, nil))
		out.Rows = append(out.Rows, c.row(r.label, f, queries, seed+4))
	}
	return out
}

// sameENQueriers returns the first limit peers that have a same-EN partner
// among peers: the queriers a same-LAN mechanism can serve.
func sameENQueriers(top *netmodel.Topology, peers []netmodel.HostID, limit int) []netmodel.HostID {
	var queriers []netmodel.HostID
	for _, p := range peers {
		for _, q := range peers {
			if q != p && top.SameEN(p, q) {
				queriers = append(queriers, p)
				break
			}
		}
		if len(queriers) >= limit {
			break
		}
	}
	return queriers
}

// UCLDepthRow is one tracked-router-count configuration.
type UCLDepthRow struct {
	Depth int
	// FoundUnder5ms is the fraction of queries that found a peer under
	// 5 ms RTT (the paper: 3 routers → 50%, ~6 → 75%, among pairs that
	// have such a peer).
	FoundUnder5ms float64
	// SameEN is the fraction that found a same-end-network peer when one
	// exists.
	SameEN float64
	// MeanProbes is the mean probes per query.
	MeanProbes float64
}

// UCLDepthResult is the A4 ablation output.
type UCLDepthResult struct {
	Queries int
	Rows    []UCLDepthRow
}

// AblationUCLDepth (A4) sweeps the number of routers each peer tracks.
func AblationUCLDepth(scale Scale, seed int64) *UCLDepthResult {
	env := SharedEnv(scale, seed)
	peers := env.ResponsivePeers()
	if len(peers) > 2500 {
		peers = peers[:2500]
	}
	nodes := make([]string, len(peers))
	for i, p := range peers {
		nodes[i] = env.Top.Host(p).IP.String()
	}
	anchors := env.VantageHosts()
	tools := env.FreshTools()

	// Queriers: the population where the UCL should shine.
	queriers := sameENQueriers(env.Top, peers, 120)
	out := &UCLDepthResult{Queries: len(queriers)}
	for _, depth := range []int{1, 2, 3, 4, 6, 8} {
		cfg := ucl.DefaultConfig()
		cfg.TrackDepth = depth
		sys := ucl.New(tools, nodes, anchors, cfg)
		for _, p := range peers {
			sys.Join(p)
		}
		var under5, sameEN, probes int
		for _, q := range queriers {
			res := sys.FindNearest(q)
			probes += res.Probes
			if res.Peer >= 0 && res.RTTms < 5 {
				under5++
			}
			if res.Peer >= 0 && env.Top.SameEN(q, res.Peer) {
				sameEN++
			}
		}
		n := float64(len(queriers))
		out.Rows = append(out.Rows, UCLDepthRow{
			Depth:         depth,
			FoundUnder5ms: float64(under5) / n,
			SameEN:        float64(sameEN) / n,
			MeanProbes:    float64(probes) / n,
		})
	}
	return out
}

// Render prints the depth sweep.
func (r *UCLDepthResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A4: UCL tracked-router depth (queriers with a same-EN partner, n=%d)\n", r.Queries)
	fmt.Fprintf(&b, "%8s %14s %10s %12s\n", "depth", "found <5ms", "same-EN", "probes/query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.2f %10.2f %12.1f\n", row.Depth, row.FoundUnder5ms, row.SameEN, row.MeanProbes)
	}
	b.WriteString("paper §5: ~3 routers give a 50% chance of discovering peers under 5 ms, ~6 give 75%\n")
	return b.String()
}

// CompositeRow scores one composite-service configuration.
type CompositeRow struct {
	Name       string
	SameEN     float64
	MedianRTT  float64
	MeanProbes float64
}

// CompositeResult is the A5 ablation output.
type CompositeResult struct {
	Queries int
	Rows    []CompositeRow
}

// AblationComposite (A5) compares the full cascade against Meridian-only on
// the generated Internet, for joining peers that have a same-EN partner.
func AblationComposite(scale Scale, seed int64) *CompositeResult {
	env := SharedEnv(scale, seed)
	peers := env.ResponsivePeers()
	if len(peers) > 1500 {
		peers = peers[:1500]
	}
	queriers := sameENQueriers(env.Top, peers, 60)
	out := &CompositeResult{Queries: len(queriers)}
	tools := env.FreshTools()

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"meridian-only", func() core.Config {
			c := core.DefaultConfig()
			c.UseMulticast, c.UseUCL, c.UsePrefix = false, false, false
			return c
		}()},
		{"ucl-only", func() core.Config {
			c := core.DefaultConfig()
			c.UseMulticast, c.UsePrefix, c.UseMeridian = false, false, false
			return c
		}()},
		{"full-cascade", core.DefaultConfig()},
	}
	for _, cc := range configs {
		svc := core.NewService(env.Top, tools, peers, cc.cfg, seed+5)
		var sameEN int
		var probes int64
		var rtts []float64
		for _, q := range queriers {
			res := svc.FindNearest(q)
			probes += res.Probes
			if res.Peer >= 0 {
				rtts = append(rtts, res.RTTms)
				if env.Top.SameEN(q, res.Peer) {
					sameEN++
				}
			}
		}
		out.Rows = append(out.Rows, CompositeRow{
			Name:       cc.name,
			SameEN:     float64(sameEN) / float64(len(queriers)),
			MedianRTT:  medianFloat(rtts),
			MeanProbes: float64(probes) / float64(len(queriers)),
		})
	}
	return out
}

// Render prints the comparison.
func (r *CompositeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A5: composite cascade vs Meridian-only (queriers with same-EN partner, n=%d)\n", r.Queries)
	fmt.Fprintf(&b, "%-16s %10s %14s %14s\n", "configuration", "same-EN", "median RTT(ms)", "probes/query")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %10.2f %14.3f %14.1f\n", row.Name, row.SameEN, row.MedianRTT, row.MeanProbes)
	}
	b.WriteString("paper §5: the hints find same-LAN peers that latency-only search misses\n")
	return b.String()
}
