package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/stats"
)

// This file reproduces the Section 3.1 DNS-server study behind Figures 3,
// 4 and 5: cluster ~22k recursive DNS servers by closest upstream PoP
// (rockettrace), predict pair latencies from ping triangulation around the
// deepest common router, measure them with King, and compare.

// dnsPair is one measured DNS-server pair.
type dnsPair struct {
	a, b        netmodel.HostID
	predictedMs float64
	measuredMs  float64
	sameDomain  bool
	// hopsA/hopsB are the servers' hop distances beyond the common router.
	hopsA, hopsB int
}

// DNSStudyResult carries the raw pair measurements all three figures draw
// from, plus the attrition accounting the paper reports.
type DNSStudyResult struct {
	Servers        int
	Clusters       int
	PairsTried     int
	DiscardNeg     int // negative latency after subtraction
	DiscardHops    int // > MaxHops from the common router
	DiscardFar     int // predicted > 100 ms
	DiscardKing    int // King failed (same domain or otherwise)
	Pairs          []dnsPair
	IntraDomain    []dnsPair // same-domain pairs (predicted only)
	MaxHops        int
	PredCutoffMs   float64
	PairsPerServer int
}

// runDNSStudy executes the shared pipeline.
func runDNSStudy(env *Env) *DNSStudyResult {
	res := &DNSStudyResult{MaxHops: 10, PredCutoffMs: 100, PairsPerServer: 4}

	servers := env.Top.DNSServers()
	if env.Scale == Quick && len(servers) > 4000 {
		servers = servers[:4000]
	}
	res.Servers = len(servers)
	tools := env.FreshTools()

	// Step 1: rockettrace every server once from the measurement host,
	// cache the trace, and map it to its closest upstream PoP.
	traces := make(map[netmodel.HostID][]measure.AnnotatedHop, len(servers))
	clusters := make(map[measure.PoPKey][]netmodel.HostID)
	for _, s := range servers {
		tr := tools.Rockettrace(env.MH, s)
		traces[s] = tr
		key, _, _, ok := tools.ClosestUpstreamPoP(env.MH, s)
		if !ok {
			continue
		}
		clusters[key] = append(clusters[key], s)
	}
	res.Clusters = len(clusters)

	// Step 2: pair servers within clusters, ~PairsPerServer pairs each.
	src := rng.New(env.Seed + 1003)
	type pairKey [2]netmodel.HostID
	seen := make(map[pairKey]bool)
	var pairs []pairKey
	keys := make([]measure.PoPKey, 0, len(clusters))
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].AS != keys[j].AS {
			return keys[i].AS < keys[j].AS
		}
		return keys[i].City < keys[j].City
	})
	for _, k := range keys {
		members := clusters[k]
		if len(members) < 2 {
			continue
		}
		for _, a := range members {
			for t := 0; t < res.PairsPerServer; t++ {
				b := members[src.Intn(len(members))]
				if b == a {
					continue
				}
				pk := pairKey{a, b}
				if b < a {
					pk = pairKey{b, a}
				}
				if !seen[pk] {
					seen[pk] = true
					pairs = append(pairs, pk)
				}
			}
		}
	}

	// Step 3: predict and measure each pair.
	pingCache := make(map[netmodel.HostID]float64)
	ping := func(h netmodel.HostID) (float64, bool) {
		if v, ok := pingCache[h]; ok {
			return v, v >= 0
		}
		d, err := tools.Ping(env.MH, h)
		if err != nil {
			pingCache[h] = -1
			return 0, false
		}
		ms := netmodel.Ms(d)
		pingCache[h] = ms
		return ms, true
	}
	routerPing := make(map[netmodel.RouterID]float64)
	pingR := func(r netmodel.RouterID) (float64, bool) {
		if v, ok := routerPing[r]; ok {
			return v, v >= 0
		}
		d, err := tools.PingRouter(env.MH, r)
		if err != nil {
			routerPing[r] = -1
			return 0, false
		}
		ms := netmodel.Ms(d)
		routerPing[r] = ms
		return ms, true
	}

	for _, pk := range pairs {
		a, b := pk[0], pk[1]
		res.PairsTried++
		ta, tb := traces[a], traces[b]
		r, idxA, idxB, _, ok := measure.DeepestCommonRouter(ta, tb)
		if !ok {
			continue
		}
		hopsA := len(ta) - idxA
		hopsB := len(tb) - idxB
		sameDom := tools.SameDomain(a, b)

		pa, okA := ping(a)
		pb, okB := ping(b)
		pr, okR := pingR(r)
		if !okA || !okB || !okR {
			continue
		}
		latA, latB := pa-pr, pb-pr
		if latA < 0 || latB < 0 {
			res.DiscardNeg++
			continue
		}
		predicted := latA + latB
		p := dnsPair{a: a, b: b, predictedMs: predicted, sameDomain: sameDom, hopsA: hopsA, hopsB: hopsB}

		if sameDom {
			// King is unusable; keep for the intra-domain distribution
			// (hop filters applied at render time).
			res.IntraDomain = append(res.IntraDomain, p)
			continue
		}
		if hopsA > res.MaxHops || hopsB > res.MaxHops {
			res.DiscardHops++
			continue
		}
		if predicted > res.PredCutoffMs {
			res.DiscardFar++
			continue
		}
		d, err := tools.King(env.MH, a, b)
		if err != nil {
			res.DiscardKing++
			continue
		}
		p.measuredMs = netmodel.Ms(d)
		res.Pairs = append(res.Pairs, p)
	}
	return res
}

// dnsStudies shares the study across Figures 3-5 in one process.
var dnsStudies memo[*Env, *DNSStudyResult]

// DNSStudy returns the (cached) Section 3.1 study for an environment.
func DNSStudy(env *Env) *DNSStudyResult {
	return dnsStudies.get(env, func() *DNSStudyResult { return runDNSStudy(env) })
}

// ComputeDNSStudy runs the study without caching (benchmarks time it).
func ComputeDNSStudy(env *Env) *DNSStudyResult { return runDNSStudy(env) }

// Fig3Result is the Figure 3 reproduction: the cumulative distribution of
// the prediction measure (predicted / measured latency).
type Fig3Result struct {
	Pairs          int
	FractionIn05_2 float64
	CDF            *stats.CDF
}

// Fig3 computes the figure.
func Fig3(env *Env) *Fig3Result { return Fig3From(DNSStudy(env)) }

// Fig3From computes the figure from an existing study.
func Fig3From(study *DNSStudyResult) *Fig3Result {
	ratios := make([]float64, 0, len(study.Pairs))
	for _, p := range study.Pairs {
		ratios = append(ratios, p.predictedMs/p.measuredMs)
	}
	cdf := stats.NewCDF(ratios)
	return &Fig3Result{
		Pairs:          len(ratios),
		FractionIn05_2: cdf.FractionWithin(0.5, 2),
		CDF:            cdf,
	}
}

// Render prints the figure's series: cumulative count of pairs vs ratio.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: CDF of prediction measure (predicted/measured latency)\n")
	fmt.Fprintf(&b, "%d DNS-server pairs; %.0f%% within [0.5, 2] (paper: ~65%% of 18,019 pairs)\n",
		r.Pairs, r.FractionIn05_2*100)
	fmt.Fprintf(&b, "%12s %20s\n", "ratio", "cumulative pairs")
	for _, x := range []float64{0.25, 0.5, 0.7, 1.0, 1.4, 2.0, 4.0, 8.0} {
		fmt.Fprintf(&b, "%12.2f %20d\n", x, r.CDF.CountAtMost(x))
	}
	return b.String()
}

// Fig4Result is the Figure 4 reproduction: prediction measure vs predicted
// latency, binned percentiles.
type Fig4Result struct {
	Bins []stats.PercentileBin
}

// Fig4 computes the figure.
func Fig4(env *Env) *Fig4Result { return Fig4From(DNSStudy(env)) }

// Fig4From computes the figure from an existing study.
func Fig4From(study *DNSStudyResult) *Fig4Result {
	var xs, ys []float64
	for _, p := range study.Pairs {
		xs = append(xs, p.predictedMs)
		ys = append(ys, p.predictedMs/p.measuredMs)
	}
	return &Fig4Result{Bins: stats.BinnedPercentiles(xs, ys, 12)}
}

// Render prints the binned percentile table.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: prediction measure vs predicted latency (binned percentiles)\n")
	fmt.Fprintf(&b, "%12s %8s %8s %8s %8s %8s %8s\n",
		"pred(ms)", "n", "p5", "p25", "median", "p75", "p95")
	for _, bin := range r.Bins {
		fmt.Fprintf(&b, "%12.2f %8d %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			bin.X, bin.Count, bin.P5, bin.P25, bin.Median, bin.P75, bin.P95)
	}
	b.WriteString("paper: median rises with predicted latency (lag inflates small measurements,\nalternate paths shrink large ones)\n")
	return b.String()
}

// Fig5Result is the Figure 5 reproduction: intra-domain vs inter-domain
// latency CDFs.
type Fig5Result struct {
	IntraMax5  *stats.CDF // same-domain pairs, <=5 hops (predicted)
	IntraMax10 *stats.CDF // same-domain pairs, <=10 hops (predicted)
	InterKing  *stats.CDF // different-domain pairs, King-measured
	InterPred  *stats.CDF // different-domain pairs, predicted
}

// Fig5 computes the figure.
func Fig5(env *Env) *Fig5Result { return Fig5From(DNSStudy(env)) }

// Fig5From computes the figure from an existing study.
func Fig5From(study *DNSStudyResult) *Fig5Result {
	var intra5, intra10, interK, interP []float64
	for _, p := range study.IntraDomain {
		if p.hopsA <= 5 && p.hopsB <= 5 {
			intra5 = append(intra5, p.predictedMs)
		}
		if p.hopsA <= 10 && p.hopsB <= 10 {
			intra10 = append(intra10, p.predictedMs)
		}
	}
	for _, p := range study.Pairs {
		interK = append(interK, p.measuredMs)
		interP = append(interP, p.predictedMs)
	}
	return &Fig5Result{
		IntraMax5:  stats.NewCDF(intra5),
		IntraMax10: stats.NewCDF(intra10),
		InterKing:  stats.NewCDF(interK),
		InterPred:  stats.NewCDF(interP),
	}
}

// Render prints the four CDFs at the paper's x positions.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: intra-domain vs inter-domain latency CDFs\n")
	fmt.Fprintf(&b, "samples: intra5=%d intra10=%d interKing=%d interPred=%d\n",
		r.IntraMax5.N(), r.IntraMax10.N(), r.InterKing.N(), r.InterPred.N())
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n",
		"lat(ms)", "intra(5hop)", "intra(10hop)", "inter(King)", "inter(pred)")
	for _, x := range []float64{0.01, 0.1, 0.3, 1, 3, 10, 30, 100} {
		fmt.Fprintf(&b, "%10.2f %12.3f %12.3f %12.3f %12.3f\n",
			x, r.IntraMax5.At(x), r.IntraMax10.At(x), r.InterKing.At(x), r.InterPred.At(x))
	}
	fmt.Fprintf(&b, "median intra(10hop)=%.3f ms vs inter(King)=%.3f ms (paper: ~an order of magnitude apart)\n",
		r.IntraMax10.Quantile(0.5), r.InterKing.Quantile(0.5))
	return b.String()
}
