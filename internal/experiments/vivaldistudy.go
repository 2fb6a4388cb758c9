package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/stats"
	"nearestpeer/internal/vivaldi"
)

// This file is the Vivaldi study (figure v1): do synthetic coordinates
// survive the wire? The static internal/vivaldi embedding — an oracle that
// reads every RTT noiselessly off the matrix — is compared against
// vivaldi.Wire, the gossip deployment over internal/p2p, under 0%/5% loss
// and churn at growing host counts. Two views: a (population, condition)
// grid scoring embedding error and nearest-peer stretch on scale-study
// topologies, and a mitigation-companion table running the coordinate
// search through the exact c2 methodology so vivaldi sits beside the UCL
// and IP-prefix rows. Every cell and row is one engine trial; the figure is
// byte-identical at any -workers (wall-clock lives in RenderTiming).

// vivaldiWarmup is the wire runs' gossip warm-up: at the default 2 s gossip
// period each member collects ~240 samples, the static build's 60×4 budget.
const vivaldiWarmup = 8 * time.Minute

// vivaldiStudyHorizon caps a cell's virtual time as a watchdog.
const vivaldiStudyHorizon = 4 * time.Hour

// VivaldiCell is one (population, condition) cell of the v1 grid.
type VivaldiCell struct {
	// Cond names the wire condition ("static (function calls)",
	// "messages, loss=5%", ...).
	Cond string
	// Nominal is the requested population; Hosts the generated topology's
	// actual host count; Members the coordinate-system membership.
	Nominal, Hosts, Members int
	// Queries is the number of nearest-peer searches actually issued.
	Queries int
	// MedianErr is the embedding quality at end of run: median
	// |predicted-true|/true over sampled live member pairs.
	MedianErr float64
	// PExact is P(found peer is the true nearest live member); Found the
	// fraction of searches returning any peer; MedianStretch the median of
	// found-RTT / true-nearest-RTT over found searches.
	PExact, Found, MedianStretch float64
	// MeanProbes is query-time RTT measurements per search (placement plus
	// verification); MeanMsgs wire messages per search, maintenance
	// included; GossipMsgsPerNode the warm-up gossip bill. Static cells
	// have no wire: all three are 0 except MeanProbes.
	MeanProbes, MeanMsgs, GossipMsgsPerNode float64
	// Timeouts totals RPC timeouts; Leaves/Joins count churn events;
	// Events is the kernel events the cell executed (0 static).
	Timeouts      int64
	Leaves, Joins int
	Events        uint64
	// WallMs and QPS are the only non-deterministic fields, reported by
	// RenderTiming and excluded from Render.
	WallMs, QPS float64
}

// VivaldiStudyResult is the figure v1 output: the grid plus the
// mitigation-companion rows.
type VivaldiStudyResult struct {
	Seed    int64
	Queries int
	Cells   []VivaldiCell
	// MitPeers/MitQueries size the companion table; MitRows are the c2
	// methodology's rows for the vivaldi scheme (static + four wire
	// conditions).
	MitPeers, MitQueries int
	MitThresholdMs       float64
	MitRows              []MitigationRow
}

// vivaldiStudySizes returns the population sweep per scale: Full reaches
// the 1k/10k hosts the study quotes; Quick stays inside CI budgets.
func vivaldiStudySizes(s Scale) []int {
	if s == Full {
		return []int{1000, 10000}
	}
	return []int{400, 1000}
}

// vivaldiStudyQueries returns the searches per cell.
func vivaldiStudyQueries(s Scale) int {
	if s == Full {
		return 100
	}
	return 40
}

// VivaldiStudy runs the study at the scale's default sweep.
func VivaldiStudy(scale Scale, seed int64) *VivaldiStudyResult {
	return VivaldiStudyAt(vivaldiStudySizes(scale), vivaldiStudyQueries(scale), scale, seed)
}

// VivaldiStudyAt runs the study over explicit population sizes. Topologies
// are generated once per size and shared read-only; the (size, condition)
// grid and the mitigation-companion rows then fan out across the engine
// pool. Everything in the result except WallMs/QPS is a pure function of
// (sizes, queries, scale, seed).
func VivaldiStudyAt(sizes []int, queries int, scale Scale, seed int64) *VivaldiStudyResult {
	tops := engine.Map(engine.Config{Seed: seed, Label: "v1-topo"}, sizes,
		func(_ *engine.Trial, target int) *netmodel.Topology {
			return netmodel.Generate(scaleTopoConfig(target), seed+int64(target))
		})

	type cellSpec struct {
		cond    wireCondition
		nominal int
		top     *netmodel.Topology
	}
	var specs []cellSpec
	for i, target := range sizes {
		for _, c := range wireConditions() {
			specs = append(specs, cellSpec{c, target, tops[i]})
		}
	}
	out := &VivaldiStudyResult{Seed: seed, Queries: queries}
	out.Cells = engine.Map(engine.Config{Seed: seed, Label: "v1"}, specs,
		func(_ *engine.Trial, s cellSpec) VivaldiCell {
			// Each cell owns its matrix and therefore its RTT cache; the
			// topology is shared read-only.
			m := (&latency.FullTopologyMatrix{Top: s.top}).EnableRTTCache(0)
			start := time.Now()
			var cell VivaldiCell
			if s.cond.static {
				cell = vivaldiStaticCell(m, queries, seed)
			} else {
				cell = vivaldiWireCell(m, s.cond, queries, seed)
			}
			cell.Cond = s.cond.name
			cell.Nominal = s.nominal
			cell.Hosts = m.N()
			cell.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
			if cell.WallMs > 0 && cell.Queries > 0 {
				cell.QPS = float64(cell.Queries) / (cell.WallMs / 1000)
			}
			return cell
		})

	// Mitigation companion: the coordinate search through the exact c2
	// methodology (same peers, same query stream, same scoring), so the
	// vivaldi rows read side by side with the ucl/ipprefix rows of c2.
	env := SharedEnv(scale, seed)
	nPeers, mitQueries := mitigationParams(scale)
	peers := MitigationPeers(env, nPeers)
	out.MitPeers, out.MitQueries, out.MitThresholdMs = len(peers), mitQueries, mitigationNearMs
	out.MitRows = engine.Map(engine.Config{Seed: seed, Label: "v1-mit"}, wireConditions(),
		func(_ *engine.Trial, c wireCondition) MitigationRow {
			if c.static {
				// The static baseline names itself inside the harness.
				return must(RunStaticMitigation(env, "vivaldi", peers, mitQueries, seed))
			}
			row := must(RunWireMitigation(env, peers, MitigationOpts{
				Scheme: "vivaldi", Loss: c.loss, Churn: c.churn,
				Queries: mitQueries, Seed: seed,
			}))
			row.Name = "vivaldi " + c.name
			return row
		})
	return out
}

// embeddingMedianErr scores an embedding against the matrix: median
// |predicted-true|/true over randomly sampled member pairs whose
// coordinates exist.
func embeddingMedianErr(src *rng.Source, members []int, coordOf func(int) *vivaldi.Coord, m latency.Matrix, samples int) float64 {
	var errs []float64
	for i := 0; i < samples; i++ {
		a := members[src.Intn(len(members))]
		b := members[src.Intn(len(members))]
		if a == b {
			continue
		}
		ca, cb := coordOf(a), coordOf(b)
		actual := m.LatencyMs(a, b)
		if ca == nil || cb == nil || actual <= 0 {
			continue
		}
		errs = append(errs, math.Abs(ca.DistanceMs(cb)-actual)/actual)
	}
	if len(errs) == 0 {
		return math.NaN()
	}
	return stats.Median(errs)
}

// vivaldiEmbeddingSamples is the pair-sample budget of the embedding-error
// measurement.
const vivaldiEmbeddingSamples = 600

// vivaldiStaticCell runs the matrix-fed oracle: the registry's Build over
// the members (maintenance probes), then the static coordinate Finder per
// query.
func vivaldiStaticCell(m latency.Matrix, queries int, seed int64) VivaldiCell {
	members, targets := scaleSplit(m.N(), seed+1)
	f := must(StaticFinder("vivaldi", overlay.NewNetwork(m), members, seed+1, nil)).(*vivaldi.Finder)
	sc := must(RunStaticTargets(f, m, nil, members, targets, queries, seed+3))
	return VivaldiCell{
		Members:       len(members),
		Queries:       queries,
		PExact:        sc.PExact,
		Found:         sc.Found,
		MedianStretch: sc.MedianStretch,
		MeanProbes:    sc.MeanProbes,
		MedianErr: embeddingMedianErr(rng.New(seed+4), members,
			func(id int) *vivaldi.Coord { return f.Sys.CoordOf(id) }, m, vivaldiEmbeddingSamples),
	}
}

// vivaldiWireCell runs the gossip deployment: members join the coordinate
// overlay, gossip through the warm-up, then sequential coordinate-guided
// searches from held-out targets under the asked-for loss and churn, each
// scored against the true nearest member live at issue. Probes are read off
// the runtime's counter, not the answers. The embedding is scored at end of
// run over the members still live.
func vivaldiWireCell(m latency.Matrix, cond wireCondition, queries int, seed int64) VivaldiCell {
	members, targets := scaleSplit(m.N(), seed+1)
	liveMembers := func(w *vivaldi.Wire) []int {
		live := w.LiveMembers()
		out := make([]int, len(live))
		for i, id := range live {
			out[i] = int(id)
		}
		return out
	}
	var w *vivaldi.Wire
	sc := targetScorer{m: m}
	run := runWireCell(newSchemeCtx(m, members, seed, vivaldiStudyHorizon), wireCell{
		loss: cond.loss, heldOut: targets,
		churn: cond.churn, churnLead: 30 * time.Second,
		ops: queries,
	}, func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
		var d wireDeployment
		w, d = vivaldiDeployment(c, rt)
		return d
	}, func(run *wireRun, o *wireOp) {
		tgt := int(o.client)
		oracle := overlay.TrueNearest(m, tgt, liveMembers(w))
		run.find(o, func(r p2p.FindResult) { sc.result(tgt, oracle, r) })
	})

	score := sc.score(run.issued)
	n := float64(max(run.issued, 1))
	end := run.rt.TotalMetrics()
	cell := VivaldiCell{
		Members:       len(members),
		Queries:       run.issued,
		PExact:        score.PExact,
		Found:         score.Found,
		MedianStretch: score.MedianStretch,
		MeanProbes:    float64(end.QueryProbes-run.atStart.QueryProbes) / n,
		MeanMsgs:      float64(end.MsgsSent-run.atStart.MsgsSent) / n,
		// Everything sent before the first query is maintenance: the
		// warm-up gossip bill.
		GossipMsgsPerNode: float64(run.atStart.MsgsSent) / float64(len(members)),
		Timeouts:          end.Timeouts,
		Leaves:            run.leaves,
		Joins:             run.joins,
		Events:            run.events,
		MedianErr:         math.NaN(),
	}
	if live := liveMembers(w); len(live) > 1 {
		cell.MedianErr = embeddingMedianErr(rng.New(seed+4), live,
			func(id int) *vivaldi.Coord { return w.CoordOf(p2p.NodeID(id)) }, m, vivaldiEmbeddingSamples)
	}
	return cell
}

// Render prints the deterministic figure (wall-clock lives in
// RenderTiming, as with s1).
func (r *VivaldiStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Vivaldi study v1: wire-level coordinates (gossip over internal/p2p) vs the static oracle (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "grid: %d searches/cell; mederr = median |pred-true|/true over live pairs; stretch = found/oracle RTT (median)\n\n", r.Queries)
	fmt.Fprintf(&b, "%-26s %7s %7s %8s %7s %9s %8s %6s %9s %8s %9s %9s\n",
		"condition", "N(req)", "hosts", "members", "mederr", "P(exact)", "stretch", "found", "probes/q", "msgs/q", "gossip/n", "timeouts")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-26s %7d %7d %8d %7.3f %9.3f %8.2f %6.2f %9.1f %8.1f %9.1f %9d",
			c.Cond, c.Nominal, c.Hosts, c.Members, c.MedianErr, c.PExact, c.MedianStretch, c.Found,
			c.MeanProbes, c.MeanMsgs, c.GossipMsgsPerNode, c.Timeouts)
		endChurnRow(&b, c.Leaves, c.Joins)
	}
	fmt.Fprintf(&b, "\nmitigation companion: the coordinate search through the c2 methodology, beside ucl/ipprefix\n")
	renderMitigationTable(&b, r.MitPeers, r.MitQueries, r.MitThresholdMs, r.MitRows)
	b.WriteString("\nreading: the matrix-fed oracle sets the floor; the wire pays a continuous gossip\n" +
		"bill for the same embedding, loss slows convergence and turns verification pings\n" +
		"into dead probes, and churn resets coordinates whose rebuild lags the membership —\n" +
		"the coordinate route to a nearest peer degrades the same way the hint schemes do\n")
	return b.String()
}

// RenderTiming prints the wall-clock view of the grid (non-deterministic;
// cmd/figures prints it to the terminal but never writes it into the
// figure file).
func (r *VivaldiStudyResult) RenderTiming() string {
	var b strings.Builder
	b.WriteString("v1 wall-clock (non-deterministic; excluded from the figure):\n")
	fmt.Fprintf(&b, "%-26s %7s %12s %12s\n", "condition", "N(req)", "wall", "searches/sec")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-26s %7d %12s %12.1f\n",
			c.Cond, c.Nominal, time.Duration(c.WallMs*float64(time.Millisecond)).Round(time.Millisecond), c.QPS)
	}
	return b.String()
}
