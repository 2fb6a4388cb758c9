package experiments

import (
	"fmt"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
)

// This file re-measures the Section 4 cost claim with the network in the
// way: the same clustered matrices and the same Meridian walk, but run as
// a message protocol on internal/p2p — with packet loss, per-RPC timeouts
// and churn — against the static function-call simulation as the baseline.
// The paper's point is that the clustering condition already forces
// brute-force probing; this study shows what the wire adds on top.

// RuntimeOpts configures one message-level Meridian run.
type RuntimeOpts struct {
	// Loss is the one-way packet loss probability.
	Loss float64
	// Beta overrides the Meridian β acceptance threshold when > 0.
	Beta float64
	// RingSize overrides the nodes-per-ring bound when > 0.
	RingSize int
	// Churn enables the membership process (experimentChurnConfig).
	Churn bool
	// Queries is the number of sequential closest-peer queries.
	Queries int
	// Seed drives the whole run.
	Seed int64
	// Horizon caps virtual time as a watchdog (default 2 h).
	Horizon time.Duration
	// Recorder, when non-nil, is attached to the runtime as the lookup
	// flight recorder (npsim -trace). It is passive: results are
	// byte-identical with or without it.
	Recorder *obs.Recorder
	// Faults, when non-nil, installs the deterministic fault plan on the
	// runtime (npsim -faults). A nil plan injects nothing.
	Faults *faults.Plan
}

// ChurnRow is one condition's scores, static or message-level.
type ChurnRow struct {
	Name string
	// TargetScore is the held-out-target score: PExact against the true
	// closest *live* member, Found the fraction of queries that completed
	// before deadline with a peer (always 1 for the static baseline, which
	// cannot fail), MeanProbes query-time RTT measurements per query.
	TargetScore
	// MeanMsgs is wire messages per query, maintenance included (the
	// static baseline has no wire; its entry is 0).
	MeanMsgs float64
	// Timeouts is the total RPC timeouts across the run.
	Timeouts int64
	// Leaves and Joins count churn events during the run.
	Leaves, Joins int
}

// experimentChurnConfig is the churn every churned wire cell runs:
// sessions short enough that a meaningful slice of the overlay turns over
// while the query batch runs.
func experimentChurnConfig() p2p.ChurnConfig {
	return p2p.ChurnConfig{
		MeanSession:  90 * time.Second,
		SessionSigma: 1,
		MeanOffline:  20 * time.Second,
		GracefulProb: 0.5,
	}
}

// RunMessageMeridian stands up the message-level overlay over the members,
// drives the churn process if asked, runs the queries sequentially in
// virtual time from the held-out targets, and scores each answer against
// the true nearest *live* member at query issue. gt may be nil (no cluster
// scoring).
func RunMessageMeridian(m latency.Matrix, gt *latency.GroundTruth, members, targets []int, opts RuntimeOpts) ChurnRow {
	merCfg := p2p.DefaultMeridianConfig()
	if opts.Beta > 0 {
		merCfg.Beta = opts.Beta
	}
	if opts.RingSize > 0 {
		merCfg.RingSize = opts.RingSize
	}
	var mer *p2p.Meridian
	sc := targetScorer{gt: gt}
	run := runWireCell(newSchemeCtx(m, members, opts.Seed, opts.Horizon), wireCell{
		cfg: p2p.Config{LossProb: opts.Loss}, heldOut: targets,
		recorder: opts.Recorder, faults: fixedFaults(opts.Faults),
		churn: opts.Churn,
		ops:   opts.Queries,
	}, func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
		var d wireDeployment
		mer, d = meridianDeployment(c, rt, merCfg)
		return d
	}, func(run *wireRun, o *wireOp) {
		tgt := int(o.client)
		oracle := overlay.TrueNearest(m, tgt, mer.LiveMembers())
		run.find(o, func(res p2p.FindResult) { sc.result(tgt, oracle, res) })
	})

	row := ChurnRow{TargetScore: sc.score(run.issued)}
	row.MeanMsgs = float64(run.rt.Metrics.MsgsSent-run.atStart.MsgsSent) / float64(max(run.issued, 1))
	row.Timeouts = run.rt.Metrics.Timeouts
	row.Leaves, row.Joins = run.leaves, run.joins
	return row
}

// runStaticMeridian is the function-call baseline on the same matrix,
// membership and query stream.
func runStaticMeridian(m latency.Matrix, gt *latency.GroundTruth, members, targets []int, queries int, seed int64) ChurnRow {
	cfg := meridian.DefaultConfig()
	// The message-level port fills rings by reservoir sampling (there is
	// no stable candidate pool under churn), so the baseline uses the
	// matching SelectRandom policy: the comparison isolates the wire,
	// not the ring-selection heuristic.
	cfg.Selection = meridian.SelectRandom
	o := meridian.New(overlay.NewNetwork(m), members, cfg, seed+1)
	return ChurnRow{TargetScore: must(RunStaticTargets(o, m, gt, members, targets, queries, seed+3))}
}

// ChurnStudyResult compares static and message-level Meridian across wire
// conditions.
type ChurnStudyResult struct {
	Peers, Queries int
	ENsPerCluster  int
	Delta          float64
	Rows           []ChurnRow
}

// churnStudyParams returns (peers, targets, queries) per scale. The
// message-level overlay multiplies every probe into several wire events,
// so the populations sit below the Figure 8/9 sweeps.
func churnStudyParams(s Scale) (peers, targets, queries int) {
	if s == Full {
		return 2500, 100, 1000
	}
	return 600, 40, 120
}

// ChurnStudy runs the comparison on the paper's default clustered matrix.
// The five conditions share the matrix, ground truth and member split —
// all read-only — and otherwise build their own kernel, runtime and
// overlay, so they fan out as engine trials and merge in condition order.
func ChurnStudy(scale Scale, seed int64) *ChurnStudyResult {
	peers, nTargets, queries := churnStudyParams(scale)
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	m, gt := latency.BuildClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), nTargets, seed+1)

	out := &ChurnStudyResult{
		Peers:         m.N(),
		Queries:       queries,
		ENsPerCluster: cfg.ENsPerCluster,
		Delta:         cfg.Delta,
	}
	out.Rows = engine.Map(engine.Config{Seed: seed, Label: "churnstudy"}, wireConditions(),
		func(_ *engine.Trial, c wireCondition) ChurnRow {
			var row ChurnRow
			if c.static {
				row = runStaticMeridian(m, gt, members, targets, queries, seed)
			} else {
				row = RunMessageMeridian(m, gt, members, targets, RuntimeOpts{
					Loss: c.loss, Churn: c.churn, Queries: queries, Seed: seed,
				})
			}
			row.Name = c.name
			return row
		})
	return out
}

// wireCondition is one study row's wire setting.
type wireCondition struct {
	name   string
	static bool
	loss   float64
	churn  bool
}

// wireConditions is the condition table c1, c2, v1 and g1 share: the static
// baseline, then the wire at 0%/5% loss with and without churn.
func wireConditions() []wireCondition {
	return []wireCondition{
		{name: "static (function calls)", static: true},
		{name: "messages, loss=0%"},
		{name: "messages, loss=5%", loss: 0.05},
		{name: "messages, churn", churn: true},
		{name: "messages, loss=5% + churn", loss: 0.05, churn: true},
	}
}

// endChurnRow ends a table row, noting the run's churn events when it had
// any.
func endChurnRow(b *strings.Builder, leaves, joins int) {
	if leaves > 0 || joins > 0 {
		fmt.Fprintf(b, "  (%d leaves, %d joins)", leaves, joins)
	}
	b.WriteByte('\n')
}

// Render prints the comparison table.
func (r *ChurnStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn study: Meridian as a message protocol (internal/p2p) vs static simulation\n")
	fmt.Fprintf(&b, "%d peers, %d queries, clustered matrix (%d ENs/cluster, δ=%.1f)\n\n",
		r.Peers, r.Queries, r.ENsPerCluster, r.Delta)
	fmt.Fprintf(&b, "%-26s %8s %9s %6s %9s %8s %6s %8s %9s\n",
		"condition", "P(exact)", "P(clust)", "done", "probes/q", "msgs/q", "hops/q", "ms/q", "timeouts")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %8.3f %9.3f %6.2f %9.1f %8.1f %6.1f %8.0f %9d",
			row.Name, row.PExact, row.PCluster, row.Found,
			row.MeanProbes, row.MeanMsgs, row.MeanHops, row.MeanMs, row.Timeouts)
		endChurnRow(&b, row.Leaves, row.Joins)
	}
	b.WriteString("\nreading: under the clustering condition the walk already probes brute-force;\n" +
		"loss converts probes into timeouts and repeat work, and churn adds re-join\n" +
		"maintenance — the wire raises the price of the same degenerate search\n")
	return b.String()
}
