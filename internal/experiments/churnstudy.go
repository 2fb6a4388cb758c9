package experiments

import (
	"fmt"
	"strings"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
)

// This file re-measures the Section 4 cost claim with the network in the
// way: the same clustered matrix, the same Meridian overlay and the same
// walk, but run as meridian.Wire over internal/p2p — ring reads and probes
// as RPCs, with packet loss, per-RPC timeouts and churn — against the
// static function-call walk as the baseline. Both legs search one overlay
// (churnStudyOverlay), so the lossless wire row equals the static row in
// answers, probes and hops; churn only takes members down and brings them
// back, with their rings as the overlay built them. The paper's point is
// that the clustering condition already forces brute-force probing; this
// study shows what the wire adds on top.

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
	// Backstopped counts the wire queries the per-operation deadline
	// ended, still running a virtual minute after issue (0 for the static
	// baseline). They score as failed.
	Backstopped int
	// Leaves and Joins count churn events during the run.
	Leaves, Joins int
}

// experimentChurnConfig is the churn every churned wire cell runs:
// heavy-tailed (log-normal) sessions, short enough on average that a
// meaningful slice of the overlay turns over while the query batch runs.
func experimentChurnConfig() p2p.ChurnConfig {
	return p2p.ChurnConfig{SessionSigma: 1}
}

// RunMessageMeridian deploys c1's Meridian overlay on the wire over the
// members, drives the churn process if asked, runs the queries sequentially
// in virtual time from the held-out targets, and scores each answer against
// the true nearest *live* member at query issue. gt may be nil (no cluster
// scoring).
func RunMessageMeridian(m latency.Matrix, gt *latency.GroundTruth, members, targets []int, opts RuntimeOpts) ChurnRow {
	sc := targetScorer{gt: gt}
	var live []int
	run := runWireCell(newSchemeCtx(m, members, opts.Seed, wireHorizon), wireCell{
		loss: opts.Loss, heldOut: targets,
		recorder: opts.Recorder, faults: fixedFaults(opts.Faults),
		churn: opts.Churn,
		ops:   opts.Queries,
	}, func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
		return meridianWire(rt, churnStudyOverlay(c.net, members, opts))
	}, func(run *wireRun, o *wireOp) {
		tgt := int(o.client)
		live = live[:0]
		for _, id := range members {
			if run.rt.Alive(p2p.NodeID(id)) {
				live = append(live, id)
			}
		}
		oracle := overlay.TrueNearest(m, tgt, live)
		run.find(o, func(res p2p.FindResult) { sc.result(tgt, oracle, res) })
	})

	row := ChurnRow{TargetScore: sc.score(run.issued)}
	total := run.rt.TotalMetrics()
	row.MeanMsgs = float64(total.MsgsSent-run.atStart.MsgsSent) / float64(max(run.issued, 1))
	row.Timeouts = total.Timeouts
	row.Backstopped = run.backstopped
	row.Leaves, row.Joins = run.leaves, run.joins
	return row
}

// churnStudyOverlay is the Meridian overlay both c1 legs search: the
// SelectRandom ring baseline (the comparison isolates the wire, not the
// ring-selection heuristic) seeded seed+1, with the β and ring-size
// overrides applied. The wire leg serves its rings over RPCs, so at 0%
// loss the two legs walk identical paths.
func churnStudyOverlay(net *overlay.Network, members []int, opts RuntimeOpts) *meridian.Overlay {
	cfg := meridian.DefaultConfig()
	cfg.Selection = meridian.SelectRandom
	if opts.Beta > 0 {
		cfg.Beta = opts.Beta
	}
	if opts.RingSize > 0 {
		cfg.RingSize = opts.RingSize
	}
	return meridian.New(net, members, cfg, opts.Seed+1)
}

// runStaticMeridian is the function-call baseline on the same matrix,
// membership, overlay and query stream.
func runStaticMeridian(m latency.Matrix, gt *latency.GroundTruth, members, targets []int, opts RuntimeOpts) ChurnRow {
	o := churnStudyOverlay(overlay.NewNetwork(m), members, opts)
	return ChurnRow{TargetScore: must(RunStaticTargets(o, m, gt, members, targets, opts.Queries, opts.Seed+3))}
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
	m, gt := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), nTargets, seed+1)

	out := &ChurnStudyResult{
		Peers:         m.N(),
		Queries:       queries,
		ENsPerCluster: cfg.ENsPerCluster,
		Delta:         cfg.Delta,
	}
	out.Rows = engine.Map(engine.Config{Seed: seed, Label: "churnstudy"}, wireConditions(),
		func(_ *engine.Trial, c wireCondition) ChurnRow {
			opts := RuntimeOpts{Loss: c.loss, Churn: c.churn, Queries: queries, Seed: seed}
			var row ChurnRow
			if c.static {
				row = runStaticMeridian(m, gt, members, targets, opts)
			} else {
				row = RunMessageMeridian(m, gt, members, targets, opts)
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
	b.WriteString("\nreading: lossless, the wire walk is the static walk — the same answers at the same\n" +
		"probe bill, now paid in messages and virtual time; loss and churn cut walks short (a\n" +
		"lost start ping or a dead start ends one empty-handed, a dead candidate is a timeout)\n" +
		"— the wire raises the price of the same degenerate search\n")
	return b.String()
}
