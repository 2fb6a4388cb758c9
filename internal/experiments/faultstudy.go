package experiments

import (
	"fmt"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/stats"
)

// This file is the robustness study (figure r1): the nearest-peer schemes
// under the deterministic fault plane of internal/faults, with and without
// the retry-with-backoff policy layer. Every cell runs one scheme
// (Meridian walk, Chord lookup, Vivaldi coordinate search) under one fault
// condition — no faults, a loss burst, a delay spike, a 20% bidirectional
// partition, or a crash-and-restart of a tenth of the overlay — and the
// query stream is paced on a fixed virtual-time cadence so the queries
// sample the timeline before, during and after the fault window. The
// figure reports the success rate, the latency the fault adds at the tail
// (cell p99 minus the same scheme-and-policy no-fault p99), the stretch of
// the returned peer against the matrix oracle, and the fault plane's own
// accounting (drops, delays, retries, timeouts). Every fault decision is a
// stateless hash of (plan seed, rule, src, dst, window), and every cell is
// one serial-kernel engine trial, so the figure is byte-identical at any
// -workers and any -shards.

// faultStudyHorizon caps a cell's virtual time as a watchdog and bounds
// the protocols' own maintenance schedules.
const faultStudyHorizon = 30 * time.Minute

// faultQueryEvery is the query cadence: one lookup per tick, timed from
// the scheme's query start, so the fault window (anchored a quarter of the
// way into the stream and lasting half of it) is sampled on both edges.
const faultQueryEvery = 10 * time.Second

// faultRetryPolicy is the "retry on" column: three attempts with
// exponentially backed-off, jittered spacing. The backoff is wider than
// the plan's decision window, so a retried attempt lands in a fresh
// window and gets a fresh loss draw — the recovery the figure measures.
func faultRetryPolicy() p2p.Policy {
	return p2p.Policy{Attempts: 3, BaseBackoff: 300 * time.Millisecond, JitterFrac: 0.2}
}

// FaultCell is one (scheme, condition, retry) cell of the r1 figure.
type FaultCell struct {
	// Scheme is "meridian", "chord" or "vivaldi"; Cond names the fault
	// condition; Retry reports whether the retry policy layer was armed.
	Scheme, Cond string
	Retry        bool
	// Peers is the matrix population; Members the overlay membership;
	// Lookups the queries issued.
	Peers, Members, Lookups int
	// Done is the fraction of lookups that completed with a positive
	// answer.
	Done float64
	// P50/P99 are lookup-latency quantiles in virtual milliseconds over
	// every reported lookup, failures included (a failure's latency is the
	// timeout budget it burned — exactly the tail the fault inflates).
	P50, P99 float64
	// AddP99 is P99 minus the same scheme-and-policy no-fault P99: the
	// latency the fault condition adds at the tail.
	AddP99 float64
	// Stretch is the median ratio of the returned peer's true matrix RTT
	// to the oracle-nearest member's, over successful lookups (the v1
	// convention). Negative means not applicable (Chord resolves keys, not
	// proximity) or no successes.
	Stretch float64
	// Retries/Dropped/Delayed/Duplicated/Timeouts are the run's transport
	// totals: extra attempts charged by the policy layer, messages the
	// fault plane ate, delayed or duplicated, and RPC timeouts.
	Retries, Dropped, Delayed, Duplicated, Timeouts int64
	// WallMs is the only non-deterministic field, reported by RenderTiming
	// and excluded from Render.
	WallMs float64
}

// FaultStudyResult is the figure r1 output.
type FaultStudyResult struct {
	Seed           int64
	Peers, Targets int
	Lookups        int
	Cells          []FaultCell
}

// faultStudyParams returns (peers, targets, lookups) per scale.
func faultStudyParams(s Scale) (peers, targets, lookups int) {
	if s == Full {
		return 1000, 60, 100
	}
	return 100, 12, 30
}

// faultCondition is one column of the fault sweep: a name and a plan
// builder anchored to the cell's query phase (start) and stream length
// (span). A nil plan is the no-fault baseline.
type faultCondition struct {
	name string
	plan func(start, span time.Duration, peers int, members []int) *faults.Plan
}

// faultStudyConditions is the condition sweep. Every fault window opens a
// quarter of the way into the query stream and closes three quarters in,
// so the stream measures healthy, afflicted and healed traffic in one run.
func faultStudyConditions() []faultCondition {
	window := func(start, span time.Duration) (at, dur time.Duration) {
		return start + span/4, span / 2
	}
	return []faultCondition{
		{"no faults", func(time.Duration, time.Duration, int, []int) *faults.Plan { return nil }},
		{"burst loss 30%", func(start, span time.Duration, _ int, _ []int) *faults.Plan {
			at, dur := window(start, span)
			return &faults.Plan{Seed: 11, Rules: []faults.Rule{
				{Kind: faults.LossBurst, At: at, For: dur, Prob: 0.3,
					Src: faults.Everyone(), Dst: faults.Everyone()},
			}}
		}},
		{"delay spike 250ms", func(start, span time.Duration, _ int, _ []int) *faults.Plan {
			at, dur := window(start, span)
			return &faults.Plan{Seed: 11, Rules: []faults.Rule{
				{Kind: faults.DelaySpike, At: at, For: dur, ExtraMs: 250,
					Src: faults.Everyone(), Dst: faults.Everyone()},
			}}
		}},
		{"partition 20%", func(start, span time.Duration, peers int, _ []int) *faults.Plan {
			at, dur := window(start, span)
			return &faults.Plan{Seed: 11, Rules: []faults.Rule{
				{Kind: faults.Partition, At: at, For: dur,
					Src: faults.Range(0, peers/5-1), Dst: faults.Range(peers/5, peers-1)},
			}}
		}},
		{"crash+restart 10%", func(start, span time.Duration, _ int, members []int) *faults.Plan {
			at, dur := window(start, span)
			down := members[:len(members)/10]
			return &faults.Plan{Seed: 11, Rules: []faults.Rule{
				{Kind: faults.Crash, At: at, For: dur, Nodes: faults.List(down...)},
			}}
		}},
	}
}

// faultStudySchemes is the scheme sweep.
var faultStudySchemes = []string{"meridian", "chord", "vivaldi"}

// lookupIssuers picks who issues a lookup-study (r1/o1) cell's ops: the
// held-out targets — the walk and the coordinate search place an outsider —
// except for chord, whose keys resolve from inside the ring, so live
// members issue.
func lookupIssuers(scheme string, targets []int) []int {
	if scheme == "chord" {
		return nil
	}
	return targets
}

// FaultStudy runs the study at the scale's default sizing.
func FaultStudy(scale Scale, seed int64) *FaultStudyResult {
	p, t, l := faultStudyParams(scale)
	return FaultStudyAt(p, t, l, seed)
}

// FaultStudyAt runs the study at an explicit sizing. The clustered matrix,
// the member/target split and the per-target oracle are built once and
// shared read-only; the (scheme, condition, retry) grid fans out across
// the engine pool, each cell on its own serial kernel.
func FaultStudyAt(peers, nTargets, lookups int, seed int64) *FaultStudyResult {
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	m, _ := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), nTargets, seed+1)

	// The stretch oracle: each target's true RTT to the nearest member of
	// the initial overlay. Crash and partition windows do not move it — the
	// oracle is the static ground truth the paper's Section 3 measures
	// against, not a live membership view.
	oracleMs := make(map[int]float64, len(targets))
	for _, tgt := range targets {
		oracleMs[tgt] = overlay.TrueNearest(m, tgt, members).LatencyMs
	}

	out := &FaultStudyResult{Seed: seed, Peers: m.N(), Targets: len(targets), Lookups: lookups}
	type cellSpec struct {
		scheme string
		cond   faultCondition
		retry  bool
	}
	var specs []cellSpec
	for _, s := range faultStudySchemes {
		for _, c := range faultStudyConditions() {
			for _, retry := range []bool{false, true} {
				specs = append(specs, cellSpec{s, c, retry})
			}
		}
	}
	out.Cells = engine.Map(engine.Config{Seed: seed, Label: "r1"}, specs,
		func(_ *engine.Trial, s cellSpec) FaultCell {
			start := time.Now()
			cell := faultCell(newSchemeCtx(m, members, seed, faultStudyHorizon), must(wireLeg(s.scheme)),
				s.cond, s.retry, lookupIssuers(s.scheme, targets), oracleMs, lookups)
			cell.Scheme = s.scheme
			cell.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
			return cell
		})

	// AddP99 is a pure function of the finished cells: each row against its
	// own scheme-and-policy no-fault baseline.
	base := make(map[string]float64)
	for _, c := range out.Cells {
		if c.Cond == "no faults" {
			base[fmt.Sprintf("%s/%v", c.Scheme, c.Retry)] = c.P99
		}
	}
	for i := range out.Cells {
		c := &out.Cells[i]
		c.AddP99 = c.P99 - base[fmt.Sprintf("%s/%v", c.Scheme, c.Retry)]
	}
	return out
}

// faultCell stands deploy's scheme up over the context's matrix and members,
// installs the condition's fault plan anchored at the deployment's mark,
// runs the cadenced query stream from targets (none: from live members) and
// reads the figure's numbers off the per-query records and the transport
// counters. oracleMs maps an issuer to its true nearest-member RTT; an
// issuer without an entry (a member) has no stretch to score.
func faultCell(c *schemeCtx, deploy wireDeploy, cond faultCondition, retry bool,
	targets []int, oracleMs map[int]float64, lookups int) FaultCell {
	c.keyLabel = "r1"
	var cfg p2p.Config
	if retry {
		cfg.Retry = faultRetryPolicy()
	}

	// Each op reports exactly once: through the scheme callback, or not at
	// all (an issuing node crashed by the plan takes its callbacks down with
	// it) — the op then keeps the record its issue wrote, a failure that
	// burned the whole deadline.
	type opRec struct {
		ok           bool
		ms           float64
		origin, peer int
	}
	recs := make([]opRec, lookups)
	span := time.Duration(lookups) * faultQueryEvery
	run := runWireCell(c, wireCell{
		cfg: cfg, heldOut: targets,
		faults: func(mark time.Duration) *faults.Plan {
			return cond.plan(mark, span, c.m.N(), c.members)
		},
		ops: lookups, cadence: faultQueryEvery,
	}, deploy, func(run *wireRun, o *wireOp) {
		issueAt := run.kernel.Now()
		rec := &recs[o.n]
		*rec = opRec{ms: float64(wireOpDeadline) / float64(time.Millisecond), origin: int(o.client), peer: -1}
		run.find(o, func(r p2p.FindResult) {
			rec.ok, rec.peer = answered(r), int(r.Peer)
			rec.ms = float64(run.kernel.Now()-issueAt) / float64(time.Millisecond)
		})
	})

	cell := FaultCell{
		Cond: cond.name, Retry: retry,
		Peers: c.m.N(), Members: len(c.members), Lookups: run.issued,
		Stretch: -1,
	}
	done := 0
	var lat, stretches []float64
	for _, r := range recs[:run.issued] {
		lat = append(lat, r.ms)
		if !r.ok {
			continue
		}
		done++
		if r.peer == r.origin {
			continue // a key that resolved to its own issuer: nothing to judge
		}
		if oracle := oracleMs[r.origin]; oracle > 0 {
			stretches = append(stretches, c.m.LatencyMs(r.origin, r.peer)/oracle)
		}
	}
	if len(stretches) > 0 {
		cell.Stretch = stats.Median(stretches)
	}
	cell.Done = float64(done) / float64(max(run.issued, 1))
	cell.P50 = stats.Quantile(lat, 0.50)
	cell.P99 = stats.Quantile(lat, 0.99)

	tm := run.rt.TotalMetrics()
	cell.Retries = tm.Retries
	cell.Dropped = tm.MsgsLost
	cell.Delayed = tm.FaultDelayed
	cell.Duplicated = tm.FaultDuplicated
	cell.Timeouts = tm.Timeouts
	return cell
}

// Render prints the deterministic figure (wall-clock lives in
// RenderTiming, as with s1/v1/o1).
func (r *FaultStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness study r1: nearest-peer search under the deterministic fault plane (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%d peers, %d lookups/cell on a %s cadence; fault window opens 1/4 into the stream, closes 3/4 in;\n",
		r.Peers, r.Lookups, faultQueryEvery)
	b.WriteString("retry policy: 3 attempts, 300ms base backoff, x2, 20% jitter; +p99 is against the same row's no-fault\n" +
		"baseline; stretch = found/oracle RTT (median, v1 convention) — the clustered matrix's co-located members\n" +
		"make the oracle sub-millisecond, which is exactly the paper's hardness argument\n\n")
	fmt.Fprintf(&b, "%-9s %-19s %-5s %5s %9s %9s %9s %8s %8s %8s %8s %8s\n",
		"scheme", "condition", "retry", "done", "p50ms", "p99ms", "+p99ms",
		"stretch", "retries", "drops", "delays", "timeouts")
	for _, c := range r.Cells {
		retry := "off"
		if c.Retry {
			retry = "on"
		}
		stretch := "-"
		if c.Stretch >= 0 {
			stretch = fmt.Sprintf("%.2f", c.Stretch)
		}
		fmt.Fprintf(&b, "%-9s %-19s %-5s %5.2f %9.1f %9.1f %9.1f %8s %8d %8d %8d %8d\n",
			c.Scheme, c.Cond, retry, c.Done, c.P50, c.P99, c.AddP99,
			stretch, c.Retries, c.Dropped, c.Delayed, c.Timeouts)
	}
	b.WriteString("\nreading: the fault plane prices each failure mode differently, and retry is not a free\n" +
		"lunch — it recovers success where a failed lookup is cheap to re-ask (chord and the\n" +
		"vivaldi walk climb back toward their no-fault done rates, paying +p99 in backoff); the\n" +
		"meridian walk reads rings only from nodes whose ping just got through, so retry has\n" +
		"nothing to recover, and it loses what its single-shot pings lose — a lost start ping\n" +
		"ends the walk; a delay spike that clears the RPC timeout behaves like loss no matter\n" +
		"how often it is retried, and a partition only heals by healing\n")
	return b.String()
}

// RenderTiming prints the wall-clock view (non-deterministic; printed to
// the terminal but never written into the figure file).
func (r *FaultStudyResult) RenderTiming() string {
	var b strings.Builder
	b.WriteString("r1 wall-clock (non-deterministic; excluded from the figure):\n")
	fmt.Fprintf(&b, "%-9s %-19s %-5s %12s\n", "scheme", "condition", "retry", "wall")
	for _, c := range r.Cells {
		retry := "off"
		if c.Retry {
			retry = "on"
		}
		fmt.Fprintf(&b, "%-9s %-19s %-5s %12s\n",
			c.Scheme, c.Cond, retry, time.Duration(c.WallMs*float64(time.Millisecond)).Round(time.Millisecond))
	}
	return b.String()
}
