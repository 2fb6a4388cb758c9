package experiments

import (
	"fmt"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/stats"
)

// This file is the observability study (figure o1): the tail of the
// nearest-peer search, read off the runs themselves instead of recomputed
// by each experiment. Every cell runs one scheme (Meridian walk, Chord
// lookup, Vivaldi coordinate search) under one wire condition with the
// internal/obs layer attached — the metrics registry counts every send
// and delivery per node and per message type, the lookup histogram
// collects per-query latencies, and the health sampler reads inflight and
// event-queue depth on a fixed virtual-time cadence. The figure reports
// lookup-latency quantiles (p50/p99/p999), the per-node message-load
// distribution, the message mix and the peak health readings. The
// registry, histogram and sampler are passive with respect to the
// experiment's randomness, so every cell is one engine trial and the
// figure is byte-identical at any -workers; the optional flight recorder
// (trace mode) is likewise passive and must not change a single byte.

// obsStudyHorizon caps a cell's virtual time as a watchdog.
const obsStudyHorizon = 2 * time.Hour

// obsSampleEvery is the health sampler's virtual-time cadence; sampling
// starts with the query phase (the bring-up drain would otherwise tick the
// clock to the horizon before the first query).
const obsSampleEvery = 2 * time.Second

// obsSampleCapacity bounds the sampler ring; older samples are overwritten.
const obsSampleCapacity = 512

// obsTraceCapacity bounds the per-cell flight-recorder ring in trace mode.
const obsTraceCapacity = 4096

// ObsCell is one (scheme, condition) cell of the o1 figure.
type ObsCell struct {
	// Scheme is "meridian", "chord" or "vivaldi"; Cond names the wire
	// condition.
	Scheme, Cond string
	// Peers is the matrix population; Members the overlay membership;
	// Lookups the searches actually issued.
	Peers, Members, Lookups int
	// Done is the fraction of lookups that completed with a positive
	// answer (resolved owner / completed walk / verified peer).
	Done float64
	// P50/P99/P999 are lookup-latency quantiles in virtual milliseconds,
	// read from the registry's log-spaced histogram. A lookup whose
	// issuing node churns away mid-operation never reports and is not
	// observed; Done carries that loss.
	P50, P99, P999 float64
	// LoadP50/LoadP99/LoadMax summarise messages sent per overlay member
	// across the whole run, maintenance included.
	LoadP50, LoadP99, LoadMax float64
	// MsgMix is the top message types by send count ("type:n type:n ...").
	MsgMix string
	// Samples is how often the health sampler ticked; MaxInflight and
	// MaxQueue are the peak parked-envelope and event-queue depths it
	// observed (over the retained ring); QueueHW is the kernel's own
	// high-water mark, bring-up included.
	Samples               int
	MaxInflight, MaxQueue int
	QueueHW               int
	// Timeouts totals RPC timeouts; Leaves/Joins count churn events.
	Timeouts      int64
	Leaves, Joins int
	// Trace is the cell's flight recorder in trace mode (nil otherwise).
	// Its contents never appear in Render.
	Trace *obs.Recorder
	// WallMs is the only non-deterministic field, reported by RenderTiming
	// and excluded from Render.
	WallMs float64
}

// ObsStudyResult is the figure o1 output.
type ObsStudyResult struct {
	Seed           int64
	Peers, Targets int
	Lookups        int
	ENsPerCluster  int
	Delta          float64
	Cells          []ObsCell
}

// obsStudyParams returns (peers, targets, lookups) per scale.
func obsStudyParams(s Scale) (peers, targets, lookups int) {
	if s == Full {
		return 2000, 100, 200
	}
	return 240, 24, 16
}

// obsStudyConditions is the condition sweep: the c1/v1 wire table minus
// the static baseline (there is no wire to observe without messages).
func obsStudyConditions() []wireCondition {
	return []wireCondition{
		{name: "messages, loss=0%"},
		{name: "messages, loss=5%", loss: 0.05},
		{name: "messages, churn", churn: true},
		{name: "messages, loss=5% + churn", loss: 0.05, churn: true},
	}
}

// obsStudySchemes is the scheme sweep.
var obsStudySchemes = []string{"meridian", "chord", "vivaldi"}

// ObsStudy runs the study at the scale's default sizing, without tracing.
func ObsStudy(scale Scale, seed int64) *ObsStudyResult {
	p, t, l := obsStudyParams(scale)
	return ObsStudyAt(p, t, l, seed, false)
}

// ObsStudyAt runs the study at an explicit sizing. The clustered matrix
// and the member/target split are built once and shared read-only; the
// (scheme, condition) grid fans out across the engine pool. With trace
// set, every cell attaches a flight recorder and keeps it in the result —
// Render is byte-identical either way (the recorder is passive).
func ObsStudyAt(peers, nTargets, lookups int, seed int64, trace bool) *ObsStudyResult {
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	m, _ := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), nTargets, seed+1)

	out := &ObsStudyResult{
		Seed: seed, Peers: m.N(), Targets: len(targets), Lookups: lookups,
		ENsPerCluster: cfg.ENsPerCluster, Delta: cfg.Delta,
	}
	type cellSpec struct {
		scheme string
		cond   wireCondition
	}
	var specs []cellSpec
	for _, s := range obsStudySchemes {
		for _, c := range obsStudyConditions() {
			specs = append(specs, cellSpec{s, c})
		}
	}
	out.Cells = engine.Map(engine.Config{Seed: seed, Label: "o1"}, specs,
		func(_ *engine.Trial, s cellSpec) ObsCell {
			start := time.Now()
			cell := obsCell(newSchemeCtx(m, members, seed, obsStudyHorizon), must(wireLeg(s.scheme)),
				s.cond, lookupIssuers(s.scheme, targets), lookups, trace)
			cell.Scheme = s.scheme
			cell.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
			return cell
		})
	return out
}

// obsCell stands deploy's scheme up over the context's matrix and members under
// one wire condition, runs the sequential lookup stream from targets (none:
// from live members) with the obs layer attached, and reads the figure's
// numbers off the registry, the sampler and the kernel.
func obsCell(c *schemeCtx, deploy wireDeploy, cond wireCondition, targets []int, lookups int, trace bool) ObsCell {
	c.keyLabel = "o1"
	m, members := c.m, c.members
	reg := obs.NewRegistry(m.N())
	var rec *obs.Recorder
	if trace {
		rec = obs.NewRecorder(obsTraceCapacity)
	}
	done := 0
	var samp *obs.Sampler
	run := runWireCell(c, wireCell{
		loss: cond.loss, heldOut: targets,
		registry: reg, recorder: rec,
		// A minute of churn before measuring: the lookup stream is short,
		// and an untouched overlay would make the churn rows read like the
		// loss-only ones.
		churn: cond.churn, churnLead: time.Minute,
		ops: lookups,
		onStart: func(run *wireRun) {
			samp = run.rt.StartHealthSampler(obsSampleEvery, c.horizon, obsSampleCapacity)
		},
	}, deploy, func(run *wireRun, o *wireOp) {
		issueAt := run.kernel.Now()
		run.find(o, func(r p2p.FindResult) {
			reg.ObserveLookupMs(float64(run.kernel.Now()-issueAt) / float64(time.Millisecond))
			if answered(r) {
				done++
			}
		})
	})

	cell := ObsCell{
		Cond:  cond.name,
		Peers: m.N(), Members: len(members), Lookups: run.issued,
		Trace: rec,
	}
	cell.Done = float64(done) / float64(max(run.issued, 1))
	cell.P50 = reg.LookupQuantileMs(0.50)
	cell.P99 = reg.LookupQuantileMs(0.99)
	cell.P999 = reg.LookupQuantileMs(0.999)

	sent := reg.SentByNode()
	loads := make([]float64, 0, len(members))
	for _, id := range members {
		loads = append(loads, float64(sent[id]))
	}
	cell.LoadP50 = stats.Quantile(loads, 0.50)
	cell.LoadP99 = stats.Quantile(loads, 0.99)
	for _, l := range loads {
		if l > cell.LoadMax {
			cell.LoadMax = l
		}
	}
	var mix []string
	for _, tt := range reg.TopTypes(3) {
		mix = append(mix, fmt.Sprintf("%s:%d", tt.Type, tt.Count))
	}
	cell.MsgMix = strings.Join(mix, " ")

	if samp != nil {
		cell.Samples = int(samp.Count())
		for _, s := range samp.Samples() {
			if s.Inflight > cell.MaxInflight {
				cell.MaxInflight = s.Inflight
			}
			if s.Queue > cell.MaxQueue {
				cell.MaxQueue = s.Queue
			}
		}
	}
	cell.QueueHW = run.kernel.QueueHighWater()
	cell.Timeouts = run.rt.TotalMetrics().Timeouts
	cell.Leaves, cell.Joins = run.leaves, run.joins
	return cell
}

// Render prints the deterministic figure (wall-clock lives in
// RenderTiming, as with s1/v1).
func (r *ObsStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability study o1: lookup tail latency and per-node load, read off the runs (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%d peers, %d lookups/cell, clustered matrix (%d ENs/cluster, δ=%.1f); quantiles from the registry's log-spaced histogram\n\n",
		r.Peers, r.Lookups, r.ENsPerCluster, r.Delta)
	fmt.Fprintf(&b, "%-9s %-26s %5s %8s %8s %8s %7s %7s %7s %6s %6s %6s %8s  %s\n",
		"scheme", "condition", "done", "p50ms", "p99ms", "p999ms",
		"ld50", "ld99", "ldmax", "inflt", "queue", "ticks", "timeouts", "msg mix")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9s %-26s %5.2f %8.1f %8.1f %8.1f %7.0f %7.0f %7.0f %6d %6d %6d %8d  %s",
			c.Scheme, c.Cond, c.Done, c.P50, c.P99, c.P999,
			c.LoadP50, c.LoadP99, c.LoadMax,
			c.MaxInflight, c.MaxQueue, c.Samples, c.Timeouts, c.MsgMix)
		endChurnRow(&b, c.Leaves, c.Joins)
	}
	b.WriteString("\nreading: the median lookup hides what the registry's histogram shows — loss pushes the\n" +
		"p99/p999 out by whole timeout periods, churn adds rejoin maintenance to the chord and\n" +
		"vivaldi nodes' send bills, and the load tail (ld99/ldmax vs ld50) shows the brute-force\n" +
		"probing the paper predicts concentrating on cluster gateways rather than spreading evenly\n")
	return b.String()
}

// RenderTiming prints the wall-clock view (non-deterministic; printed to
// the terminal but never written into the figure file).
func (r *ObsStudyResult) RenderTiming() string {
	var b strings.Builder
	b.WriteString("o1 wall-clock (non-deterministic; excluded from the figure):\n")
	fmt.Fprintf(&b, "%-9s %-26s %12s\n", "scheme", "condition", "wall")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9s %-26s %12s\n",
			c.Scheme, c.Cond, time.Duration(c.WallMs*float64(time.Millisecond)).Round(time.Millisecond))
	}
	return b.String()
}
