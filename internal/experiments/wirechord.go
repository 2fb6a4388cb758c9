package experiments

import (
	"fmt"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// This file exercises the message-level Chord DHT by itself (no hint
// scheme on top): stand a ring up over a latency matrix, run sequential
// Put+Get pairs, and price the routing — the npsim `-runtime -algo chord`
// view of the substrate the Section 5 mitigations stand on.

// WireChordOpts configures one Chord exercise run.
type WireChordOpts struct {
	// Nodes caps the ring size (min with the matrix population).
	Nodes int
	// Ops is the number of sequential Put+Get pairs.
	Ops int
	// Loss is the one-way packet loss probability.
	Loss float64
	// Churn enables the membership process (experimentChurnConfig).
	Churn bool
	// Seed drives the whole run.
	Seed int64
	// Horizon caps virtual time as a watchdog (default 2 h).
	Horizon time.Duration
	// Chord overrides the protocol configuration when non-zero (detected
	// by StabilizeEvery > 0). The scale study stretches the stabilize
	// period with ring size: maintenance cost per virtual second is
	// nodes/period, and a 100k ring on the 1 s default would spend the
	// whole run stabilizing.
	Chord p2p.ChordConfig
	// JoinSpacing staggers the join ramp (default 10 ms between joins).
	// Large rings shrink it so bring-up stays a bounded slice of the run.
	JoinSpacing time.Duration
	// Settle is the post-ramp convergence window before traffic starts
	// (default 20 s). Rings with a stretched stabilize period need a few
	// periods here.
	Settle time.Duration
	// Recorder, when non-nil, is attached to the runtime as the lookup
	// flight recorder (npsim -trace). It is passive: results are
	// byte-identical with or without it.
	Recorder *obs.Recorder
	// Faults, when non-nil, installs the deterministic fault plan on the
	// runtime (npsim -faults). Link-fault plans work on the sharded path
	// too; crash rules are serial-only (the transport rejects them).
	Faults *faults.Plan
	// Shards, when >= 1, runs the ring on a sharded kernel with that many
	// shards over Top's hosts (the matrix argument is ignored; loss, churn
	// and the recorder are serial-only). Results are byte-identical at every
	// shard count — including 1, which runs the same windowed path — but
	// differ from the serial kernel's (Shards == 0), whose op stream has no
	// handoff delays (see wireCell.shards).
	Shards int
	// Top is the topology whose PoP structure partitions the hosts and
	// whose cross-PoP latency floor sets the lookahead window. Required
	// when Shards >= 1.
	Top *netmodel.Topology
	// Kernel, when non-nil, receives the sharded kernel's self-telemetry
	// after the run (Shards >= 1 only). It is an out-parameter rather than a
	// row field because the row is figure data and this is wall-clock
	// diagnostics.
	Kernel *sim.ShardedStats
}

// WireChordRow reports the run.
type WireChordRow struct {
	Nodes, Ops int
	// PutOK and GetOK are the fractions of operations that were
	// acknowledged / returned the value just written.
	PutOK, GetOK float64
	// MeanHops and MeanRetries are routing RPCs and re-routed hops per
	// operation (lookup plus store/fetch fallbacks).
	MeanHops, MeanRetries float64
	// MeanMsgs is wire messages per operation, maintenance included.
	MeanMsgs float64
	// Timeouts and LookupFails total over the run.
	Timeouts    int64
	LookupFails int64
	// Leaves and Joins count churn events.
	Leaves, Joins int
	// Events is the total kernel events executed, bring-up and maintenance
	// included — the run's simulation cost.
	Events uint64
}

// RunWireChord joins nodes into a ring over the matrix (Top's hosts when
// Shards >= 1; m may then be nil), lets it converge, then drives sequential
// Put+Get pairs (each from a random live node) under the asked-for loss and
// churn.
func RunWireChord(m latency.Matrix, opts WireChordOpts) WireChordRow {
	if opts.Shards >= 1 {
		m = &latency.FullTopologyMatrix{Top: opts.Top}
	}
	n := opts.Nodes
	if n <= 0 || n > m.N() {
		n = m.N()
	}
	// The ring's protocol configuration, join spacing and settle window: the
	// caller's, or the wire studies' shared defaults.
	ccfg, spacing, settle := opts.Chord, opts.JoinSpacing, opts.Settle
	if ccfg.StabilizeEvery <= 0 {
		ccfg = p2p.DefaultChordConfig()
	}
	if spacing <= 0 {
		spacing = chordJoinSpacing
	}
	if settle <= 0 {
		settle = chordSettle
	}

	row := WireChordRow{Nodes: n}
	putOK, getOK := 0, 0
	var hops, retries int64
	var chord *p2p.Chord
	run := runWireCell(newSchemeCtx(m, firstN(n), opts.Seed, opts.Horizon), wireCell{
		cfg: p2p.Config{LossProb: opts.Loss}, recorder: opts.Recorder, faults: fixedFaults(opts.Faults),
		churn:  opts.Churn,
		ops:    opts.Ops,
		shards: opts.Shards, top: opts.Top,
	}, func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
		var d wireDeployment
		chord, d = chordRing(c, rt, ccfg, spacing, settle)
		return d
	}, func(run *wireRun, o *wireOp) {
		key := fmt.Sprintf("bench/%d", o.n)
		chord.Put(o.client, key, []byte(key), func(pr p2p.OpResult) {
			if !o.live() {
				return
			}
			hops += int64(pr.Hops)
			retries += int64(pr.Retries)
			row.LookupFails += int64(pr.LookupFails)
			if pr.OK {
				putOK++
			}
			from := run.issuer()
			run.hop(o, from, func() {
				chord.Get(from, key, func(gr p2p.OpResult) {
					o.complete(func() {
						hops += int64(gr.Hops)
						retries += int64(gr.Retries)
						row.LookupFails += int64(gr.LookupFails)
						if gr.OK {
							for _, v := range gr.Vals {
								if string(v) == key {
									getOK++
									break
								}
							}
						}
					})
				})
			})
		})
	})

	total := run.rt.TotalMetrics()
	nOps := float64(max(run.issued, 1))
	row.Ops = run.issued
	row.PutOK = float64(putOK) / nOps
	row.GetOK = float64(getOK) / nOps
	row.MeanHops = float64(hops) / nOps
	row.MeanRetries = float64(retries) / nOps
	row.MeanMsgs = float64(total.MsgsSent-run.atStart.MsgsSent) / nOps
	row.Timeouts = total.Timeouts
	row.Events = run.events
	row.Leaves, row.Joins = run.leaves, run.joins
	if opts.Kernel != nil && run.sharded != nil {
		*opts.Kernel = run.sharded.Stats()
	}
	return row
}
