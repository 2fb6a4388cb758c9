package experiments

import (
	"fmt"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
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
	// Churn enables the membership process.
	Churn    bool
	ChurnCfg p2p.ChurnConfig
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
	// shards (Top required; loss, churn and the recorder are serial-only).
	// Results are byte-identical at every shard count — including 1, which
	// runs the same windowed path — but differ from the Shards == 0 legacy
	// serial path, whose op pacing has no cross-shard handoff delay.
	Shards int
	// Top is the topology whose PoP structure partitions the hosts and
	// whose cross-PoP latency floor sets the lookahead window. Required
	// when Shards >= 1; the matrix positions must be Top's host IDs.
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

// knobs resolves the ring's protocol configuration, join spacing and settle
// window: the caller's, or the wire studies' shared defaults.
func (o WireChordOpts) knobs() (ccfg p2p.ChordConfig, spacing, settle time.Duration) {
	ccfg, spacing, settle = o.Chord, o.JoinSpacing, o.Settle
	if ccfg.StabilizeEvery <= 0 {
		ccfg = p2p.DefaultChordConfig()
	}
	if spacing <= 0 {
		spacing = chordJoinSpacing
	}
	if settle <= 0 {
		settle = chordSettle
	}
	return ccfg, spacing, settle
}

// chordJoinRamp schedules the sharded path's staggered joins and returns
// the virtual time of the last one.
func chordJoinRamp(kernel *sim.Sim, chord *p2p.Chord, ids []p2p.NodeID, spacing time.Duration) time.Duration {
	for i := range ids {
		id := ids[i]
		kernel.After(time.Duration(i)*spacing, func() { chord.Join(id) })
	}
	return time.Duration(len(ids)) * spacing
}

// RunWireChord joins nodes into a ring over the matrix, lets it converge,
// then drives sequential Put+Get pairs (each from a random live node)
// under the asked-for loss and churn.
func RunWireChord(m latency.Matrix, opts WireChordOpts) WireChordRow {
	if opts.Horizon <= 0 {
		opts.Horizon = wireHorizon
	}
	if opts.Shards >= 1 {
		return runWireChordSharded(opts)
	}
	n := opts.Nodes
	if n <= 0 || n > m.N() {
		n = m.N()
	}
	ccfg, spacing, settle := opts.knobs()

	row := WireChordRow{Nodes: n}
	putOK, getOK := 0, 0
	var hops, retries int64
	var chord *p2p.Chord
	run := runWireCell(newSchemeCtx(m, firstN(n), opts.Seed, opts.Horizon), wireCell{
		cfg: p2p.Config{LossProb: opts.Loss}, recorder: opts.Recorder, faults: fixedFaults(opts.Faults),
		churn: opts.Churn, churnCfg: opts.ChurnCfg,
		ops: opts.Ops,
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
			chord.Get(run.issuer(), key, func(gr p2p.OpResult) {
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

	nOps := float64(max(run.issued, 1))
	row.Ops = run.issued
	row.PutOK = float64(putOK) / nOps
	row.GetOK = float64(getOK) / nOps
	row.MeanHops = float64(hops) / nOps
	row.MeanRetries = float64(retries) / nOps
	row.MeanMsgs = float64(run.rt.Metrics.MsgsSent-run.atStart.MsgsSent) / nOps
	row.Timeouts = run.rt.Metrics.Timeouts
	row.Events = run.kernel.Executed
	row.Leaves, row.Joins = run.leaves, run.joins
	return row
}

// runWireChordSharded is the Shards >= 1 path: the same ring exercise on a
// sharded kernel. Hosts are partitioned PoP-atomically (every cross-shard
// pair is cross-PoP), the lookahead window is the topology's cross-PoP
// one-way floor, and each shard prices through its own RTT-cached matrix
// view. The sequential op chain hops between issuing nodes with Handoff
// delays that are topology constants, and the run is cut in virtual time
// (StopAt) when the last op completes — every coordinate the schedule
// depends on is shard-count-invariant, so the row is byte-identical at any
// Shards value (the determinism test pins 1 == 2 == 4).
func runWireChordSharded(opts WireChordOpts) WireChordRow {
	top := opts.Top
	if top == nil {
		panic("experiments: sharded wire chord needs a topology")
	}
	if opts.Loss != 0 || opts.Churn || opts.Recorder != nil {
		panic("experiments: loss, churn and the flight recorder are serial-only")
	}
	k := opts.Shards
	pop := top.NumHosts()
	n := opts.Nodes
	if n <= 0 || n > pop {
		n = pop
	}
	window := netmodel.Duration(top.MinCrossPoPOneWayMs())
	shk := sim.NewSharded(k, window)
	ms := make([]latency.Matrix, k)
	for s := range ms {
		ms[s] = (&latency.FullTopologyMatrix{Top: top}).EnableRTTCache(0)
	}
	rt := p2p.NewSharded(shk, ms, p2p.Config{}, opts.Seed, top.ShardByPoP(k))
	if opts.Faults != nil {
		p2p.NewFaultTransport(rt, opts.Faults)
	}
	ccfg, spacing, settle := opts.knobs()
	ccfg.Horizon = opts.Horizon
	chord := p2p.NewChord(rt, ccfg, opts.Seed+1)
	ids := make([]p2p.NodeID, n)
	for i := range ids {
		ids[i] = p2p.NodeID(i)
	}
	driver := shk.Shard(p2p.DriverShard)
	opsStart := chordJoinRamp(driver, chord, ids, spacing) + settle

	row := WireChordRow{Nodes: n}
	src := rng.New(opts.Seed + 3)
	putOK, getOK := 0, 0
	var hops, retries int64
	issued := 0
	liveNode := func() p2p.NodeID { return ids[src.Intn(len(ids))] }
	// The handoff delays are topology constants (>= the lookahead window at
	// any realistic topology; max() covers degenerate ones), never functions
	// of the shard count — the op chain's virtual times must not move with K.
	delta := rt.HandoffDelay()
	opGap := 100 * time.Millisecond
	if opGap < delta {
		opGap = delta
	}
	// step issues the next Put+Get pair; it runs as an event on fromShard
	// (the shard the previous op completed on, or the driver at start).
	var step func(fromShard int)
	step = func(fromShard int) {
		if issued >= opts.Ops {
			// Cut the run in virtual time: no window starting after the
			// last completion runs, and stabilize events already inside the
			// final windows execute on every K alike.
			shk.StopAt(shk.Shard(fromShard).Now())
			return
		}
		issued++
		key := fmt.Sprintf("bench/%d", issued)
		val := []byte(key)
		pfrom := liveNode()
		rt.Handoff(fromShard, pfrom, opGap, func() {
			chord.Put(pfrom, key, val, func(pr p2p.OpResult) {
				hops += int64(pr.Hops)
				retries += int64(pr.Retries)
				row.LookupFails += int64(pr.LookupFails)
				if pr.OK {
					putOK++
				}
				gfrom := liveNode()
				rt.Handoff(rt.ShardOf(pfrom), gfrom, delta, func() {
					chord.Get(gfrom, key, func(gr p2p.OpResult) {
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
						step(rt.ShardOf(gfrom))
					})
				})
			})
		})
	}
	// Per-shard maintenance-message snapshots at the traffic start time:
	// each shard reads its own counter at its local clock, so no shard ever
	// peeks at another's metrics mid-run. Scheduled at setup, the snapshot
	// sorts before any same-instant runtime event on its shard.
	msgsStartSh := make([]int64, k)
	for s := 0; s < k; s++ {
		s := s
		shk.Shard(s).At(opsStart, func() { msgsStartSh[s] = rt.ShardMetrics(s).MsgsSent })
	}
	driver.At(opsStart, func() { step(p2p.DriverShard) })
	shk.RunUntil(opts.Horizon)
	if opts.Kernel != nil {
		*opts.Kernel = shk.Stats()
	}

	var msgsStart int64
	for _, v := range msgsStartSh {
		msgsStart += v
	}
	total := rt.TotalMetrics()
	nOps := float64(issued)
	if issued == 0 {
		nOps = 1
	}
	row.Ops = issued
	row.PutOK = float64(putOK) / nOps
	row.GetOK = float64(getOK) / nOps
	row.MeanHops = float64(hops) / nOps
	row.MeanRetries = float64(retries) / nOps
	row.MeanMsgs = float64(total.MsgsSent-msgsStart) / nOps
	row.Timeouts = total.Timeouts
	// The k snapshot events above are measurement scaffolding, not model
	// events; excluding them keeps the figure-visible count K-invariant.
	row.Events = shk.Executed() - uint64(k)
	return row
}
