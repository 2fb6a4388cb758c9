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

// This file is the one wire cell behind c1, c2/g1, v1, o1, r1, s1's wire
// cells and `npsim -runtime -algo chord`: one deployment type
// (wireDeployment) and one runner (runWireCell) that owns the kernel (serial
// or sharded), runtime, attachments, joins, held-out issuers, churn, the
// bring-up mark, the op stream and the watchdog. Nothing here names a study:
// what differs between the cells is data on wireCell, and scoring stays with
// the caller.

// The wire cells share their bring-up and pacing knobs so every study's
// rows stay comparable: chord joins staggered below the stabilize rate, a
// settle window before traffic, a one-minute default mark (joins all land
// at t=0 and their traffic drains within virtual seconds), and a
// per-operation deadline. The deadline is a backstop, not the way an op
// ends when its issuer goes down: the runtime fails a stopped node's
// requests at the stop, so its op runs down then. An op the deadline
// ends is one that hung for another reason, and the cell counts it
// (wireRun.backstopped).
const (
	chordJoinSpacing  = 10 * time.Millisecond
	chordSettle       = 20 * time.Second
	wireFinderBringup = time.Minute
	wireOpDeadline    = time.Minute
	wireOpGap         = 100 * time.Millisecond
	wireHorizon       = 2 * time.Hour
)

// wireDeployment is what a scheme's Wire constructor hands the runner.
type wireDeployment struct {
	// join brings one member up (required). The runner calls it for every
	// member in order at t=0; a deployment that staggers its joins
	// schedules them from here. rejoin handles churn re-entry (nil: join
	// again); leave handles churn exit (nil: no protocol exit — the
	// member's soft state goes stale, as real directories do).
	join   func(id p2p.NodeID)
	rejoin func(id p2p.NodeID)
	leave  func(id p2p.NodeID, graceful bool)
	// mark is the virtual time bring-up ends: the registrations run
	// there, then churn starts and the op stream begins (0:
	// wireFinderBringup).
	mark time.Duration
	// bringup runs the post-join registrations (directory Registers, hint
	// publishes, ...; fanOut starts them all at once) and must call done
	// exactly once; nil when the scheme has no standing state beyond what
	// its joins and timers build by the mark.
	bringup func(done func())
	// find runs one nearest-peer query from client.
	find func(client p2p.NodeID, done func(p2p.FindResult))
}

// wireDeploy is a scheme's Wire leg: it builds the scheme's deployment over
// a cell's runtime from the cell's context.
type wireDeploy func(c *schemeCtx, rt *p2p.Runtime) wireDeployment

// answered reports whether a find produced the scheme's positive answer —
// what the lookup studies (r1/o1) count as done. A finder's answer is a peer
// (Found); a key-resolving leg's is the owner, which may be the issuer
// itself (Peer set, Found false).
func answered(r p2p.FindResult) bool { return r.Peer != p2p.NoNode }

// fanOut starts step(0), ..., step(n-1) at once, in order, and calls done
// exactly once, when the last of them has called its next (at once when n
// is 0). It is the shape of every registration bring-up: every member
// registers as the mark opens. The simulator models no per-node queueing,
// so one member at a time would buy no cleaner bill, only a publish window
// — and ring maintenance billed inside it — that grows with the
// population. Each step calls its next once, synchronously or later.
func fanOut(n int, step func(i int, next func()), done func()) {
	pending := n + 1 // the extra one is released after the last step starts
	next := func() {
		if pending--; pending == 0 {
			done()
		}
	}
	for i := 0; i < n; i++ {
		step(i, next)
	}
	next()
}

// wireCell is the data of one cell: everything the studies vary beyond the
// scheme context (matrix, members, seeds, horizon — see schemeCtx).
type wireCell struct {
	cfg p2p.Config
	// loss is every message's drop probability: a whole-run Loss rule in
	// the cell's fault plan (0: none).
	loss float64
	// heldOut are matrix positions outside the overlay that issue the ops
	// (AddNode'd, never churned). Empty: live members issue, a draw that is
	// down redrawn up to 20 times (under heavy churn everyone may be down;
	// the op then fails honestly).
	heldOut []int
	// recorder and registry, when non-nil, are attached before any traffic;
	// both are passive. faults, when non-nil, builds the fault plan once the
	// deployment's mark is known; the loss rule joins it (faults.Lossy), and
	// a cell with neither installs no plan.
	recorder *obs.Recorder
	registry *obs.Registry
	faults   func(mark time.Duration) *faults.Plan
	// churn drives the membership process (experimentChurnConfig) over the
	// members from the end of bring-up; the op stream starts churnLead
	// later, so the process bites before measuring.
	churn     bool
	churnLead time.Duration
	// ops is the stream length. cadence 0 runs them sequentially (numbered
	// from 1, the next wireOpGap after the previous ended, the kernel
	// stopped after the last); cadence > 0 issues op n (numbered from 0) at
	// n*cadence whatever the others are doing, and stops the kernel two
	// deadlines after the last issue.
	ops     int
	cadence time.Duration
	// onStart runs as the op stream begins, before the first op.
	onStart func(run *wireRun)
	// shards picks the kernel: 0 a serial sim.Sim over the context's
	// matrix; >= 1 a sim.Sharded with that many shards over top, whose PoPs
	// partition the hosts (members and held-out issuers are top's host IDs),
	// whose cross-PoP floor is the lookahead window, and which gives each
	// shard its own RTT-cached matrix. Rows are identical at every shards >=
	// 1 but differ from serial ones: the sequential stream's hops between
	// issuers take Handoff delays. A sharded cell runs the sequential stream
	// with no registrations; churn, crash rules and the obs attachments are
	// serial-only, and p2p rejects them.
	shards int
	top    *netmodel.Topology
}

// fixedFaults is the wireCell.faults of a plan that does not move with the
// mark (npsim -faults).
func fixedFaults(plan *faults.Plan) func(time.Duration) *faults.Plan {
	return func(time.Duration) *faults.Plan { return plan }
}

// wireRun is the handle runWireCell returns (and hands every op): what a
// study needs to score its cell.
type wireRun struct {
	// kernel is the driver kernel (the serial one, or shard 0 of a sharded
	// cell); sharded is the sharded kernel, nil on a serial cell.
	kernel  *sim.Sim
	sharded *sim.Sharded
	rt      *p2p.Runtime
	d       wireDeployment
	// issued counts the ops actually started — what results must be
	// normalised by when the horizon cuts the stream short.
	issued        int
	leaves, joins int
	// pubMsgs is the publish bill: everything sent from the mark until the
	// bring-up's last registration settled (the ring's own maintenance in
	// that window included), or without a bringup everything sent before
	// the mark (the joins and whatever the scheme's timers built — a
	// bringup scheme's pre-mark traffic is its substrate's). pubWindow is
	// the virtual time that bring-up took (0 without one). atStart
	// snapshots the counters (summed over shards) as the op stream began.
	pubMsgs   int64
	pubWindow time.Duration
	atStart   p2p.Metrics
	// events is the kernel events the cell executed over every shard.
	events uint64
	// backstopped counts the ops wireOpDeadline ended: still running a
	// virtual minute after issue; ended counts every op's end.
	backstopped, ended int

	c       *schemeCtx
	ids     []p2p.NodeID
	heldOut []int
	src     *rng.Source
}

// issuer draws the next op's issuing node (see wireCell.heldOut).
func (r *wireRun) issuer() p2p.NodeID {
	if len(r.heldOut) > 0 {
		return p2p.NodeID(r.heldOut[r.src.Intn(len(r.heldOut))])
	}
	id := r.ids[r.src.Intn(len(r.ids))]
	for tries := 0; tries < 20 && !r.rt.Alive(id); tries++ {
		id = r.ids[r.src.Intn(len(r.ids))]
	}
	return id
}

// wireOp is one op of the stream. It ends exactly once: through complete,
// or at wireOpDeadline — the op then scores as failed (it is in issued, and
// its complete is dead) and counts in wireRun.backstopped.
type wireOp struct {
	run    *wireRun
	n      int
	client p2p.NodeID
	ended  bool
	after  func(home p2p.NodeID)
	// home is the node the op's callbacks run at: the client, until hop
	// moves the op on. The deadline (absolute) is armed on home's shard,
	// so it and the callbacks it races are ordered by that one kernel;
	// moved stands the current leg's deadline event down once hop has
	// armed the next leg's.
	home     p2p.NodeID
	deadline time.Duration
	moved    *bool
}

// live reports whether the op is still current (for intermediate
// accounting in multi-step ops).
func (o *wireOp) live() bool { return !o.ended }

// complete ends the op and runs apply, unless the deadline got there first.
func (o *wireOp) complete(apply func()) {
	if o.ended {
		return
	}
	o.ended = true
	o.run.ended++
	if apply != nil {
		apply()
	}
	if o.after != nil {
		o.after(o.home)
	}
}

// find runs the deployment's query from o's issuer; score sees the answer
// unless the deadline got there first or the issuer is down when the query
// completes. A client that crashed mid-query has its requests failed at
// the crash, so its query runs down at once; whatever it had found by then
// is not credited, and the op scores as failed, as the deadline would
// score it.
func (r *wireRun) find(o *wireOp, score func(p2p.FindResult)) {
	r.d.find(o.client, func(res p2p.FindResult) {
		o.complete(func() {
			if r.rt.Alive(o.client) {
				score(res)
			}
		})
	})
}

// startOp issues op n from client, running as an event at client (or on
// the driver kernel of a serial cell); after (the sequential driver's
// advance) runs when the op ends.
func (r *wireRun) startOp(n int, client p2p.NodeID, issue func(*wireRun, *wireOp), after func(home p2p.NodeID)) {
	r.c.op = n
	o := &wireOp{run: r, n: n, client: client, home: client, deadline: r.rt.Now(client) + wireOpDeadline, after: after}
	r.armDeadline(o)
	issue(r, o)
}

// armDeadline schedules the op's deadline on its home's shard kernel.
func (r *wireRun) armDeadline(o *wireOp) {
	moved := new(bool)
	o.moved = moved
	home := r.kernel
	if r.sharded != nil {
		home = r.sharded.Shard(r.rt.ShardOf(o.home))
	}
	home.After(max(o.deadline-home.Now(), 0), func() {
		if !*moved && !o.ended {
			r.backstopped++
			o.complete(nil)
		}
	})
}

// hop runs the op's next step at node to, from an event at the op's home:
// inline on a serial kernel; on a sharded one after a Handoff (one
// lookahead window) to to's shard, which becomes the op's home and takes
// its deadline along (the old shard's deadline event stands down).
func (r *wireRun) hop(o *wireOp, to p2p.NodeID, step func()) {
	if r.sharded == nil {
		step()
		return
	}
	*o.moved = true
	r.rt.Handoff(r.rt.ShardOf(o.home), to, 0, func() {
		o.home = to
		r.armDeadline(o)
		step()
	})
}

// runWireCell runs one wire cell: a fresh kernel and runtime (see
// wireCell.shards), the cell's attachments, deploy's deployment with every
// member joined in order and the held-out issuers added, then — at the
// deployment's mark — the registrations, churn, and the op stream, issue
// called once per op. Seeds: c.seed drives the loss rule, +1 the protocol
// (the Wire leg's business), +2 churn, +3 the issuer draws.
//
// The sharded kernel's rules live here and nowhere else: every schedule
// coordinate is a topology constant, never a function of the shard count
// (the stream hops between issuers with Handoff delays, and the run is cut
// in virtual time by StopAt); each shard snapshots its own counters at the
// mark; the held-out issuers' multicast sender indexes are built at setup,
// the only phase that may mutate state the shards share.
func runWireCell(c *schemeCtx, cell wireCell, deploy wireDeploy, issue func(run *wireRun, o *wireOp)) *wireRun {
	if c.horizon <= 0 {
		c.horizon = wireHorizon
	}
	run := &wireRun{c: c, ids: make([]p2p.NodeID, len(c.members)), heldOut: cell.heldOut, src: rng.New(c.seed + 3)}
	if cell.shards == 0 {
		run.rt = p2p.New(sim.New(), c.m, cell.cfg, c.seed)
	} else {
		run.sharded = sim.NewSharded(cell.shards, netmodel.Duration(cell.top.MinCrossPoPOneWayMs()))
		ms := make([]latency.Matrix, cell.shards)
		for s := range ms {
			ms[s] = (&latency.FullTopologyMatrix{Top: cell.top}).EnableRTTCache(0)
		}
		run.rt = p2p.NewSharded(run.sharded, ms, cell.cfg, c.seed, cell.top.ShardByPoP(cell.shards))
	}
	rt, kernel := run.rt, run.rt.Kernel
	run.kernel = kernel
	if cell.registry != nil {
		rt.EnableObs(cell.registry)
	}
	if cell.recorder != nil {
		rt.AttachRecorder(cell.recorder)
	}
	d := deploy(c, rt)
	if d.mark == 0 {
		d.mark = wireFinderBringup
	}
	run.d = d
	var plan *faults.Plan
	if cell.faults != nil {
		plan = cell.faults(d.mark)
	}
	check(p2p.InstallFaults(rt, faults.Lossy(plan, c.seed, cell.loss)))
	for i, id := range c.members {
		run.ids[i] = p2p.NodeID(id)
		d.join(run.ids[i])
	}
	for _, id := range cell.heldOut {
		rt.AddNode(p2p.NodeID(id))
		if run.sharded != nil {
			rt.WarmSenderIndex(p2p.ExpandGroup, p2p.NodeID(id))
		}
	}

	var churn *p2p.Churn
	if cell.churn {
		ccfg := experimentChurnConfig()
		ccfg.Horizon = c.horizon
		churn = p2p.NewChurn(rt, ccfg, c.seed+2)
		churn.OnLeave = d.leave
		churn.OnJoin = d.rejoin
		if churn.OnJoin == nil {
			churn.OnJoin = d.join
		}
	}

	// step advances the sequential stream from an event on shard from: it
	// ends the run once every op was issued, or draws the next issuer and
	// starts the op there — at once on a serial kernel (the op after next
	// follows wireOpGap after it ends), after a Handoff of at least the
	// lookahead window on a sharded one.
	var step func(from int)
	step = func(from int) {
		if run.issued >= cell.ops {
			if run.sharded == nil {
				kernel.Stop()
			} else {
				run.sharded.StopAt(run.sharded.Shard(from).Now())
			}
			return
		}
		run.issued++
		n, client := run.issued, run.issuer()
		if run.sharded == nil {
			run.startOp(n, client, issue, func(p2p.NodeID) {
				kernel.After(wireOpGap, func() { step(p2p.DriverShard) })
			})
			return
		}
		rt.Handoff(from, client, wireOpGap, func() {
			run.startOp(n, client, issue, func(home p2p.NodeID) { step(rt.ShardOf(home)) })
		})
	}
	// counters reads the metrics mid-run: a serial runtime's account, or
	// zero on a sharded one, whose shards snapshot their own accounts at
	// the mark (snaps, summed after the run) because no event may read
	// another running shard's counters.
	counters := func() p2p.Metrics {
		if run.sharded != nil {
			return p2p.Metrics{}
		}
		return rt.TotalMetrics()
	}
	start := func() {
		run.atStart = counters()
		if cell.onStart != nil {
			cell.onStart(run)
		}
		if cell.cadence > 0 {
			for n := 0; n < cell.ops; n++ {
				kernel.After(time.Duration(n)*cell.cadence, func() {
					run.issued++
					run.startOp(n, run.issuer(), issue, nil)
				})
			}
			kernel.After(time.Duration(cell.ops)*cell.cadence+2*wireOpDeadline, kernel.Stop)
			return
		}
		step(p2p.DriverShard)
	}
	// A sharded cell's stream starts at the mark, where each shard reads its
	// own counters: scheduled at setup, the snapshot sorts before any
	// same-instant event on its shard.
	var snaps []p2p.Metrics
	if run.sharded != nil {
		snaps = make([]p2p.Metrics, cell.shards)
		for s := range snaps {
			run.sharded.Shard(s).At(d.mark, func() { snaps[s] = *rt.ShardMetrics(s) })
		}
	}
	kernel.At(d.mark, func() {
		var pubStart int64
		afterBringup := func() {
			run.pubMsgs = counters().MsgsSent - pubStart
			run.pubWindow = kernel.Now() - d.mark
			if churn == nil {
				start()
				return
			}
			churn.Drive(run.ids)
			kernel.After(cell.churnLead, start)
		}
		if d.bringup != nil {
			pubStart = counters().MsgsSent
			d.bringup(afterBringup)
			return
		}
		afterBringup()
	})
	var end time.Duration
	if run.sharded == nil {
		kernel.At(c.horizon, kernel.Stop) // watchdog against a stalled bring-up
		kernel.Run()
		end, run.events = kernel.Now(), kernel.Executed
	} else {
		end = run.sharded.RunUntil(c.horizon)
		for _, m := range snaps {
			run.atStart.Add(m)
		}
		run.pubMsgs = run.atStart.MsgsSent
		// The snapshots are measurement scaffolding, not model events:
		// excluding them keeps the count what the model executed.
		run.events = run.sharded.Executed() - uint64(cell.shards)
	}

	if churn != nil {
		run.leaves, run.joins = churn.Leaves, churn.Joins
	}
	// Message conservation: every envelope sent was delivered, lost (fault
	// drops included), dead-lettered at a down node, or is still in flight.
	m := rt.TotalMetrics()
	if inflight := int64(rt.InflightEnvelopes()); m.MsgsSent != m.MsgsDelivered+m.MsgsLost+m.MsgsDead+inflight {
		check(fmt.Errorf("wire cell: %d messages sent, but %d delivered + %d lost + %d dead + %d in flight",
			m.MsgsSent, m.MsgsDelivered, m.MsgsLost, m.MsgsDead, inflight))
	}
	// Operation conservation: every op issued ended exactly once, unless the
	// horizon watchdog cut the stream.
	if end < c.horizon && run.ended != run.issued {
		check(fmt.Errorf("wire cell: %d ops issued, but %d ended", run.issued, run.ended))
	}
	return run
}
