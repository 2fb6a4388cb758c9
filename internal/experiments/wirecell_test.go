package experiments

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
)

// silentDeployment is a deployment whose members join the runtime and whose
// find answers only the ops answer admits — the rest never call back, like a
// query whose issuer crashed. finds counts the find calls.
func silentDeployment(finds *int, answer func(call int) bool) wireDeploy {
	return func(_ *schemeCtx, rt *p2p.Runtime) wireDeployment {
		return wireDeployment{
			join: func(id p2p.NodeID) { rt.AddNode(id) },
			find: func(client p2p.NodeID, done func(p2p.FindResult)) {
				*finds++
				if answer(*finds) {
					rt.After(client, time.Second, func() { done(p2p.FindResult{Peer: 0, Found: true}) })
				}
			},
		}
	}
}

// lineCtx is a context over n members on a line, 1 ms apart.
func lineCtx(n int, horizon time.Duration) *schemeCtx {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, float64(i-j))
		}
	}
	return newSchemeCtx(m, firstN(n), 1, horizon)
}

// shardTopo is the ~300-host scale-study topology the sharded-kernel tests
// run over.
func shardTopo() *netmodel.Topology { return netmodel.Generate(scaleTopoConfig(300), 301) }

// spreadCtx is a context over n members spread evenly across top's hosts,
// so a cell sharded over top issues from several shards.
func spreadCtx(top *netmodel.Topology, n int, horizon time.Duration) *schemeCtx {
	members := make([]int, n)
	for i := range members {
		members[i] = i * top.NumHosts() / n
	}
	return newSchemeCtx(&latency.FullTopologyMatrix{Top: top}, members, 1, horizon)
}

// TestWireCellDeadlineAndHorizon pins the runner's own contract on both
// drivers and both kernels: an op whose find never calls back ends at the
// per-op deadline — the sequential stream advances, the op's late or
// repeated completions are dead — and when the horizon cuts the stream,
// issued says how many ops actually started. On the sharded kernel the
// stream hops between issuers with Handoff delays and is cut in virtual
// time, so the same schedule holds with the gap stretched to the lookahead
// window if that is longer, and the driver's clock may end inside the
// window the cut fell in (cadenced streams are serial-only).
func TestWireCellDeadlineAndHorizon(t *testing.T) {
	never := func(int) bool { return false }
	top := shardTopo()
	window := netmodel.Duration(top.MinCrossPoPOneWayMs())
	for _, kern := range []struct {
		prefix string // subtest name prefix; the serial legs keep the bare names
		shards int
		gap    time.Duration
		slack  time.Duration // how far past the cut the driver's clock may end
		ctx    func(horizon time.Duration) *schemeCtx
	}{
		{"", 0, wireOpGap, 0, func(h time.Duration) *schemeCtx { return lineCtx(8, h) }},
		{"sharded, ", 2, max(wireOpGap, window), window - 1, func(h time.Duration) *schemeCtx { return spreadCtx(top, 8, h) }},
	} {
		for _, tc := range []struct {
			name       string
			cadence    time.Duration
			horizon    time.Duration
			ops        int
			wantIssued int
			wantEnd    time.Duration // virtual time the kernel stopped at
		}{
			{"sequential, silent finds advance on the deadline", 0, time.Hour, 3, 3,
				wireFinderBringup + 3*(wireOpDeadline+kern.gap)},
			{"sequential, horizon cuts the stream", 0, wireFinderBringup + 90*time.Second, 3, 2,
				wireFinderBringup + 90*time.Second},
			{"cadenced, silent finds", 10 * time.Second, time.Hour, 4, 4,
				wireFinderBringup + 4*10*time.Second + 2*wireOpDeadline},
			{"cadenced, horizon cuts the stream", 10 * time.Second, wireFinderBringup + 25*time.Second, 4, 3,
				wireFinderBringup + 25*time.Second},
		} {
			if tc.cadence > 0 && kern.shards > 0 {
				continue
			}
			t.Run(kern.prefix+tc.name, func(t *testing.T) {
				finds, applied := 0, 0
				var ops []*wireOp
				run := runWireCell(kern.ctx(tc.horizon), wireCell{ops: tc.ops, cadence: tc.cadence, shards: kern.shards, top: top},
					silentDeployment(&finds, never),
					func(run *wireRun, o *wireOp) {
						ops = append(ops, o)
						run.find(o, func(p2p.FindResult) { applied++ })
					})
				if run.issued != tc.wantIssued || finds != tc.wantIssued {
					t.Fatalf("issued %d ops (%d finds), want %d", run.issued, finds, tc.wantIssued)
				}
				if now := run.kernel.Now(); now < tc.wantEnd || now > tc.wantEnd+kern.slack {
					t.Fatalf("kernel stopped at %v, want %v (+%v)", now, tc.wantEnd, kern.slack)
				}
				first := 1
				if tc.cadence > 0 {
					first = 0
				}
				for i, o := range ops {
					if o.n != first+i {
						t.Errorf("op %d numbered %d, want %d", i, o.n, first+i)
					}
					if tc.wantIssued < tc.ops {
						continue // cut short: the last op's deadline never came
					}
					// An op the deadline ended stays ended: a completion that
					// arrives late must not score it a second time.
					if o.live() {
						t.Errorf("op %d still live after its deadline", o.n)
					}
					o.complete(func() { applied++ })
				}
				if applied != 0 {
					t.Fatalf("%d completions applied after the deadline, want 0", applied)
				}
			})
		}

		// A two-leg op (chord's Put then Get) hops to a second issuer; its
		// deadline goes along, so a silent second leg still ends the op on
		// time — on the sharded kernel from the new home's shard, with the
		// first shard's deadline event stood down (-race checks that no two
		// shards touch the op in one window).
		t.Run(kern.prefix+"an op that hops keeps its deadline", func(t *testing.T) {
			legs := 0
			run := runWireCell(kern.ctx(time.Hour), wireCell{ops: 3, shards: kern.shards, top: top},
				silentDeployment(new(int), never),
				func(run *wireRun, o *wireOp) {
					run.hop(o, run.issuer(), func() { legs++ })
				})
			want := wireFinderBringup + 3*(wireOpDeadline+kern.gap)
			if now := run.kernel.Now(); run.issued != 3 || legs != 3 || now < want || now > want+kern.slack {
				t.Fatalf("issued %d ops, %d second legs, stopped at %v; want 3, 3, %v", run.issued, legs, now, want)
			}
		})

		t.Run(kern.prefix+"a find that reports twice scores once", func(t *testing.T) {
			applied := 0
			run := runWireCell(kern.ctx(time.Hour), wireCell{ops: 2, shards: kern.shards, top: top},
				func(_ *schemeCtx, rt *p2p.Runtime) wireDeployment {
					return wireDeployment{
						join: func(id p2p.NodeID) { rt.AddNode(id) },
						find: func(_ p2p.NodeID, done func(p2p.FindResult)) {
							done(p2p.FindResult{Peer: p2p.NoNode})
							done(p2p.FindResult{Peer: p2p.NoNode})
						},
					}
				},
				func(run *wireRun, o *wireOp) {
					run.find(o, func(p2p.FindResult) { applied++ })
				})
			if run.issued != 2 || applied != 2 {
				t.Fatalf("issued %d, applied %d completions, want 2 and 2", run.issued, applied)
			}
		})
	}
}

// TestStudyCellsNormaliseByIssued: the studies' scorers on top of the
// runner. Every other find is silent, so half the ops fail on the deadline —
// each scored failed exactly once, burning the whole deadline in r1's
// latency column and unobserved in o1's histogram — and a horizon that cuts
// the stream leaves the rates normalised by the ops issued, not asked.
func TestStudyCellsNormaliseByIssued(t *testing.T) {
	odd := func(call int) bool { return call%2 == 1 }
	noFaults := faultStudyConditions()[0]
	deadlineMs := float64(wireOpDeadline) / float64(time.Millisecond)

	finds := 0
	fc := faultCell(lineCtx(8, time.Hour), silentDeployment(&finds, odd), noFaults, false, nil, nil, 6)
	if fc.Lookups != 6 || fc.Done != 0.5 || fc.P50 >= deadlineMs || fc.P99 != deadlineMs {
		t.Fatalf("r1 cell with every other find silent: %+v", fc)
	}
	finds = 0
	cut := wireFinderBringup + 3*faultQueryEvery + time.Second // ops 0..3 issue, 4 and 5 never do
	fc = faultCell(lineCtx(8, cut), silentDeployment(&finds, odd), noFaults, false, nil, nil, 6)
	if fc.Lookups != 4 || fc.Done != 0.5 {
		t.Fatalf("r1 cell cut by the horizon after 4 of 6 ops: %+v", fc)
	}

	finds = 0
	oc := obsCell(lineCtx(8, time.Hour), silentDeployment(&finds, odd), wireCondition{name: "lossless"}, nil, 6, false)
	if oc.Lookups != 6 || oc.Done != 0.5 || oc.P999 >= deadlineMs {
		t.Fatalf("o1 cell with every other find silent: %+v", oc)
	}
	finds = 0
	cut = wireFinderBringup + 2*(wireOpDeadline+time.Second) // two answered+silent pairs fit, a fifth op does not
	oc = obsCell(lineCtx(8, cut), silentDeployment(&finds, odd), wireCondition{name: "lossless"}, nil, 6, false)
	if oc.Lookups != 4 || oc.Done != 0.5 {
		t.Fatalf("o1 cell cut by the horizon after 4 of 6 ops: %+v", oc)
	}

	// The sharded cell (s1's chord column, the bench ring): a horizon two
	// seconds into the stream leaves a lossless ring's rates over the pairs
	// issued — all acknowledged but the one the cut caught in flight.
	top := shardTopo()
	ccfg, spacing, settle := scaleChordConfig(top.NumHosts())
	mark := time.Duration(top.NumHosts())*spacing + settle
	row := RunWireChord(nil, WireChordOpts{
		Ops: 50, Seed: 1,
		Chord: ccfg, JoinSpacing: spacing, Settle: settle,
		Horizon: mark + 2*time.Second,
		Shards:  2, Top: top,
	})
	if row.Ops < 2 || row.Ops >= 50 || row.PutOK < float64(row.Ops-1)/float64(row.Ops) {
		t.Fatalf("sharded chord cell cut by the horizon: %+v", row)
	}
}

// TestLookupCellsRunEveryScheme is the capability the one deployment type
// buys: r1's cadenced cell (no faults, and the burst-loss condition) and
// o1's instrumented cell (registry and sampler attached) run every
// registered scheme, not just the three whose figures they draw. Over the
// Quick environment's peers at tiny sizing, every cell must issue every op
// it was asked for, and every op must report exactly once.
func TestLookupCellsRunEveryScheme(t *testing.T) {
	env := SharedEnv(Quick, 1)
	peers := MitigationPeers(env, 40)
	const lookups = 5
	const seed = int64(1)
	conds := faultStudyConditions()
	noFaults, burst := conds[0], conds[1]
	if noFaults.plan(0, 0, 0, nil) != nil || burst.plan(0, time.Minute, 0, nil).Rules[0].Kind != faults.LossBurst {
		t.Fatal("faultStudyConditions no longer opens with no-faults, burst-loss")
	}

	for _, name := range GrandSchemes() {
		t.Run(name, func(t *testing.T) {
			leg, err := wireLeg(name)
			if err != nil {
				t.Fatal(err)
			}
			// counted wraps the registry's leg so every find's reports are
			// tallied per call.
			var reports []int
			counted := func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
				d := leg(c, rt)
				find := d.find
				d.find = func(client p2p.NodeID, done func(p2p.FindResult)) {
					call := len(reports)
					reports = append(reports, 0)
					find(client, func(r p2p.FindResult) {
						reports[call]++
						done(r)
					})
				}
				return d
			}
			ctx := func() *schemeCtx {
				reports = nil
				m := (&latency.TopologyMatrix{Top: env.Top, Hosts: peers}).EnableRTTCache(0)
				tools := measure.NewTools(env.Top, measure.DefaultConfig(), seed+1)
				return envSchemeCtx(env, tools, peers, m, seed, faultStudyHorizon)
			}
			check := func(cell string, issued int, done float64) {
				t.Helper()
				if issued != lookups || len(reports) != lookups {
					t.Fatalf("%s: issued %d ops through %d finds, asked for %d", cell, issued, len(reports), lookups)
				}
				for call, n := range reports {
					if n != 1 {
						t.Errorf("%s: op %d reported %d times, want exactly once", cell, call, n)
					}
				}
				if math.IsNaN(done) || done < 0 || done > 1 {
					t.Errorf("%s: done rate %v", cell, done)
				}
			}
			for _, cond := range []faultCondition{noFaults, burst} {
				fc := faultCell(ctx(), counted, cond, true, nil, nil, lookups)
				check("r1 "+cond.name, fc.Lookups, fc.Done)
				if cond.name == burst.name && fc.Dropped == 0 {
					t.Errorf("r1 %s: the burst window dropped nothing: %+v", cond.name, fc)
				}
			}
			oc := obsCell(ctx(), counted, wireCondition{name: "messages, loss=0%"}, nil, lookups, false)
			check("o1", oc.Lookups, oc.Done)
			// (The sampler ticks every obsSampleEvery; a stream this short
			// may end before its first tick.)
			if oc.LoadMax == 0 || oc.MsgMix == "" || oc.P50 <= 0 {
				t.Errorf("o1: the registry saw nothing: %+v", oc)
			}
		})
	}
}
