package experiments

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/measure"
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

// TestWireCellDeadlineAndHorizon pins the runner's own contract on both
// drivers: an op whose find never calls back ends at the per-op deadline —
// the sequential stream advances, the op's late or repeated completions are
// dead — and when the horizon cuts the stream, issued says how many ops
// actually started.
func TestWireCellDeadlineAndHorizon(t *testing.T) {
	never := func(int) bool { return false }
	for _, tc := range []struct {
		name       string
		cadence    time.Duration
		horizon    time.Duration
		ops        int
		wantIssued int
		wantEnd    time.Duration // virtual time the kernel stopped at
	}{
		{"sequential, silent finds advance on the deadline", 0, time.Hour, 3, 3,
			wireFinderBringup + 3*(wireOpDeadline+wireOpGap)},
		{"sequential, horizon cuts the stream", 0, wireFinderBringup + 90*time.Second, 3, 2,
			wireFinderBringup + 90*time.Second},
		{"cadenced, silent finds", 10 * time.Second, time.Hour, 4, 4,
			wireFinderBringup + 4*10*time.Second + 2*wireOpDeadline},
		{"cadenced, horizon cuts the stream", 10 * time.Second, wireFinderBringup + 25*time.Second, 4, 3,
			wireFinderBringup + 25*time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			finds, applied := 0, 0
			var ops []*wireOp
			run := runWireCell(lineCtx(8, tc.horizon), wireCell{ops: tc.ops, cadence: tc.cadence},
				silentDeployment(&finds, never),
				func(run *wireRun, o *wireOp) {
					ops = append(ops, o)
					run.find(o, func(p2p.FindResult) { applied++ })
				})
			if run.issued != tc.wantIssued || finds != tc.wantIssued {
				t.Fatalf("issued %d ops (%d finds), want %d", run.issued, finds, tc.wantIssued)
			}
			if now := run.kernel.Now(); now != tc.wantEnd {
				t.Fatalf("kernel stopped at %v, want %v", now, tc.wantEnd)
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

	t.Run("a find that reports twice scores once", func(t *testing.T) {
		applied := 0
		run := runWireCell(lineCtx(8, time.Hour), wireCell{ops: 2},
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
