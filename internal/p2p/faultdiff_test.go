// Fault-plane differential conformance: one seeded fault plan, one probe
// schedule, two transports. The plan's decisions are a pure function of
// (seed, src, dst, window) — or, for the per-message Loss rule, of the
// sender's send ordinal in place of the window — and both transports price
// the plan clock from their own zero (virtual time on the simulator, wall
// time since start on loopback) and count each sender's sends the same
// way, so a probe fired at the midpoint of each decision window must see
// the identical fault fate on both: same probes answered, same probes
// black-holed, same drop/delay/duplicate counts. This is the gate that
// keeps "debug a live fault in the simulator" honest.

package p2p_test

import (
	"sync"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// fdProbes pings fire from node 0 to node 1, one at the midpoint of each
// 250 ms decision window, spanning every rule of fdPlan plus healthy time
// on both flanks. rtt(0,1) is 10 ms and the per-probe timeout 100 ms, so
// each probe resolves well inside its own window.
const (
	fdProbes  = 36
	fdEvery   = 250 * time.Millisecond // == faults.DefaultWindow
	fdTimeout = 100 * time.Millisecond
)

// fdPlan exercises every link-fault kind plus a crash/restart cycle, each
// window-aligned with 125 ms of margin to the probe times so wall-clock
// timer jitter cannot move a probe across a decision boundary. The last
// rule, per-message loss, spans eight probes whose pings and pongs draw
// from their senders' ordinals.
func fdPlan() *faults.Plan {
	return &faults.Plan{Seed: 7, Rules: []faults.Rule{
		{Kind: faults.LossBurst, At: 500 * time.Millisecond, For: 1500 * time.Millisecond, Prob: 0.5,
			Src: faults.List(0), Dst: faults.List(1)},
		{Kind: faults.DelaySpike, At: 2500 * time.Millisecond, For: time.Second, ExtraMs: 30,
			Src: faults.Everyone(), Dst: faults.Everyone()},
		{Kind: faults.Duplicate, At: 4 * time.Second, For: time.Second,
			Src: faults.Everyone(), Dst: faults.Everyone()},
		{Kind: faults.Crash, At: 5500 * time.Millisecond, For: time.Second, Nodes: faults.List(1)},
		{Kind: faults.Loss, At: 6750 * time.Millisecond, For: 2 * time.Second, Prob: 0.5,
			Src: faults.Everyone(), Dst: faults.Everyone()},
	}}
}

// fdResult is the transport-independent outcome: per-probe fate plus the
// fault plane's own accounting.
type fdResult struct {
	ok                           [fdProbes]bool
	dropped, delayed, duplicated int64
}

func fdProbeAt(i int) time.Duration { return time.Duration(i)*fdEvery + fdEvery/2 }

// fdLossFirst is the first probe inside the loss rule's span.
const fdLossFirst = int(6750 * time.Millisecond / fdEvery)

func fdRunSim() fdResult {
	kernel := sim.New()
	rt := p2p.New(kernel, diffMatrix(), p2p.Config{RPCTimeout: time.Second}, 1)
	if err := p2p.InstallFaults(rt, fdPlan()); err != nil {
		panic(err) // fdPlan is fixed and valid
	}
	n0 := rt.AddNode(0)
	rt.AddNode(1)
	var res fdResult
	for i := 0; i < fdProbes; i++ {
		i := i
		kernel.At(fdProbeAt(i), func() {
			n0.Request(1, p2p.MsgPing, nil, fdTimeout,
				func(p2p.Envelope) { res.ok[i] = true }, func() {})
		})
	}
	kernel.Run()
	m := rt.TotalMetrics()
	res.dropped, res.delayed, res.duplicated = m.FaultDropped, m.FaultDelayed, m.FaultDuplicated
	return res
}

func fdRunLoopback() fdResult {
	lb := p2p.NewLoopback(diffMatrix(), p2p.Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	if err := p2p.InstallFaults(lb, fdPlan()); err != nil {
		panic(err) // fdPlan is fixed and valid
	}
	var n0 *p2p.Node
	lb.Do(func() { n0 = lb.AddNode(0); lb.AddNode(1) })
	var res fdResult
	var wg sync.WaitGroup
	wg.Add(fdProbes)
	probe := lb.RegisterHandler(p2p.TimerFunc(func(arg uint64) {
		i := int(arg)
		n0.Request(1, p2p.MsgPing, nil, fdTimeout,
			func(p2p.Envelope) { res.ok[i] = true; wg.Done() }, wg.Done)
	}))
	for i := 0; i < fdProbes; i++ {
		lb.After(0, fdProbeAt(i), probe, uint64(i))
	}
	wg.Wait() // every probe resolves exactly once: reply or expiry
	lb.Do(func() {
		m := lb.SerialMetrics()
		res.dropped, res.delayed, res.duplicated = m.FaultDropped, m.FaultDelayed, m.FaultDuplicated
	})
	return res
}

// TestFaultDifferentialSimVsLoopback: same plan seed, same probe times,
// same fates — on virtual time and on the wall clock.
func TestFaultDifferentialSimVsLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential run (~7 s)")
	}
	simRes := fdRunSim()
	liveRes := fdRunLoopback()

	for i := 0; i < fdProbes; i++ {
		if simRes.ok[i] != liveRes.ok[i] {
			t.Errorf("probe %d at %v: sim ok=%v live ok=%v",
				i, fdProbeAt(i), simRes.ok[i], liveRes.ok[i])
		}
	}
	if simRes.dropped != liveRes.dropped {
		t.Errorf("FaultDropped: sim %d live %d", simRes.dropped, liveRes.dropped)
	}
	if simRes.delayed != liveRes.delayed {
		t.Errorf("FaultDelayed: sim %d live %d", simRes.delayed, liveRes.delayed)
	}
	if simRes.duplicated != liveRes.duplicated {
		t.Errorf("FaultDuplicated: sim %d live %d", simRes.duplicated, liveRes.duplicated)
	}

	// The plan was no no-op: the burst dropped something, the spike priced
	// something, the duplicate window injected something, the crash
	// black-holed the probes inside it, and the loss span both answered and
	// lost probes — yet healthy flanks answered.
	if simRes.dropped == 0 || simRes.delayed == 0 || simRes.duplicated == 0 {
		t.Errorf("plan under-exercised: dropped=%d delayed=%d duplicated=%d",
			simRes.dropped, simRes.delayed, simRes.duplicated)
	}
	lossOK := 0
	for i := fdLossFirst; i < fdLossFirst+8; i++ {
		if simRes.ok[i] {
			lossOK++
		}
	}
	if lossOK == 0 || lossOK == 8 {
		t.Errorf("%d of the 8 probes in the loss span answered, want some but not all", lossOK)
	}
	if !simRes.ok[0] || !simRes.ok[fdProbes-1] {
		t.Error("healthy flank probes failed")
	}
	crashProbe := int((5500*time.Millisecond + fdEvery) / fdEvery) // first midpoint inside the crash
	if simRes.ok[crashProbe] {
		t.Errorf("probe %d inside the crash window was answered", crashProbe)
	}
}
