package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// faultTestMatrix is a tiny symmetric matrix with distinct RTTs.
func faultTestMatrix(n int) latency.Matrix {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d := i - j
				if d < 0 {
					d = -d
				}
				m.Set(i, j, 10*float64(d))
			}
		}
	}
	return m
}

// TestFaultTransportSim: drop, delay and duplicate rules fire on the sim
// runtime at the planned windows, the fault counters attribute them, and
// the drained accounting identity still holds.
func TestFaultTransportSim(t *testing.T) {
	plan := &faults.Plan{Seed: 11, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 1 * time.Second, For: 1 * time.Second, Src: faults.List(0), Dst: faults.List(1)},
		{Kind: faults.DelaySpike, At: 3 * time.Second, For: 1 * time.Second, ExtraMs: 500, Src: faults.Everyone(), Dst: faults.Everyone()},
		{Kind: faults.Duplicate, At: 5 * time.Second, For: 1 * time.Second, Src: faults.Everyone(), Dst: faults.Everyone()},
	}}
	k := sim.New()
	r := New(k, faultTestMatrix(4), DefaultConfig(), 1)
	if err := InstallFaults(r, plan); err != nil {
		t.Fatal(err)
	}
	if r.flt != plan {
		t.Fatal("InstallFaults lost the plan")
	}
	n0 := r.AddNode(0)
	r.AddNode(1)

	type probe struct {
		rtt float64
		ok  bool
	}
	got := map[string]probe{}
	ping := func(name string, at, timeout time.Duration) {
		k.At(at, func() {
			n0.Ping(1, timeout, false, func(rtt float64, ok bool) {
				got[name] = probe{rtt, ok}
			})
		})
	}
	ping("quiet", 500*time.Millisecond, 300*time.Millisecond) // before any rule
	ping("blackhole", 1200*time.Millisecond, 300*time.Millisecond)
	ping("spike", 3200*time.Millisecond, 2*time.Second) // must outlive the added delay
	ping("dup", 5200*time.Millisecond, 300*time.Millisecond)
	k.Run()

	if p := got["quiet"]; !p.ok || p.rtt != 10 {
		t.Errorf("quiet ping = %+v, want ok at 10 ms", p)
	}
	if p := got["blackhole"]; p.ok {
		t.Errorf("blackhole ping succeeded: %+v", p)
	}
	if p := got["spike"]; !p.ok || p.rtt != 10+2*500 {
		// Both legs fall in the spike window: 500 ms extra each way.
		t.Errorf("spike ping = %+v, want ok at 1010 ms", p)
	}
	if p := got["dup"]; !p.ok || p.rtt != 10 {
		t.Errorf("dup ping = %+v, want ok at 10 ms (duplicates are dropped by correlation)", p)
	}

	m := r.TotalMetrics()
	if m.MsgsLost == 0 || m.FaultDelayed == 0 || m.FaultDuplicated == 0 {
		t.Errorf("fault counters missing attribution: %+v", m)
	}
	if m.MsgsSent != m.MsgsDelivered+m.MsgsLost+m.MsgsDead {
		t.Errorf("drained accounting identity broken: sent %d != delivered %d + lost %d + dead %d",
			m.MsgsSent, m.MsgsDelivered, m.MsgsLost, m.MsgsDead)
	}
}

// TestFaultTransportSimCrash: a crash rule downs the node for its window
// and the restart brings it back.
func TestFaultTransportSimCrash(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.Crash, At: 1 * time.Second, For: 2 * time.Second, Nodes: faults.List(1)},
	}}
	k := sim.New()
	r := New(k, faultTestMatrix(2), DefaultConfig(), 1)
	if err := InstallFaults(r, plan); err != nil {
		t.Fatal(err)
	}
	n0 := r.AddNode(0)
	r.AddNode(1)

	oks := map[string]bool{}
	ping := func(name string, at time.Duration) {
		k.At(at, func() {
			n0.Ping(1, 300*time.Millisecond, false, func(_ float64, ok bool) { oks[name] = ok })
		})
	}
	ping("before", 500*time.Millisecond)
	ping("down", 2*time.Second)
	ping("after", 4*time.Second)
	k.Run()

	if !oks["before"] || oks["down"] || !oks["after"] {
		t.Errorf("crash window pings = %+v, want before/after up, down dead", oks)
	}
}

// TestFaultTransportShardedCrashErrors: crash rules are serial-only, and a
// sharded runtime refuses them with an error.
func TestFaultTransportShardedCrashErrors(t *testing.T) {
	withCrash := &faults.Plan{Rules: []faults.Rule{
		{Kind: faults.Crash, At: time.Second, For: time.Second, Nodes: faults.List(0)},
	}}
	shk := sim.NewSharded(2, 5*time.Millisecond)
	ms := []latency.Matrix{faultTestMatrix(4), faultTestMatrix(4)}
	r := NewSharded(shk, ms, DefaultConfig(), 1, []int32{0, 0, 1, 1})
	if err := InstallFaults(r, withCrash); err == nil {
		t.Fatal("sharded runtime accepted a crash rule")
	}
	if r.flt != nil {
		t.Fatal("a refused plan was installed")
	}
}

// TestInstallFaultsErrors: a second plan on the same transport, a plan that
// does not validate and a transport with no fault seam are errors, and
// none of them disturbs the plan already installed.
func TestInstallFaultsErrors(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 0, For: time.Second, Src: faults.List(0), Dst: faults.List(1)},
	}}
	r := New(sim.New(), faultTestMatrix(2), DefaultConfig(), 1)
	if err := InstallFaults(r, plan); err != nil {
		t.Fatal(err)
	}
	if err := InstallFaults(r, plan); err == nil {
		t.Error("a second plan on the same runtime was accepted")
	}
	lb := NewLoopback(faultTestMatrix(2), DefaultConfig(), 1)
	defer lb.Close()
	if err := InstallFaults(lb, plan); err != nil {
		t.Fatal(err)
	}
	if err := InstallFaults(lb, plan); err == nil {
		t.Error("a second plan on the same loopback was accepted")
	}
	bad := &faults.Plan{Rules: []faults.Rule{{Kind: faults.Blackhole, At: 0, For: 0, Src: faults.List(0), Dst: faults.List(1)}}}
	if err := InstallFaults(New(sim.New(), faultTestMatrix(2), DefaultConfig(), 1), bad); err == nil {
		t.Error("a plan with an empty interval was accepted")
	}
	type wrapped struct{ Transport }
	if err := InstallFaults(wrapped{r}, plan); err == nil {
		t.Error("a transport with no fault seam was accepted")
	}
	if r.flt != plan {
		t.Error("a refused install replaced the installed plan")
	}
}

// TestFaultTransportLoopback: the same plan semantics hold on the
// wall-clock loopback transport — a black-holed link times out while an
// unaffected link still answers.
func TestFaultTransportLoopback(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Rules: []faults.Rule{
		{Kind: faults.Blackhole, At: 0, For: time.Hour, Src: faults.List(0), Dst: faults.List(1)},
	}}
	lb := NewLoopback(faultTestMatrix(3), DefaultConfig(), 1)
	defer lb.Close()
	if err := InstallFaults(lb, plan); err != nil {
		t.Fatal(err)
	}
	var n0 *Node
	lb.Do(func() {
		n0 = lb.AddNode(0)
		lb.AddNode(1)
		lb.AddNode(2)
	})

	res := make(chan bool, 1)
	lb.Do(func() {
		n0.Ping(1, 200*time.Millisecond, false, func(_ float64, ok bool) { res <- ok })
	})
	if <-res {
		t.Error("black-holed loopback ping succeeded")
	}
	lb.Do(func() {
		n0.Ping(2, 2*time.Second, false, func(_ float64, ok bool) { res <- ok })
	})
	if !<-res {
		t.Error("unaffected loopback ping failed")
	}
	lb.Do(func() {
		m := lb.SerialMetrics()
		if m.MsgsLost == 0 {
			t.Error("loopback MsgsLost not charged")
		}
	})
}

// TestFaultTransportNilPlanNoOp: installing a nil plan changes nothing.
func TestFaultTransportNilPlanNoOp(t *testing.T) {
	k := sim.New()
	r := New(k, faultTestMatrix(2), DefaultConfig(), 1)
	if err := InstallFaults(r, nil); err != nil {
		t.Fatal(err)
	}
	if r.flt != nil {
		t.Fatal("nil plan installed a fault hook")
	}
	n0 := r.AddNode(0)
	r.AddNode(1)
	var rtt float64
	k.At(0, func() {
		n0.Ping(1, 0, false, func(ms float64, ok bool) {
			if ok {
				rtt = ms
			}
		})
	})
	k.Run()
	if rtt != 10 {
		t.Errorf("ping under nil plan = %v ms, want 10", rtt)
	}
}
