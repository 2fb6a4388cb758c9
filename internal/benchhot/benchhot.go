// Package benchhot holds the shared bodies of the hot-path smoke
// benchmarks. Two consumers run the exact same code: the per-package
// `go test -bench` benchmarks (external _test files delegating here) and
// cmd/benchscale, which writes the CI-tracked BENCH_scale.json. Sharing
// the bodies is the point — if the workloads could drift apart, the CI
// perf trajectory would silently stop being comparable to local bench
// runs of the same name.
//
// It is a non-test package only because test packages cannot be imported;
// nothing here should run in production code paths.
package benchhot

import (
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
	"nearestpeer/internal/testmat"
	"nearestpeer/internal/vivaldi"
)

// LineMatrix builds a dense matrix with rtt(i,j) = 10*|i-j| ms — the
// shape every transport benchmark prices against.
func LineMatrix(n int) *latency.Dense {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 10*float64(j-i))
		}
	}
	return m
}

// SendDeliver is the wire hot path: one one-way message from send through
// delivery. Steady state is 0 allocs/op — the envelope parks by value in
// the runtime slab and delivery rides a typed kernel event.
func SendDeliver(b *testing.B) {
	kernel := sim.New()
	rt := p2p.New(kernel, LineMatrix(4), p2p.Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("noop", func(*p2p.Node, p2p.Envelope) {})
	a.Send(1, "noop", nil)
	kernel.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, "noop", nil)
		kernel.Run()
	}
}

// ObsSendDeliver is SendDeliver with the full observability layer in the
// way: metrics registry and flight recorder attached to the runtime, plus
// one recorder write and one histogram observe per op — the instrumented
// cost of the same wire hot path. The delta against the send_deliver row
// is the price of observability; steady state must stay 0 allocs/op (the
// claim TestObsZeroAlloc enforces, tracked here as a perf trajectory).
func ObsSendDeliver(b *testing.B) {
	kernel := sim.New()
	rt := p2p.New(kernel, LineMatrix(4), p2p.Config{RPCTimeout: time.Second}, 1)
	reg := obs.NewRegistry(4)
	rt.EnableObs(reg)
	rec := obs.NewRecorder(64)
	rt.AttachRecorder(rec)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("noop", func(*p2p.Node, p2p.Envelope) {})
	// Warm past one full recorder wrap so ring reuse, not growth, is
	// what gets measured.
	for i := 0; i < 128; i++ {
		a.Send(1, "noop", nil)
		rec.Record(obs.Hop{Scheme: "bench", Type: "noop", To: 1, RTTms: 1})
	}
	kernel.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, "noop", nil)
		rec.Record(obs.Hop{Scheme: "bench", Type: "noop", To: 1, RTTms: 1})
		reg.ObserveLookupMs(10)
		kernel.Run()
	}
}

// RequestReply prices the correlated round trip (request, reply, inflight
// bookkeeping, timeout event) — the Ping building block.
func RequestReply(b *testing.B) {
	kernel := sim.New()
	rt := p2p.New(kernel, LineMatrix(4), p2p.Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("echo", func(n *p2p.Node, env p2p.Envelope) { n.Reply(env, "echo_ok", nil) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Request(1, "echo", nil, time.Second, func(p2p.Envelope) {}, nil)
		kernel.Run()
	}
}

// MulticastRound is one expanding-ring round from a warm sender index
// over a 1024-member group: a binary-searched RTT prefix (radius 160 ms
// covers the 16 nearest members of the line matrix), not an O(members)
// rescan.
func MulticastRound(b *testing.B) {
	const members = 1024
	kernel := sim.New()
	rt := p2p.New(kernel, LineMatrix(members+1), p2p.Config{RPCTimeout: time.Second}, 1)
	for i := 1; i <= members; i++ {
		rt.AddNode(p2p.NodeID(i))
		rt.JoinGroup("g", p2p.NodeID(i))
		rt.Node(p2p.NodeID(i)).Handle("mc", func(*p2p.Node, p2p.Envelope) {})
	}
	rt.AddNode(0)
	rt.Multicast(0, "g", "mc", nil, 160)
	kernel.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Multicast(0, "g", "mc", nil, 160)
		kernel.Run()
	}
}

// TreeOneWayMs is the raw pricing hot path over a prebuilt topology:
// flat-table loads plus the hub lookup, no shortcut hash.
func TreeOneWayMs(b *testing.B, top *netmodel.Topology) {
	n := top.NumHosts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = top.TreeOneWayMs(netmodel.HostID(i%n), netmodel.HostID((i*7+3)%n))
	}
}

// RTTCacheHit prices one pair repeatedly through the pair cache — the
// chord-stabilize access pattern.
func RTTCacheHit(b *testing.B, top *netmodel.Topology) {
	c := netmodel.NewRTTCache(top, 0)
	n := top.NumHosts()
	c.RTTms(0, netmodel.HostID(n/2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.RTTms(0, netmodel.HostID(n/2))
	}
}

// VivaldiGossipRound advances a warm 64-member coordinate overlay through
// one full gossip period: every member issues a gossip, every answer
// applies a spring update, snapshot slots recycle through their typed
// reclaim events. Steady state is 0 allocs/op — the wire Vivaldi claim the
// zero-alloc test enforces, tracked here as a perf trajectory.
func VivaldiGossipRound(b *testing.B) {
	const members = 64
	kernel := sim.New()
	rt := p2p.New(kernel, LineMatrix(members), p2p.Config{RPCTimeout: time.Second}, 1)
	w := vivaldi.NewWire(rt, vivaldi.DefaultWireConfig(), 1)
	for i := 0; i < members; i++ {
		w.Join(p2p.NodeID(i))
	}
	period := vivaldi.DefaultWireConfig().GossipEvery
	period += period / 4
	kernel.RunUntil(2 * time.Minute) // warm slabs, queues and neighbor sets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.RunUntil(kernel.Now() + period)
	}
}

// KernelHandlerCascade drives a 1000-event cascade through a registered
// typed handler: the kernel's allocation-free scheduling loop.
func KernelHandlerCascade(b *testing.B) {
	s := sim.New()
	cnt := 0
	var h sim.HandlerID
	h = s.RegisterHandler(func(arg uint64) {
		cnt++
		if cnt < 1000 {
			s.AfterHandler(time.Duration(cnt%7)*time.Millisecond, h, arg+1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt = 0
		s.AfterHandler(0, h, 0)
		s.Run()
	}
}

// MeridianBuild is static Meridian construction at the Section 4 defaults:
// 380 members of a 400-point Euclidean space gossip-sample, measure and
// trim their rings. Allocations per op are the overlay's own storage; a
// selection or a sampled candidate that allocated would multiply them.
func MeridianBuild(b *testing.B) {
	m := testmat.Euclidean(400, 1)
	members, _ := overlay.Split(400, 20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meridian.New(overlay.NewNetwork(m), members, meridian.DefaultConfig(), int64(i))
	}
}

// MeridianSelect is the hypervolume ring-selection kernel with as little
// around it as the exported API allows: 65 members and a single ring, so
// every node trims one over-full ring from a full 64-candidate pool. One op
// is 65 selections (2,016 pairwise probes and 14 Gram–Schmidt rounds each).
func MeridianSelect(b *testing.B) {
	m := testmat.Euclidean(65, 1)
	members := make([]int, 65)
	for i := range members {
		members[i] = i
	}
	cfg := meridian.DefaultConfig()
	cfg.NumRings = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meridian.New(overlay.NewNetwork(m), members, cfg, int64(i))
	}
}
