package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/obs"
	"nearestpeer/internal/sim"
)

// BenchmarkSendDeliver is the wire hot path: one one-way message from send
// through delivery. Steady state is 0 allocs/op — the envelope parks by
// value in the runtime slab and delivery rides a typed kernel event.
func BenchmarkSendDeliver(b *testing.B) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(4), Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("noop", func(*Node, Envelope) {})
	a.Send(1, "noop", nil)
	kernel.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, "noop", nil)
		kernel.Run()
	}
}

// BenchmarkObsSendDeliver is BenchmarkSendDeliver with the full
// observability layer in the way: metrics registry and flight recorder
// attached to the runtime, plus one recorder write and one histogram observe
// per op — the instrumented cost of the same wire hot path. The delta
// against SendDeliver is the price of observability; steady state must stay
// 0 allocs/op (the claim TestObsZeroAlloc enforces).
func BenchmarkObsSendDeliver(b *testing.B) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(4), Config{RPCTimeout: time.Second}, 1)
	reg := obs.NewRegistry(4)
	rt.EnableObs(reg)
	rec := obs.NewRecorder(64)
	rt.AttachRecorder(rec)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("noop", func(*Node, Envelope) {})
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

// BenchmarkRequestReply prices the correlated round trip (request, reply,
// inflight bookkeeping, timeout event) — the Ping building block.
func BenchmarkRequestReply(b *testing.B) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(4), Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	rt.AddNode(1).Handle("echo", func(n *Node, env Envelope) { n.Reply(env, "echo_ok", nil) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Request(1, "echo", nil, time.Second, func(Envelope) {}, nil)
		kernel.Run()
	}
}

// BenchmarkMulticastRound is one expanding-ring round from a warm sender
// index over a 1024-member group: a binary-searched RTT prefix (radius
// 160 ms covers the 16 nearest members of the line matrix), not an
// O(members) rescan.
func BenchmarkMulticastRound(b *testing.B) {
	const members = 1024
	kernel := sim.New()
	rt := New(kernel, lineMatrix(members+1), Config{RPCTimeout: time.Second}, 1)
	for i := 1; i <= members; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
		rt.Node(NodeID(i)).Handle("mc", func(*Node, Envelope) {})
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

// BenchmarkMulticastRoundCold prices the first round from a fresh sender
// (index build + sort) amortised over the group size, the cost the lazy
// index pays once per (sender, group).
func BenchmarkMulticastRoundCold(b *testing.B) {
	const members = 1024
	kernel := sim.New()
	rt := New(kernel, lineMatrix(members+2), Config{RPCTimeout: time.Second}, 1)
	for i := 2; i < members+2; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
		rt.Node(NodeID(i)).Handle("mc", func(*Node, Envelope) {})
	}
	rt.AddNode(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := rt.groups["g"]
		delete(g.senders, 0) // evict so every iteration rebuilds
		b.StartTimer()
		rt.Multicast(0, "g", "mc", nil, 160)
		kernel.Run()
	}
}
