package p2p

import (
	"fmt"
	"testing"
	"time"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/latency"
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
	rt.AddNode(1).Serve(NewTable().With("noop", func(*Node, Envelope) {}))
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
	rt.AddNode(1).Serve(NewTable().With("noop", func(*Node, Envelope) {}))
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
	rt.AddNode(1).Serve(NewTable().With("echo", func(n *Node, env Envelope) { n.Reply(env, "echo_ok", nil) }))
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
	mc := NewTable().With("mc", func(*Node, Envelope) {})
	for i := 1; i <= members; i++ {
		rt.AddNode(NodeID(i)).Serve(mc)
		rt.JoinGroup("g", NodeID(i))
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
	mc := NewTable().With("mc", func(*Node, Envelope) {})
	for i := 2; i < members+2; i++ {
		rt.AddNode(NodeID(i)).Serve(mc)
		rt.JoinGroup("g", NodeID(i))
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

// settledRing joins n members 10 ms apart and drains the kernel past the
// maintenance horizon, leaving a converged ring with an empty event queue:
// every later kernel.Run is exactly the work the caller scheduled. Link
// RTTs are 2–98 ms, so no exchange comes near the RPC timeout.
func settledRing(tb testing.TB, n int) (*sim.Sim, *Chord) {
	tb.Helper()
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(2+(i*31+j*17)%97))
		}
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: time.Second}, 1)
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 500 * time.Millisecond
	cfg.Horizon = time.Duration(n)*10*time.Millisecond + 30*time.Second
	ch := NewChord(rt, cfg, 7)
	for i := 0; i < n; i++ {
		id := NodeID(i)
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { ch.Join(id) })
	}
	kernel.Run()
	if ch.NumMembers() != n {
		tb.Fatalf("%d of %d members joined", ch.NumMembers(), n)
	}
	return kernel, ch
}

// BenchmarkChordLookup is one iterative lookup on a settled 1k-member ring:
// the lookup state, every hop's request and reply, the dispatch and the
// routing step at each hop. Issuers and keys rotate over fixed lists.
func BenchmarkChordLookup(b *testing.B) {
	const n = 1000
	kernel, ch := settledRing(b, n)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "bench/" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	ok := 0
	done := func(r LookupResult) {
		if r.OK {
			ok++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Lookup(NodeID(i*37%n), keys[i%len(keys)], done)
		kernel.Run()
	}
	if ok != b.N {
		b.Fatalf("%d of %d lookups resolved", ok, b.N)
	}
}

// BenchmarkChordLearn is the per-message routing-table update on a settled
// 1k-member ring: one member folds in one peer, as on every reply and
// notify. Member and peer rotate so every ordered pair comes up.
func BenchmarkChordLearn(b *testing.B) {
	const n = 1000
	_, ch := settledRing(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		self := i % n
		ch.learn(ch.states[self], NodeID((self+1+i/n%(n-1))%n))
	}
}

// BenchmarkChordRouteStep is one routing decision on a settled 1k-member
// ring — ownership tests, then the closest preceding candidates — without
// the messages around it. Members and keys rotate over fixed lists.
func BenchmarkChordRouteStep(b *testing.B) {
	const n = 1000
	_, ch := settledRing(b, n)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = dht.HashKey(fmt.Sprintf("bench/%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		self := NodeID(i * 37 % n)
		routeStepSink = ch.routeStep(self, ch.states[self], keys[i%len(keys)])
	}
}

// routeStepSink keeps BenchmarkChordRouteStep's result live.
var routeStepSink cFindOKMsg

// TestChordLookupAllocs holds one settled-ring lookup to its allocation
// budget: the lookup state comes off the shard's free list, the hops
// reuse bound callbacks, and what is left is each hop's boxed request and
// reply payloads and the alternates/replica list the reply copies out.
func TestChordLookupAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 300-member ring")
	}
	kernel, ch := settledRing(t, 300)
	hops := 0
	done := func(r LookupResult) {
		if !r.OK {
			t.Fatal("lookup on a settled ring failed")
		}
		hops = r.Hops
	}
	lookup := func() {
		ch.Lookup(17, "alloc/key", done)
		kernel.Run()
	}
	lookup() // warm the free list and the slabs
	const budget = 13
	if avg := testing.AllocsPerRun(100, lookup); avg > budget {
		t.Fatalf("one %d-hop lookup allocates %.1f times, budget %d", hops, avg, budget)
	}
}
