package vivaldi

import (
	"testing"
	"time"

	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// BenchmarkVivaldiGossipRound advances a warm 64-member coordinate overlay
// through one full gossip period: every member issues a gossip, every answer
// applies a spring update, snapshot slots recycle through their typed
// reclaim events. Steady state is 0 allocs/op — the wire Vivaldi claim the
// zero-alloc test enforces.
func BenchmarkVivaldiGossipRound(b *testing.B) {
	const members = 64
	kernel := sim.New()
	rt := p2p.New(kernel, wireLineMatrix(members), p2p.Config{RPCTimeout: time.Second}, 1)
	w := NewWire(rt, DefaultWireConfig(), 1)
	for i := 0; i < members; i++ {
		w.Join(p2p.NodeID(i))
	}
	period := DefaultWireConfig().GossipEvery
	period += period / 4
	kernel.RunUntil(2 * time.Minute) // warm slabs, queues and neighbor sets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.RunUntil(kernel.Now() + period)
	}
}
