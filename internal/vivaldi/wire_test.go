package vivaldi

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// wireLineMatrix builds a dense matrix with rtt(i,j) = 10*|i-j| ms — a
// 1-D-embeddable geometry the spring relaxation can fit well.
func wireLineMatrix(n int) *latency.Dense {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 10*float64(j-i))
		}
	}
	return m
}

// newTestWire stands up a wire with all of 1..n-1 joined as members (node 0
// is left free as a non-member client).
func newTestWire(n int, loss float64, seed int64) (*sim.Sim, *p2p.Runtime, *Wire) {
	kernel := sim.New()
	rt := p2p.New(kernel, wireLineMatrix(n), p2p.Config{RPCTimeout: time.Second}, seed)
	if err := p2p.InstallFaults(rt, faults.Lossy(nil, seed, loss)); err != nil {
		panic(err) // a loss probability in [0, 1] always installs
	}
	w := NewWire(rt, DefaultWireConfig(), seed)
	for i := 1; i < n; i++ {
		w.Join(p2p.NodeID(i))
	}
	return kernel, rt, w
}

// wireMedianErr computes the embedding's median |pred-true|/true over all
// live member pairs.
func wireMedianErr(w *Wire, m latency.Matrix) float64 {
	members := w.LiveMembers()
	var errs []float64
	for i, a := range members {
		for _, b := range members[i+1:] {
			actual := m.LatencyMs(int(a), int(b))
			if actual <= 0 {
				continue
			}
			pred := w.CoordOf(a).DistanceMs(w.CoordOf(b))
			errs = append(errs, math.Abs(pred-actual)/actual)
		}
	}
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j] < errs[j-1]; j-- {
			errs[j], errs[j-1] = errs[j-1], errs[j]
		}
	}
	return errs[len(errs)/2]
}

// TestWireGossipConverges: after a few hundred samples per member the wire
// embedding predicts the line matrix well, and the protocol counters add up
// (every applied sample came from an answered gossip).
func TestWireGossipConverges(t *testing.T) {
	kernel, rt, w := newTestWire(33, 0, 1)
	kernel.RunUntil(10 * time.Minute)
	if err := wireMedianErr(w, wireLineMatrix(33)); err > 0.25 {
		t.Fatalf("median abs rel err %.3f after 10 virtual minutes, want <= 0.25", err)
	}
	m := w.Metrics()
	if m.Gossips == 0 || m.Samples == 0 || m.Samples > m.Gossips {
		t.Fatalf("metrics %+v: want 0 < Samples <= Gossips", m)
	}
	if rt.TotalMetrics().MaintProbes != m.Gossips {
		t.Fatalf("MaintProbes %d != Gossips %d: gossip cost not accounted as maintenance",
			rt.TotalMetrics().MaintProbes, m.Gossips)
	}
}

// TestWireGossipZeroAlloc mirrors TestSendDeliverZeroAlloc for the gossip
// round: once the slabs, queues and neighbor sets are warm, advancing the
// kernel through a full gossip period (every member gossips once, every
// answer applies a spring update) must not allocate. A failing test, not a
// bench note — the claim cannot silently regress.
func TestWireGossipZeroAlloc(t *testing.T) {
	kernel, _, w := newTestWire(33, 0, 1)
	// Warm: slab and queue high-water marks, neighbor sets filled, all
	// coordinates away from the origin (no coincident-point paths left).
	kernel.RunUntil(2 * time.Minute)
	period := w.cfg.GossipEvery + w.cfg.GossipEvery/4
	if avg := testing.AllocsPerRun(200, func() {
		kernel.RunUntil(kernel.Now() + period)
	}); avg != 0 {
		t.Fatalf("gossip round allocates %v per period, want 0", avg)
	}
}

// TestWireGossipDeterministic: same seed, same bytes — coordinates,
// neighbor sets and counters all replay exactly.
func TestWireGossipDeterministic(t *testing.T) {
	run := func() ([]Coord, WireMetrics, p2p.Metrics) {
		kernel, rt, w := newTestWire(24, 0.05, 7)
		kernel.RunUntil(5 * time.Minute)
		var coords []Coord
		for _, id := range w.LiveMembers() {
			coords = append(coords, *w.CoordOf(id).Clone())
		}
		return coords, w.Metrics(), rt.TotalMetrics()
	}
	c1, wm1, rm1 := run()
	c2, wm2, rm2 := run()
	if wm1 != wm2 || rm1 != rm2 {
		t.Fatalf("same seed diverged: %+v/%+v vs %+v/%+v", wm1, rm1, wm2, rm2)
	}
	for i := range c1 {
		if c1[i].Height != c2[i].Height || c1[i].Err != c2[i].Err {
			t.Fatalf("coord %d diverged: %+v vs %+v", i, c1[i], c2[i])
		}
		for d := range c1[i].Vec {
			if c1[i].Vec[d] != c2[i].Vec[d] {
				t.Fatalf("coord %d dim %d diverged: %v vs %v", i, d, c1[i].Vec[d], c2[i].Vec[d])
			}
		}
	}
}

// TestWireFindNearestNonMember: a non-member client places itself and the
// coordinate-guided walk plus RTT verification lands on a truly nearby
// member (node 0's nearest member on the line is node 1 at 10 ms).
func TestWireFindNearestNonMember(t *testing.T) {
	kernel, _, w := newTestWire(64, 0, 3)
	kernel.RunUntil(10 * time.Minute)
	var res p2p.FindResult
	fired := 0
	w.FindNearest(0, func(r p2p.FindResult) { res = r; fired++ })
	// Gossip ticks reschedule forever (no Horizon here), so drive by
	// deadline instead of draining the queue.
	kernel.RunUntil(kernel.Now() + 2*time.Minute)
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if !res.Found {
		t.Fatalf("search failed: %+v", res)
	}
	if res.RTTms > 30 {
		t.Fatalf("found peer %d at %.0f ms; want within 30 ms of the true 10 ms nearest (%+v)",
			res.Peer, res.RTTms, res)
	}
	if res.Probes == 0 {
		t.Fatalf("search issued no probes: %+v", res)
	}
}

// TestWireFindNearestMember: a member client uses its own live coordinate
// (no placement probes) and must find its immediate line neighbor.
func TestWireFindNearestMember(t *testing.T) {
	kernel, _, w := newTestWire(64, 0, 3)
	kernel.RunUntil(10 * time.Minute)
	var res p2p.FindResult
	w.FindNearest(32, func(r p2p.FindResult) { res = r })
	kernel.RunUntil(kernel.Now() + 2*time.Minute)
	if !res.Found || res.RTTms != 10 {
		t.Fatalf("member search found %d at %.0f ms, want an adjacent member at exactly 10 ms (%+v)",
			res.Peer, res.RTTms, res)
	}
	if res.Peer != 31 && res.Peer != 33 {
		t.Fatalf("member search found %d, want 31 or 33", res.Peer)
	}
}

// TestWireLeaveRejoin: a member that leaves goes silent (its neighbors
// evict it by unanswered gossips), and a rejoin starts a fresh incarnation
// whose ticks resume — the old incarnation's chain must not double-drive
// the node.
func TestWireLeaveRejoin(t *testing.T) {
	kernel, rt, w := newTestWire(17, 0, 5)
	kernel.RunUntil(2 * time.Minute)
	w.Leave(8, false)
	if rt.Alive(8) {
		t.Fatal("left member still alive")
	}
	if w.CoordOf(8) != nil {
		t.Fatal("left member still has a coordinate")
	}
	gossipsAtLeave := w.Metrics().Gossips
	kernel.RunUntil(4 * time.Minute)
	if w.Metrics().Evictions == 0 {
		t.Fatal("no neighbor evicted the silent member")
	}
	w.Join(8)
	kernel.RunUntil(8 * time.Minute)
	if w.CoordOf(8) == nil {
		t.Fatal("rejoined member has no coordinate")
	}
	if w.Metrics().Gossips == gossipsAtLeave {
		t.Fatal("gossip stalled after leave/rejoin")
	}
	// The rejoined incarnation gossips again and its coordinate moves off
	// the origin.
	c := w.CoordOf(8)
	var norm float64
	for _, v := range c.Vec {
		norm += v * v
	}
	if norm == 0 && c.Height == 0 {
		t.Fatalf("rejoined member never applied a sample: %+v", c)
	}
}

// TestWireLossDropsSamples: under heavy loss, gossips outnumber applied
// samples and the embedding still converges (more slowly).
func TestWireLossDropsSamples(t *testing.T) {
	kernel, _, w := newTestWire(24, 0.3, 9)
	kernel.RunUntil(10 * time.Minute)
	m := w.Metrics()
	if m.Samples >= m.Gossips {
		t.Fatalf("loss=0.3 but samples %d >= gossips %d", m.Samples, m.Gossips)
	}
	if err := wireMedianErr(w, wireLineMatrix(24)); err > 0.5 {
		t.Fatalf("median err %.3f under loss, want <= 0.5", err)
	}
}
