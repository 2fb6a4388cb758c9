package meridian

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// wireFixture is a clustered matrix with a Meridian overlay deployed on a
// runtime: every member joined, the held-out targets added as clients.
type wireFixture struct {
	kernel  *sim.Sim
	rt      *p2p.Runtime
	w       *Wire
	m       latency.Matrix
	members []int
	targets []int
}

// newWireFixture builds the fixture on a clustered matrix of peers, 20 of
// them held out as targets.
func newWireFixture(t *testing.T, peers int, loss float64, seed int64) *wireFixture {
	t.Helper()
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = peers
	cfg.ENsPerCluster = 25
	m, _ := latency.NewClustered(cfg, seed)
	members, targets := overlay.Split(m.N(), 20, seed+2)
	return deployWire(m, members, targets, loss, seed)
}

// deployWire deploys an overlay seeded seed+1 over members on a runtime
// over m: a static New over the same members and seed is its twin.
func deployWire(m latency.Matrix, members, targets []int, loss float64, seed int64) *wireFixture {
	kernel := sim.New()
	rt := p2p.New(kernel, m, p2p.Config{}, seed)
	if err := p2p.InstallFaults(rt, faults.Lossy(nil, seed, loss)); err != nil {
		panic(err) // a loss probability in [0, 1] always installs
	}
	w := NewWire(rt, New(overlay.NewNetwork(m), members, DefaultConfig(), seed+1))
	for _, id := range members {
		w.Join(p2p.NodeID(id))
	}
	for _, id := range targets {
		rt.AddNode(p2p.NodeID(id))
	}
	return &wireFixture{kernel: kernel, rt: rt, w: w, m: m, members: members, targets: targets}
}

// run issues n queries sequentially in virtual time, cycling through the
// targets, and returns each query's reports (one each, unless a query
// reported twice or never).
func (f *wireFixture) run(t *testing.T, n int) []p2p.FindResult {
	t.Helper()
	reports := make([][]p2p.FindResult, n)
	var step func(i int)
	step = func(i int) {
		if i >= n {
			return
		}
		tgt := p2p.NodeID(f.targets[i%len(f.targets)])
		reported := false
		f.w.FindNearest(tgt, func(res p2p.FindResult) {
			reports[i] = append(reports[i], res)
			if !reported {
				reported = true
				f.kernel.After(10*time.Millisecond, func() { step(i + 1) })
			}
		})
	}
	f.kernel.After(0, func() { step(0) })
	f.kernel.Run()
	out := make([]p2p.FindResult, n)
	for i, r := range reports {
		if len(r) != 1 {
			t.Fatalf("query %d reported %d times, want once", i, len(r))
		}
		out[i] = r[0]
	}
	return out
}

// TestWireQueryLossless: at 0% loss every query finds a peer at its true
// RTT, with no timeouts, and matches the same-seed static walk query by
// query — the same peer, probes and hops. Besides the clustered matrix the
// paper studies, it runs a small overlay in a doubling space, where walks
// are short and the start itself is often the answer, and a square lattice
// under the Manhattan metric, whose mirror-image members tie exactly: the
// wire must break RTT ties and take ring-band edges as the static walk
// does. The lattice's latencies are whole milliseconds, which a ping
// measures exactly (see the note in wire.go).
func TestWireQueryLossless(t *testing.T) {
	const side = 12
	lattice := latency.NewDense(side * side)
	for i := 0; i < side*side; i++ {
		for j := i + 1; j < side*side; j++ {
			lattice.Set(i, j, 3*(math.Abs(float64(i%side-j%side))+math.Abs(float64(i/side-j/side))))
		}
	}
	euclid := euclideanMatrix(60, 3)
	cases := []struct {
		name    string
		f       func() *wireFixture
		queries int
	}{
		{"clustered", func() *wireFixture { return newWireFixture(t, 300, 0, 7) }, 25},
		{"euclidean", func() *wireFixture {
			members, targets := overlay.Split(euclid.N(), 45, 4)
			return deployWire(euclid, members, targets, 0, 7)
		}, 45},
		{"lattice", func() *wireFixture {
			members, targets := overlay.Split(lattice.N(), 44, 6)
			return deployWire(lattice, members, targets, 0, 7)
		}, 88},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if exact := c.f().matchStatic(t, c.queries, 7); exact == 0 {
				t.Fatal("no query found the exact nearest peer")
			}
		})
	}
}

// matchStatic runs n lossless queries and holds each to the same-seed
// static walk's answer, probes and hops, to its true RTT, and to one ring
// read per walk node; it returns how many found the true nearest member.
func (f *wireFixture) matchStatic(t *testing.T, n int, seed int64) (exact int) {
	t.Helper()
	results := f.run(t, n)
	static := New(overlay.NewNetwork(f.m), f.members, DefaultConfig(), seed+1)
	for i, res := range results {
		tgt := f.targets[i%len(f.targets)]
		if !res.Found || res.Probes <= 0 {
			t.Fatalf("query %d: %+v, want a peer found by probing", i, res)
		}
		if got, want := res.RTTms, f.m.LatencyMs(tgt, int(res.Peer)); math.Abs(got-want) > 1e-3 {
			t.Fatalf("query %d latency %v, want %v", i, got, want)
		}
		if int(res.Peer) == overlay.TrueNearest(f.m, tgt, f.members).Peer {
			exact++
		}
		sr := static.FindNearest(tgt)
		if int(res.Peer) != sr.Peer || int64(res.Probes) != sr.Probes || res.Hops != sr.Hops {
			t.Errorf("query %d: wire found %d at %d probes, %d hops; static %d at %d probes, %d hops",
				i, res.Peer, res.Probes, res.Hops, sr.Peer, sr.Probes, sr.Hops)
		}
		if res.RPCs != res.Hops+1 || res.Elapsed <= 0 {
			t.Errorf("query %d: %d ring reads over %d hops in %v, want hops+1 reads in positive time", i, res.RPCs, res.Hops, res.Elapsed)
		}
	}
	if f.rt.Metrics.Timeouts != 0 {
		t.Fatalf("%d timeouts in a lossless static network", f.rt.Metrics.Timeouts)
	}
	return exact
}

// TestWireQueryUnderLoss: under 5% loss every query still reports exactly
// once, most with a peer, and the lost messages show up as timeouts.
func TestWireQueryUnderLoss(t *testing.T) {
	f := newWireFixture(t, 300, 0.05, 7)
	completed := 0
	for _, res := range f.run(t, 25) {
		if res.Found {
			completed++
		}
	}
	if completed < 20 {
		t.Fatalf("only %d/25 queries found a peer under 5%% loss", completed)
	}
	if f.rt.Metrics.Timeouts == 0 {
		t.Fatal("5% loss produced no timeouts")
	}
}

// TestWireDeterministicReplay: the same seed replays the same results and
// the same wire counters.
func TestWireDeterministicReplay(t *testing.T) {
	run := func() (p2p.Metrics, []p2p.FindResult) {
		f := newWireFixture(t, 200, 0.1, 11)
		res := f.run(t, 10)
		return f.rt.Metrics, res
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 {
		t.Fatalf("same seed diverged: %+v vs %+v", m1, m2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("query %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestWireUnderChurn: with members crashing and coming back (their rings
// are the overlay's, so a rejoin only reinstalls the handler), every query
// still reports, most find a peer, and dead walk nodes and candidates are
// charged as failed reads and dead probes.
func TestWireUnderChurn(t *testing.T) {
	f := newWireFixture(t, 200, 0.02, 13)
	churn := p2p.NewChurn(f.rt, p2p.ChurnConfig{
		MeanSession:  20 * time.Second,
		MeanOffline:  5 * time.Second,
		GracefulProb: 0.5,
		Horizon:      2 * time.Minute,
	}, 99)
	churn.OnJoin = f.w.Join
	ids := make([]p2p.NodeID, len(f.members))
	for i, id := range f.members {
		ids[i] = p2p.NodeID(id)
	}
	churn.Drive(ids)
	results := f.run(t, 20)
	if churn.Leaves == 0 || churn.Joins == 0 {
		t.Fatalf("churn did not move: %d leaves, %d joins", churn.Leaves, churn.Joins)
	}
	completed, dead := 0, 0
	for _, res := range results {
		if res.Found {
			completed++
		}
		dead += res.DeadProbes + res.RPCFails
	}
	if completed < 10 {
		t.Fatalf("only %d/20 queries found a peer under churn", completed)
	}
	if dead == 0 {
		t.Fatal("churn cost no dead probes or failed ring reads")
	}
}

// TestWireFlightRecorder checks that a walk leaves trace records for the
// start measurement and the ring reads, all under the meridian scheme.
func TestWireFlightRecorder(t *testing.T) {
	f := newWireFixture(t, 300, 0, 7)
	rec := obs.NewRecorder(4096)
	f.rt.AttachRecorder(rec)
	client := p2p.NodeID(f.targets[0])
	completed := false
	f.w.FindNearest(client, func(res p2p.FindResult) { completed = res.Found })
	f.kernel.Run()
	if !completed {
		t.Fatal("query did not complete")
	}
	sawPing, sawRings := false, false
	for _, h := range rec.Snapshot() {
		if h.Scheme != "meridian" || h.Lookup != 1 || h.From != int(client) {
			t.Fatalf("unexpected hop %+v", h)
		}
		sawPing = sawPing || h.Type == p2p.MsgPing
		sawRings = sawRings || (h.Type == MsgRings && h.Outcome == obs.HopOK && h.RTTms > 0)
	}
	if !sawPing || !sawRings {
		t.Fatalf("trace has start ping %v, answered ring read %v; want both", sawPing, sawRings)
	}
}
