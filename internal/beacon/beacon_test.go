package beacon

import (
	"slices"
	"testing"
	"time"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
	"nearestpeer/internal/testmat"
)

func TestInfrastructure(t *testing.T) {
	m := testmat.Euclidean(200, 1)
	net := overlay.NewNetwork(m)
	members, _ := overlay.Split(200, 20, 2)
	inf := New(net, members, 3)
	if len(inf.Beacons()) != maxBeacons {
		t.Fatalf("beacons = %d", len(inf.Beacons()))
	}
	// Standing measurements exist for all members.
	for i := range inf.beacons {
		if len(inf.lat[i]) != len(members)-1 {
			t.Fatalf("beacon %d measured %d members", i, len(inf.lat[i]))
		}
	}
	if net.MaintProbes() == 0 {
		t.Fatal("no maintenance probes recorded")
	}
}

func TestGuytonSchwartzEuclidean(t *testing.T) {
	const n = 300
	m := testmat.Euclidean(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 30, 5)
	inf := New(net, members, 9)
	f := &GuytonSchwartz{Inf: inf}

	good := 0
	for _, tgt := range targets {
		res := f.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.LatencyMs <= 3*oracle.LatencyMs+2 {
			good++
		}
		wantProbes := int64(maxBeacons + 1)
		if res.Probes != wantProbes {
			t.Fatalf("probes = %d, want %d", res.Probes, wantProbes)
		}
	}
	if good < len(targets)/2 {
		t.Fatalf("only %d/%d triangulations near-optimal", good, len(targets))
	}
}

func TestBeaconingEuclidean(t *testing.T) {
	const n = 300
	m := testmat.Euclidean(n, 7)
	net := overlay.NewNetwork(m)
	members, targets := overlay.Split(n, 30, 5)
	inf := New(net, members, 9)
	f := &Beaconing{Inf: inf}

	good := 0
	for _, tgt := range targets {
		res := f.FindNearest(tgt)
		oracle := overlay.TrueNearest(m, tgt, members)
		if res.LatencyMs <= 3*oracle.LatencyMs+2 {
			good++
		}
		if res.Probes <= int64(maxBeacons) {
			t.Fatalf("probes = %d, expected beacon probes plus candidates", res.Probes)
		}
	}
	if good < len(targets)/2 {
		t.Fatalf("only %d/%d beaconing queries near-optimal", good, len(targets))
	}
}

func TestClusteringMakesPeersIndistinguishable(t *testing.T) {
	// Under the clustering condition all cluster peers have nearly equal
	// latencies to every beacon. With realistic measurement jitter those
	// sub-millisecond differences are unreadable, so neither scheme should
	// reliably find the same-EN partner. (Noiseless, the simulator would
	// let triangulation exploit infinite precision — exactly the
	// reliability the paper's clustering condition rules out.)
	m, gt := testmat.Clustered(100, 1000, 11)
	net := overlay.NewNetwork(m)
	net.SetNoise(0.05, 0.5, 77)
	members, targets := overlay.Split(m.N(), 80, 3)
	inf := New(net, members, 5)
	// The two schemes share the network's single noise stream, so they
	// must run in a fixed order: ranging over a map here made the draw
	// sequence — and with it the exact rate — depend on Go's randomised
	// map iteration, failing one order in two.
	finders := []struct {
		name string
		f    overlay.Finder
	}{
		{"guyton-schwartz", &GuytonSchwartz{Inf: inf}},
		{"beaconing", &Beaconing{Inf: inf}},
	}
	for _, fd := range finders {
		name, f := fd.name, fd.f
		exact := 0
		for _, tgt := range targets {
			res := f.FindNearest(tgt)
			if res.Peer >= 0 && gt.SameEN(res.Peer, tgt) {
				exact++
			}
		}
		if frac := float64(exact) / float64(len(targets)); frac > 0.45 {
			t.Fatalf("%s exact rate %v under clustering; expected failure", name, frac)
		}
	}
}

func TestSmallMembershipMakesEveryMemberABeacon(t *testing.T) {
	m := testmat.Euclidean(5, 1)
	members := []int{0, 1, 2, 3, 4}
	inf := New(overlay.NewNetwork(m), members, 3)
	got := append([]int(nil), inf.Beacons()...)
	slices.Sort(got)
	if !slices.Equal(got, members) {
		t.Fatalf("beacons = %v, want one on every member %v", got, members)
	}
}

// TestInvalidConfigPanics: an empty membership is the one input New
// rejects.
func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(overlay.NewNetwork(testmat.Euclidean(10, 1)), nil, 1)
}

// TestWireLeaderTable: every beacon serves the band and estimate
// requests from one shared table, and beacon 0 — the leader — serves them
// plus the estimation server's; a non-leader beacon drops a GS-best
// request, so it expires.
func TestWireLeaderTable(t *testing.T) {
	const n = 40
	m := testmat.Euclidean(n, 1)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	inf := New(overlay.NewNetwork(m), members, 3)
	kernel := sim.New()
	rt := p2p.New(kernel, m, p2p.Config{RPCTimeout: time.Second}, 1)
	w := NewWire(rt, inf)
	for _, id := range members {
		w.Join(p2p.NodeID(id))
	}
	isBeacon := make(map[int]bool)
	for _, b := range inf.Beacons() {
		isBeacon[b] = true
	}
	client := slices.IndexFunc(members, func(id int) bool { return !isBeacon[id] })
	q := rt.AddNode(p2p.NodeID(client))
	toBeacon := make([]float64, len(inf.Beacons()))
	answered := map[string]int{}
	expired := map[string]int{}
	ask := func(b int, typ string, payload any) {
		q.Request(p2p.NodeID(b), typ, payload, 0,
			func(p2p.Envelope) { answered[typ]++ },
			func() { expired[typ]++ })
	}
	for _, b := range inf.Beacons() {
		ask(b, MsgBand, bandMsg{ToBeacon: 10})
		ask(b, MsgEst, estMsg{IDs: []int{client}})
		ask(b, MsgGSBest, gsBestMsg{ToBeacon: toBeacon})
	}
	kernel.Run()
	nb := len(inf.Beacons())
	if answered[MsgBand] != nb || answered[MsgEst] != nb {
		t.Fatalf("band answered %d, est %d, want %d each", answered[MsgBand], answered[MsgEst], nb)
	}
	if answered[MsgGSBest] != 1 || expired[MsgGSBest] != nb-1 {
		t.Fatalf("GS-best answered %d and expired %d, want the leader alone to answer", answered[MsgGSBest], expired[MsgGSBest])
	}
}
