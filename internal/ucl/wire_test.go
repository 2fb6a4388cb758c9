package ucl

import (
	"math"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// wireFixture stands up the same hint population twice: once in the static
// System and once over the message runtime (Chord ring + wire publishes),
// with a zero-noise toolkit so the published entries are bit-identical and
// the candidate machinery can be compared exactly.
type wireFixture struct {
	top    *netmodel.Topology
	kernel *sim.Sim
	rt     *p2p.Runtime
	wire   *Wire
	sys    *System
	peers  []netmodel.HostID
}

func newWireFixture(t *testing.T, loss float64) *wireFixture {
	t.Helper()
	top := netmodel.Generate(netmodel.DefaultConfig(), 4)
	tools := measure.NewTools(top, measure.Config{}, 9) // zero noise: entries identical across deployments

	var peers []netmodel.HostID
	for i := range top.Hosts {
		if top.Hosts[i].RespondsTCP && top.Hosts[i].DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
		if len(peers) == 72 {
			break
		}
	}
	if len(peers) < 50 {
		t.Fatalf("fixture has only %d responsive peers", len(peers))
	}
	vs, err := measure.SelectVantages(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]netmodel.HostID, len(vs))
	for i, v := range vs {
		anchors[i] = v.Host
	}

	// Static deployment.
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = top.Host(p).IP.String()
	}
	sys := New(tools, addrs, anchors, DefaultConfig())
	for _, p := range peers {
		sys.Join(p)
	}

	// Message-level deployment over the same hosts.
	kernel := sim.New()
	rt := p2p.New(kernel, &latency.TopologyMatrix{Top: top, Hosts: peers}, p2p.Config{LossProb: loss, RPCTimeout: time.Second}, 1)
	ccfg := p2p.DefaultChordConfig()
	ccfg.StabilizeEvery = 500 * time.Millisecond
	ccfg.Horizon = 30 * time.Second
	chord := p2p.NewChord(rt, ccfg, 7)
	for i := range peers {
		id := p2p.NodeID(i)
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { chord.Join(id) })
	}
	kernel.Run()
	wire := NewWire(tools, chord, peers, anchors, DefaultConfig())
	var publish func(i int)
	publish = func(i int) {
		if i >= len(peers) {
			return
		}
		wire.Publish(peers[i], func(int) { publish(i + 1) })
	}
	publish(0)
	kernel.Run()
	return &wireFixture{top: top, kernel: kernel, rt: rt, wire: wire, sys: sys, peers: peers}
}

func TestWireFindNearestMatchesStaticLossless(t *testing.T) {
	f := newWireFixture(t, 0)
	agreeingQueries := 0
	for _, p := range f.peers[:12] {
		static := f.sys.FindNearest(p)
		var got p2p.FindResult
		f.wire.FindNearest(p, func(r p2p.FindResult) { got = r })
		f.kernel.Run()
		// Both legs probe every candidate that survives the estimate
		// cutoff (up to maxProbes), so equal probe counts mean the wire saw
		// and discarded what the static system did.
		if got.Probes != static.Probes {
			t.Errorf("peer %d: wire probed %d candidates, static %d (of %d, %d discarded)",
				p, got.Probes, static.Probes, static.Candidates, static.Discarded)
		}
		if got.RPCs != static.Lookups {
			t.Errorf("peer %d: wire issued %d lookups, static %d", p, got.RPCs, static.Lookups)
		}
		if got.Found != (static.Peer >= 0) {
			t.Errorf("peer %d: wire found=%v, static peer=%d", p, got.Found, static.Peer)
		}
		if got.RPCFails != 0 || got.DeadProbes != 0 {
			t.Errorf("peer %d: lossless run had %d lookup failures, %d dead probes", p, got.RPCFails, got.DeadProbes)
		}
		if got.Found {
			agreeingQueries++
			// Wire pings measure the matrix RTT at nanosecond resolution.
			if want := f.top.RTTms(p, f.peers[got.Peer]); math.Abs(got.RTTms-want) > 1e-6 {
				t.Errorf("peer %d: wire RTT %v to %d, matrix says %v", p, got.RTTms, got.Peer, want)
			}
		}
	}
	if agreeingQueries == 0 {
		t.Fatal("no query found any candidate — fixture degenerate")
	}
}

func TestWireStaleHintCostsDeadProbe(t *testing.T) {
	f := newWireFixture(t, 0)
	// Find a querier that resolves somebody, then crash that somebody: its
	// published hints stay in the DHT, so the next query still pays a probe
	// for it and must fall through to another candidate (or nothing).
	for _, p := range f.peers[:20] {
		var first p2p.FindResult
		f.wire.FindNearest(p, func(r p2p.FindResult) { first = r })
		f.kernel.Run()
		if !first.Found {
			continue
		}
		f.rt.Node(first.Peer).Stop()
		var second p2p.FindResult
		f.wire.FindNearest(p, func(r p2p.FindResult) { second = r })
		f.kernel.Run()
		if second.DeadProbes == 0 {
			t.Fatalf("peer %d: stale hint for crashed %d did not cost a dead probe: %+v", p, first.Peer, second)
		}
		if second.Found && second.Peer == first.Peer {
			t.Fatalf("peer %d: crashed node %d still returned", p, first.Peer)
		}
		return
	}
	t.Skip("no querier resolved a candidate in this fixture")
}
