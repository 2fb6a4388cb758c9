package ipprefix

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

// The wire deployment must agree with the static one in a lossless world:
// same prefix buckets, same candidate sets, and pings that measure the
// matrix RTT exactly.
func TestWirePrefixMatchesStaticLossless(t *testing.T) {
	top := netmodel.Generate(netmodel.DefaultConfig(), 4)
	tools := measure.NewTools(top, measure.Config{}, 9)

	var peers []netmodel.HostID
	for i := range top.Hosts {
		if top.Hosts[i].RespondsTCP && top.Hosts[i].DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
		if len(peers) == 64 {
			break
		}
	}
	if len(peers) < 40 {
		t.Fatalf("fixture has only %d responsive peers", len(peers))
	}
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = top.Host(p).IP.String()
	}
	sys := New(tools, addrs)
	for _, p := range peers {
		sys.Join(p)
	}

	kernel := sim.New()
	rt := p2p.New(kernel, &latency.TopologyMatrix{Top: top, Hosts: peers}, p2p.Config{RPCTimeout: time.Second}, 1)
	ccfg := p2p.DefaultChordConfig()
	ccfg.StabilizeEvery = 500 * time.Millisecond
	ccfg.Horizon = 25 * time.Second
	chord := p2p.NewChord(rt, ccfg, 7)
	for i := range peers {
		id := p2p.NodeID(i)
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { chord.Join(id) })
	}
	kernel.Run()
	wire := NewWire(tools, chord, peers)
	var publish func(i int)
	publish = func(i int) {
		if i >= len(peers) {
			return
		}
		wire.Publish(peers[i], func(bool) { publish(i + 1) })
	}
	publish(0)
	kernel.Run()

	withCandidates := 0
	for _, p := range peers[:16] {
		static := sys.FindNearest(p)
		var got p2p.FindResult
		wire.FindNearest(p, func(r p2p.FindResult) { got = r })
		kernel.Run()
		// maxProbes covers every other peer, so every bucket candidate is
		// probed: the probe count is the bucket's candidate count.
		if got.Probes != static.Candidates {
			t.Errorf("peer %d: wire probed %d bucket candidates, static bucket has %d", p, got.Probes, static.Candidates)
		}
		if got.Found != (static.Peer >= 0) {
			t.Errorf("peer %d: wire found=%v, static peer=%d", p, got.Found, static.Peer)
		}
		if got.Found {
			withCandidates++
			// Wire pings measure the matrix RTT at nanosecond resolution.
			if want := top.RTTms(p, peers[got.Peer]); math.Abs(got.RTTms-want) > 1e-6 {
				t.Errorf("peer %d: wire RTT %v to %d, matrix says %v", p, got.RTTms, got.Peer, want)
			}
		}
	}
	if withCandidates == 0 {
		t.Fatal("no prefix bucket produced candidates — fixture degenerate")
	}

	// Republish must not inflate candidate counts: duplicates collapse.
	target := peers[0]
	var before p2p.FindResult
	wire.FindNearest(target, func(r p2p.FindResult) { before = r })
	kernel.Run()
	wire.Publish(target, nil)
	kernel.Run()
	var after p2p.FindResult
	wire.FindNearest(target, func(r p2p.FindResult) { after = r })
	kernel.Run()
	if after.Probes != before.Probes {
		t.Fatalf("republish changed candidate count: %d -> %d probes", before.Probes, after.Probes)
	}
}
