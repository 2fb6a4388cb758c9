package ucl

import (
	"fmt"
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
)

type fixture struct {
	top   *netmodel.Topology
	tools *measure.Tools
	sys   *System
	peers []netmodel.HostID
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	top := netmodel.Generate(netmodel.DefaultConfig(), 4)
	tools := measure.NewTools(top, measure.DefaultConfig(), 9)

	// Peers: all TCP-responsive hosts (they must answer probes).
	var peers []netmodel.HostID
	for i := range top.Hosts {
		if top.Hosts[i].RespondsTCP && top.Hosts[i].DNS == nil {
			peers = append(peers, netmodel.HostID(i))
		}
	}
	if len(peers) < 50 {
		t.Fatalf("fixture has only %d responsive peers", len(peers))
	}
	nodes := make([]string, len(peers))
	for i, p := range peers {
		nodes[i] = top.Host(p).IP.String()
	}
	vs, err := measure.SelectVantages(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]netmodel.HostID, len(vs))
	for i, v := range vs {
		anchors[i] = v.Host
	}
	sys := New(tools, nodes, anchors, cfg)
	for _, p := range peers {
		sys.Join(p)
	}
	return &fixture{top: top, tools: tools, sys: sys, peers: peers}
}

func TestComputeUCLTracksUpstreamChain(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	checked := 0
	for _, p := range f.peers[:20] {
		pubs := f.sys.ComputeUCL(p)
		if len(pubs) == 0 {
			continue // all upstream routers anonymous — possible, rare
		}
		if len(pubs) > DefaultConfig().TrackDepth {
			t.Fatalf("UCL longer than TrackDepth: %d", len(pubs))
		}
		// The first tracked router must lie on the peer's own access
		// chain (or be its PoP core) — it is upstream of the peer.
		en := f.top.HostEN(p)
		first := pubs[0].Router
		onChain := false
		for _, r := range en.Chain {
			if r == first {
				onChain = true
			}
		}
		for _, r := range f.top.PoP(en.PoP).Core {
			if r == first {
				onChain = true
			}
		}
		if !onChain {
			t.Fatalf("peer %d first UCL router %d not upstream", p, first)
		}
		for _, pub := range pubs {
			if pub.Entry.RTTms <= 0 {
				t.Fatalf("non-positive router RTT %v", pub.Entry.RTTms)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no UCLs computed")
	}
}

func TestSameENPeersShareUCLRouters(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// Find two peers in one end-network with a responding edge router.
	var a, b netmodel.HostID = -1, -1
	for i, p := range f.peers {
		for _, q := range f.peers[i+1:] {
			if f.top.SameEN(p, q) {
				en := f.top.HostEN(p)
				if e := en.EdgeRouter(); e != netmodel.NoRouter && !f.top.Router(e).Anonymous {
					a, b = p, q
					break
				}
			}
		}
		if a >= 0 {
			break
		}
	}
	if a < 0 {
		t.Skip("no same-EN responsive pair with visible edge router")
	}
	ra := map[netmodel.RouterID]bool{}
	for _, pub := range f.sys.ComputeUCL(a) {
		ra[pub.Router] = true
	}
	shared := false
	for _, pub := range f.sys.ComputeUCL(b) {
		if ra[pub.Router] {
			shared = true
		}
	}
	if !shared {
		t.Fatal("same-EN peers share no UCL router")
	}
}

func TestFindNearestDiscoversSameENPeer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// For peers that have a same-EN partner with a visible edge router,
	// the UCL query should find a sub-millisecond peer most of the time —
	// the paper's headline claim for this mechanism.
	attempts, hits := 0, 0
	for _, p := range f.peers {
		var partner netmodel.HostID = -1
		for _, q := range f.peers {
			if q != p && f.top.SameEN(p, q) {
				partner = q
				break
			}
		}
		if partner < 0 {
			continue
		}
		en := f.top.HostEN(p)
		if e := en.EdgeRouter(); e == netmodel.NoRouter || f.top.Router(e).Anonymous {
			continue
		}
		attempts++
		res := f.sys.FindNearest(p)
		if res.Peer >= 0 && f.top.SameEN(p, res.Peer) {
			hits++
		}
		if attempts >= 40 {
			break
		}
	}
	if attempts < 5 {
		t.Skipf("only %d eligible peers", attempts)
	}
	if frac := float64(hits) / float64(attempts); frac < 0.6 {
		t.Fatalf("UCL found the same-EN peer only %.0f%% of the time (%d/%d)",
			frac*100, hits, attempts)
	}
}

func TestEstimateDiscardsFarPeers(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	discarded := 0
	for _, p := range f.peers[:30] {
		res := f.sys.FindNearest(p)
		discarded += res.Discarded
		if res.Probes > maxProbes {
			t.Fatalf("probes %d exceed cap", res.Probes)
		}
	}
	if discarded == 0 {
		t.Fatal("estimate-based discarding never triggered")
	}
}

func TestLeaveWithdrawsMappings(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	victim := f.peers[0]
	pubs := f.sys.ComputeUCL(victim)
	if len(pubs) == 0 {
		t.Skip("victim has invisible upstream")
	}
	f.sys.Leave(victim)
	for _, pub := range pubs {
		for _, v := range f.sys.Ring().Get(fmt.Sprintf("ucl/router/%d", pub.Router)) {
			e, err := decodeEntry(v)
			if err == nil && e.Peer == victim {
				t.Fatal("mapping survived Leave")
			}
		}
	}
}

func TestEntryCodec(t *testing.T) {
	e := Entry{Peer: 12345, RTTms: 3.25}
	got, err := decodeEntry(e.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round-trip %+v != %+v", got, e)
	}
	if _, err := decodeEntry([]byte{1, 2}); err == nil {
		t.Fatal("malformed entry accepted")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.TrackDepth = 0
	New(nil, []string{"a"}, []netmodel.HostID{0}, cfg)
}
