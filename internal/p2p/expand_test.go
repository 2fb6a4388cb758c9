package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/sim"
)

func TestExpandingFindsNearestRegistered(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(6), DefaultConfig(), 1)
	e := NewExpanding(rt, ExpandConfig{RoundTimeout: 300 * time.Millisecond})
	// Members at 20, 30, 50 ms from searcher 0; node 1 (10 ms) not a member.
	for _, id := range []NodeID{2, 3, 5} {
		e.Register(id)
	}
	var res FindResult
	e.Search(0, func(r FindResult) { res = r })
	kernel.Run()
	if !res.Found || res.Peer != 2 {
		t.Fatalf("found %v peer %d, want member 2", res.Found, res.Peer)
	}
	if res.RTTms != 20 {
		t.Fatalf("measured %v ms, want 20", res.RTTms)
	}
	// Scopes 1, 4, 16, 64: node 2 first reachable in round 4.
	if res.Hops != 4 {
		t.Fatalf("resolved in round %d, want 4", res.Hops)
	}
	if res.Probes == 0 {
		t.Fatal("no multicast copies counted")
	}
}

func TestExpandingUnfoundAfterAllRounds(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(30), DefaultConfig(), 1)
	e := NewExpanding(rt, DefaultExpandConfig())
	e.Register(29) // 290 ms away, past the last scope (256 ms)
	var res FindResult
	called := 0
	e.Search(0, func(r FindResult) { res = r; called++ })
	kernel.Run()
	if called != 1 {
		t.Fatalf("done fired %d times", called)
	}
	if res.Found || res.Peer != NoNode || res.Hops != ExpandRounds {
		t.Fatalf("unexpected result %+v", res)
	}
}

// A member answers a round whose timeout already expired (documented as
// allowed: "they still count"). The measured RTT must be taken against the
// round that sent the find, not against whatever round is open when the
// answer lands — the bug measured now-roundStart with roundStart advancing
// every round, under-reporting the RTT of every late answer.
func TestExpandingLateAnswerMeasuredAgainstItsRound(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(6), DefaultConfig(), 1)
	// Rounds close every 4 ms, long before an answer returns.
	e := NewExpanding(rt, ExpandConfig{RoundTimeout: 4 * time.Millisecond})
	e.Register(1) // 10 ms from searcher 0: round 2 (16 ms scope) first reaches it
	var res FindResult
	e.Search(0, func(r FindResult) { res = r })
	kernel.Run()
	if !res.Found || res.Peer != 1 {
		t.Fatalf("found=%v peer=%d, want member 1", res.Found, res.Peer)
	}
	// Round 2 sent the find at t=8 ms; the answer arrives at t=18 ms, in
	// round 4. With the bug the RTT was measured against round 4's start
	// (t=16 ms) as 2 ms.
	if res.RTTms != 10 {
		t.Fatalf("late answer measured as %v ms, want 10 (its own round's send time)", res.RTTms)
	}
	if res.Hops != 5 {
		t.Fatalf("resolved after %d rounds, want 5", res.Hops)
	}
}

func TestExpandingSkipsCrashedAndDeregistered(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(6), DefaultConfig(), 1)
	e := NewExpanding(rt, ExpandConfig{RoundTimeout: 500 * time.Millisecond})
	for _, id := range []NodeID{1, 2, 3} {
		e.Register(id)
	}
	rt.Node(1).Stop() // crashed: silent
	e.Deregister(2)   // graceful: no longer subscribed
	var res FindResult
	e.Search(0, func(r FindResult) { res = r })
	kernel.Run()
	if res.Peer != 3 {
		t.Fatalf("peer %d, want 3", res.Peer)
	}
}

// The function-call rule and the message protocol are one search: on a
// lossless wire whose answers land inside their round, ExpandRing with the
// multicast scope as its reach returns the wire's peer, RTT, rounds and
// copies.
func TestExpandRingMatchesWire(t *testing.T) {
	m := lineMatrix(6)
	kernel := sim.New()
	rt := New(kernel, m, DefaultConfig(), 1)
	e := NewExpanding(rt, ExpandConfig{RoundTimeout: 300 * time.Millisecond})
	members := []NodeID{5, 3, 2} // at 50, 30, 20 ms from searcher 0
	for _, id := range members {
		e.Register(id)
	}
	var wire FindResult
	e.Search(0, func(r FindResult) { wire = r })
	kernel.Run()

	static := ExpandRing(ExpandRounds, len(members), func(round, j int) (float64, bool) {
		d := m.LatencyMs(0, int(members[j]))
		return d, d <= ExpandRadius(round)
	})
	if !static.Found || members[static.Peer] != wire.Peer || static.RTTms != wire.RTTms ||
		static.Hops != wire.Hops || static.Probes != wire.Probes {
		t.Fatalf("rule found %v peer %d (%v ms, %d rounds, %d copies); wire %+v",
			static.Found, members[static.Peer], static.RTTms, static.Hops, static.Probes, wire)
	}
}

func TestExpandRingRule(t *testing.T) {
	// Candidate RTTs; round r reaches RTTs under 10*(r+1).
	rtts := []float64{25, 7, 15, 7, 40}
	reach := func(round, j int) (float64, bool) { return rtts[j], rtts[j] < float64(10*(round+1)) }
	r := ExpandRing(5, len(rtts), reach)
	// Round 0 reaches candidates 1 and 3 (a tie at 7 ms: the lower index
	// wins) and ends the search.
	if !r.Found || r.Peer != 1 || r.RTTms != 7 || r.Hops != 1 || r.Probes != 2 {
		t.Fatalf("got %+v, want candidate 1 at 7 ms after 1 round and 2 copies", r)
	}
	// Nobody inside 10 ms: round 1 reaches 1, 2 and 3 and picks the nearest.
	rtts[1], rtts[3] = 12, 11
	if r := ExpandRing(5, len(rtts), reach); r.Peer != 3 || r.Hops != 2 || r.Probes != 3 {
		t.Fatalf("got %+v, want candidate 3 after 2 rounds and 3 copies", r)
	}
	// Nobody reachable: every round runs, nothing is sent.
	none := ExpandRing(3, len(rtts), func(int, int) (float64, bool) { return 0, false })
	if none.Found || none.Peer != NoNode || none.Hops != 3 || none.Probes != 0 {
		t.Fatalf("unreachable search got %+v", none)
	}
}

// TestExpandingTableClientAndResponder: a responder that also searches
// serves one table holding both roles — it still answers other clients'
// finds and receives its own reports — and every node holding both roles
// reads the same table.
func TestExpandingTableClientAndResponder(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(6), DefaultConfig(), 1)
	e := NewExpanding(rt, ExpandConfig{RoundTimeout: 300 * time.Millisecond})
	for _, id := range []NodeID{2, 3, 5} {
		e.Register(id)
	}
	var first, second, third FindResult
	e.Search(3, func(r FindResult) { first = r }) // responder 3 searches: 2 is nearest
	kernel.Run()
	e.Search(2, func(r FindResult) { second = r }) // and responder 2
	kernel.Run()
	e.Search(0, func(r FindResult) { third = r }) // a client-only node still reaches 2
	kernel.Run()
	if first.Peer != 2 || second.Peer != 3 || third.Peer != 2 {
		t.Fatalf("peers %d, %d, %d, want 2, 3, 2", first.Peer, second.Peer, third.Peer)
	}
	both := rt.Node(2).table
	if rt.Node(3).table != both || both == e.responder || both == e.client {
		t.Fatal("the two client-responders do not share one two-role table")
	}
	if rt.Node(0).table != e.client || rt.Node(5).table != e.responder {
		t.Fatal("a one-role node does not serve its role's table")
	}
}
