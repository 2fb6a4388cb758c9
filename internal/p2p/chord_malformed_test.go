package p2p

// Malformed-frame robustness for chord on a live transport. A datagram's
// type tag, payload and header NodeIDs are whatever the sender wrote, so
// every chord handler and reply callback must survive a frame typed for it
// with no payload or the wrong one, and a NodeID outside the population
// anywhere a handler would use it as a ring position. Each such frame is
// dropped and counted in MsgsDead; the node keeps serving.

import (
	"testing"
	"time"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// TestChordSurvivesMalformedFrames delivers each bad frame to a member of a
// small Loopback ring, as the UDP read loop would after decoding it, and
// checks that every one is counted dead and that the ring still resolves
// a put and a get afterwards.
func TestChordSurvivesMalformedFrames(t *testing.T) {
	const pop = 6 // members 0..4; node 5 is a non-member client
	lb := NewLoopback(lineMatrix(pop), Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 20 * time.Millisecond
	cfg.RPCTimeout = 300 * time.Millisecond
	ch := NewChord(lb, cfg, 3)
	for i := 0; i < pop-1; i++ {
		id := NodeID(i)
		lb.Do(func() { ch.Join(id) })
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // a dozen stabilize rounds

	// parked returns the MsgID of n's newest parked request.
	parked := func(n *Node) uint64 {
		if len(n.inflight) == 0 {
			t.Fatalf("node %d has no request parked", n.ID)
		}
		return n.inflight[len(n.inflight)-1].id
	}
	foreign := NodeID(pop + 1000)
	cases := []struct {
		name  string
		frame func() (*Node, Envelope)
	}{
		{"find without payload", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordFind, From: 1, To: 0, MsgID: 1 << 40}
		}},
		{"store with a fetch payload", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordStore, From: 1, To: 0, MsgID: 1 << 40, Payload: cFetchMsg{Key: "k"}}
		}},
		{"store replica without payload", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordStoreRep, From: 1, To: 0}
		}},
		{"fetch without payload", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordFetch, From: 1, To: 0, MsgID: 1 << 40}
		}},
		{"handoff with a find payload", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordHandoff, From: 1, To: 0, Payload: cFindMsg{Key: 9}}
		}},
		{"notify from outside the population", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordNotify, From: foreign, To: 0}
		}},
		{"migrate from a negative id", func() (*Node, Envelope) {
			return lb.Node(0), Envelope{Type: MsgChordMigrate, From: -7, To: 0, MsgID: 1 << 40}
		}},
		{"lookup hop answered with the wrong payload", func() (*Node, Envelope) {
			ch.Lookup(5, "malformed/a", func(LookupResult) {})
			n := lb.Node(5)
			return n, Envelope{Type: MsgChordFindOK, From: 0, To: 5, MsgID: parked(n), Resp: true, Payload: cFetchOKMsg{}}
		}},
		{"lookup hop answered without payload", func() (*Node, Envelope) {
			ch.Lookup(5, "malformed/b", func(LookupResult) {})
			n := lb.Node(5)
			return n, Envelope{Type: MsgChordFindOK, From: 0, To: 5, MsgID: parked(n), Resp: true}
		}},
		{"lookup hop naming a next hop outside the population", func() (*Node, Envelope) {
			ch.Lookup(5, "malformed/c", func(LookupResult) {})
			n := lb.Node(5)
			return n, Envelope{Type: MsgChordFindOK, From: 0, To: 5, MsgID: parked(n), Resp: true,
				Payload: cFindOKMsg{Next: foreign, Owner: NoNode, Alts: []NodeID{1}}}
		}},
		{"lookup answer naming a replica outside the population", func() (*Node, Envelope) {
			ch.Lookup(5, "malformed/d", func(LookupResult) {})
			n := lb.Node(5)
			return n, Envelope{Type: MsgChordFindOK, From: 0, To: 5, MsgID: parked(n), Resp: true,
				Payload: cFindOKMsg{Done: true, Owner: 1, Reps: []NodeID{2, -3}, Next: NoNode}}
		}},
		{"stabilize answered with a predecessor outside the population", func() (*Node, Envelope) {
			st := ch.state(0)
			ch.stabilizeSucc(0, st, 1)
			n := lb.Node(0)
			return n, Envelope{Type: MsgChordStateOK, From: st.succs[0], To: 0, MsgID: parked(n), Resp: true,
				Payload: cStateOKMsg{Pred: foreign, Succs: []NodeID{1}}}
		}},
		{"stabilize answered with the wrong payload", func() (*Node, Envelope) {
			st := ch.state(0)
			ch.stabilizeSucc(0, st, 1)
			n := lb.Node(0)
			return n, Envelope{Type: MsgChordStateOK, From: st.succs[0], To: 0, MsgID: parked(n), Resp: true, Payload: cFindMsg{}}
		}},
		{"get answered with the wrong payload", func() (*Node, Envelope) {
			// Whichever request the get has parked — a lookup hop or the
			// fetch itself — a state answer is wrong for it.
			ch.Get(5, "malformed/e", func(OpResult) {})
			n := lb.Node(5)
			return n, Envelope{Type: MsgChordFetchOK, From: 0, To: 5, MsgID: parked(n), Resp: true, Payload: cStateOKMsg{}}
		}},
	}
	for _, tc := range cases {
		var before, after int64
		lb.Do(func() {
			n, env := tc.frame()
			before = lb.metrics.MsgsDead
			n.deliver(env)
			after = lb.metrics.MsgsDead
		})
		if after != before+1 {
			t.Errorf("%s: MsgsDead %d -> %d, want one dead frame", tc.name, before, after)
		}
	}

	// The members still serve: a put and a get from the client resolve.
	put := make(chan OpResult, 1)
	lb.Do(func() { ch.Put(5, "after", []byte("v"), func(r OpResult) { put <- r }) })
	if r := <-put; !r.OK {
		t.Fatalf("put after the malformed frames failed: %+v", r)
	}
	get := make(chan OpResult, 1)
	lb.Do(func() { ch.Get(5, "after", func(r OpResult) { get <- r }) })
	if r := <-get; !r.OK || len(r.Vals) != 1 || string(r.Vals[0]) != "v" {
		t.Fatalf("get after the malformed frames: %+v", r)
	}
	lb.Do(func() {
		for i := 0; i < pop; i++ {
			if !lb.Node(NodeID(i)).Alive() {
				t.Errorf("node %d is down", i)
			}
		}
	})
}

// fuzzDeliverPop is the fuzz ring's population: members 0..6 and one
// non-member client, node 7, whose lookup is parked when a frame lands.
const fuzzDeliverPop = 8

// FuzzChordDeliver decodes arbitrary bytes as a frame and delivers it to a
// freshly settled chord ring, as the UDP read loop would. A request frame
// goes to member 0; a response frame is aimed at the client's parked
// lookup hop (its MsgID rewritten to match), so every chord handler and
// reply callback sees whatever payload and NodeIDs the bytes carry. The
// ring must neither panic nor leak: after the frame the kernel drains, and
// the accounting identity holds with the frame counted as one arrival —
// delivered, or moved to dead when chord drops it.
//
// The simulator prices every reply from the latency matrix, so a request
// from outside the population can only be fed to chord's own handlers
// (whose boundary check drops it); the runtime's built-in ping handler
// would ask the matrix for a link that does not exist, where a real
// transport just counts an unroutable reply dead.
func FuzzChordDeliver(f *testing.F) {
	for i, env := range fuzzChordFrames() {
		b, err := EncodeEnvelope(env)
		if err != nil {
			f.Fatalf("seed %d (%s): %v", i, env.Type, err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return // the read loop counts an undecodable frame dead itself
		}
		kernel, rt := fuzzDeliverRing()
		to := rt.Node(0)
		if env.Resp {
			to = rt.Node(fuzzDeliverPop - 1)
			if k := len(to.inflight); k > 0 {
				env.MsgID = to.inflight[k-1].id
			}
		} else if !isChordType(env.Type) {
			return
		}
		// As the read loop does: the frame arrives, counted delivered.
		env.To = to.ID
		to.Metrics().MsgsDelivered++
		to.deliver(env)
		kernel.Run()
		if rt.InflightEnvelopes() != 0 {
			t.Fatalf("%d envelopes still parked after the drain", rt.InflightEnvelopes())
		}
		// The injected frame is the one arrival nobody sent.
		m := rt.TotalMetrics()
		if m.MsgsSent+1 != m.MsgsDelivered+m.MsgsLost+m.MsgsDead {
			t.Fatalf("accounting identity: sent=%d delivered=%d lost=%d dead=%d", m.MsgsSent, m.MsgsDelivered, m.MsgsLost, m.MsgsDead)
		}
	})
}

// isChordType reports whether typ is one of chord's request types.
func isChordType(typ string) bool {
	switch typ {
	case MsgChordFind, MsgChordState, MsgChordNotify, MsgChordStore, MsgChordStoreRep,
		MsgChordFetch, MsgChordHandoff, MsgChordMigrate:
		return true
	}
	return false
}

// fuzzDeliverRing stands up members 0..6 on a serial kernel, lets the ring
// settle, and leaves the client's lookup hop parked: the kernel's queue
// holds that hop's delivery and expiry and the ring's remaining
// maintenance, all bounded by the config's horizon.
func fuzzDeliverRing() (*sim.Sim, *Runtime) {
	m := latency.NewDense(fuzzDeliverPop)
	for i := 0; i < fuzzDeliverPop; i++ {
		for j := i + 1; j < fuzzDeliverPop; j++ {
			m.Set(i, j, float64(4+(i*7+j*3)%11))
		}
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: time.Second}, 1)
	cfg := chordTestConfig(8 * time.Second)
	ch := NewChord(rt, cfg, 1)
	for i := 0; i < fuzzDeliverPop-1; i++ {
		id := NodeID(i)
		kernel.After(time.Duration(i)*10*time.Millisecond, func() { ch.Join(id) })
	}
	kernel.RunUntil(5 * time.Second)
	ch.Put(0, "fuzz/k", []byte("v"), func(OpResult) {})
	kernel.RunUntil(6 * time.Second)
	ch.Lookup(fuzzDeliverPop-1, "fuzz/q", func(LookupResult) {})
	return kernel, rt
}

// fuzzChordFrames seeds FuzzChordDeliver: one well-formed frame per chord
// message type, and the malformed shapes TestChordSurvivesMalformedFrames
// pins — missing and wrong payloads, NodeIDs outside the population.
func fuzzChordFrames() []Envelope {
	out := []Envelope{
		{Type: MsgChordFind, From: 3, Payload: cFindMsg{Key: dht.HashKey("fuzz/k")}},
		{Type: MsgChordState, From: 2},
		{Type: MsgChordNotify, From: 5},
		{Type: MsgChordStore, From: 1, Payload: cStoreMsg{Key: "fuzz/x", Val: []byte("y"), Rep: 2}},
		{Type: MsgChordStoreRep, From: 1, Payload: cStoreMsg{Key: "fuzz/x", Val: []byte("y")}},
		{Type: MsgChordFetch, From: 4, Payload: cFetchMsg{Key: "fuzz/k"}},
		{Type: MsgChordHandoff, From: 6, Payload: cHandoffMsg{Data: map[string][][]byte{"fuzz/h": {[]byte("z")}}}},
		{Type: MsgChordMigrate, From: 7},
		{Type: MsgChordFindOK, From: 2, Resp: true, Payload: cFindOKMsg{Next: 3, Owner: NoNode, Alts: []NodeID{4, 5}}},
		{Type: MsgChordFindOK, From: 2, Resp: true, Payload: cFindOKMsg{Done: true, Owner: 3, Reps: []NodeID{4}, Next: NoNode}},
		{Type: MsgChordFind, From: 3},
		{Type: MsgChordStore, From: 3, Payload: cFetchMsg{Key: "k"}},
		{Type: MsgChordNotify, From: 1 << 20},
		{Type: MsgChordMigrate, From: -9},
		{Type: MsgChordFindOK, From: 2, Resp: true},
		{Type: MsgChordFindOK, From: 2, Resp: true, Payload: cFetchOKMsg{}},
		{Type: MsgChordFindOK, From: 2, Resp: true, Payload: cFindOKMsg{Next: 1 << 30, Owner: NoNode}},
		{Type: MsgChordFindOK, From: 2, Resp: true, Payload: cFindOKMsg{Done: true, Owner: -5, Next: NoNode}},
		{Type: MsgChordStateOK, From: 2, Resp: true, Payload: cStateOKMsg{Pred: 99, Succs: []NodeID{-4}}},
	}
	for i := range out {
		out[i].To, out[i].MsgID = 0, uint64(100+i)
	}
	return out
}
