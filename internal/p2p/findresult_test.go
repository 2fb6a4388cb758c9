package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/obs"
)

// The query bill on a 4-node line (rtt(i,j) = 10·|i−j| ms), client node 0.

func TestQueryPingToStoppedNodeChargesDeadProbe(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	q := NewQuery(rt.AddNode(0), "test", 0)
	rt.AddNode(2).Stop()
	fired := 0
	q.Ping(2, func(rtt float64, ok bool) {
		fired++
		if ok {
			t.Errorf("ping to a stopped node answered in %v ms", rtt)
		}
	})
	kernel.Run()
	if fired != 1 || q.Res.Probes != 1 || q.Res.DeadProbes != 1 || q.Res.RPCs != 0 {
		t.Fatalf("fired %d, bill %+v: want one probe, one dead probe", fired, q.Res)
	}
	if rt.Metrics.QueryProbes != 1 {
		t.Fatalf("node metrics count %d query probes, want 1", rt.Metrics.QueryProbes)
	}
}

func TestQueryCallToStoppedNodeChargesRPCFail(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	q := NewQuery(rt.AddNode(0), "test", 0)
	rt.AddNode(3).Stop()
	failed := 0
	q.Call(3, "list", nil, func(Envelope) { t.Error("a stopped node answered") }, func() { failed++ })
	kernel.Run()
	if failed != 1 || q.Res.RPCs != 1 || q.Res.RPCFails != 1 || q.Res.Probes != 0 {
		t.Fatalf("failed %d, bill %+v: want one RPC, one RPC failure", failed, q.Res)
	}
}

// TestQueryRetryScope: on a transport whose Config.Retry is armed, a Call
// retries and a Ping does not. A Call to a stopped node is one RPC and one
// RPC failure however many attempts it spent, each extra attempt charged to
// the transport's Retries; a Ping to it is one probe, one dead probe and no
// retry.
func TestQueryRetryScope(t *testing.T) {
	pol := Policy{Attempts: 3, BaseBackoff: 100 * time.Millisecond}
	kernel, rt := newRetryRuntime(t, 4, pol, nil)
	rt.AddNode(3).Stop()
	call := NewQuery(rt.AddNode(0), "test", 0)
	failed := 0
	call.Call(3, "list", nil, func(Envelope) { t.Error("a stopped node answered") }, func() { failed++ })
	kernel.Run()
	if failed != 1 || call.Res.RPCs != 1 || call.Res.RPCFails != 1 {
		t.Fatalf("failed %d, bill %+v: want one RPC, one RPC failure", failed, call.Res)
	}
	if got, want := rt.Metrics.Retries, int64(pol.Attempts-1); got != want {
		t.Fatalf("Call charged %d retries, want %d", got, want)
	}

	ping := NewQuery(rt.Node(0), "test", 0)
	ping.Ping(3, func(_ float64, ok bool) {
		if ok {
			t.Error("ping to a stopped node answered")
		}
	})
	kernel.Run()
	if ping.Res.Probes != 1 || ping.Res.DeadProbes != 1 {
		t.Fatalf("ping bill %+v: want one probe, one dead probe", ping.Res)
	}
	if got := rt.Metrics.Retries - int64(pol.Attempts-1); got != 0 {
		t.Errorf("Ping charged %d retries, want 0", got)
	}
}

func TestQueryProbeCarriesAnswer(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	q := NewQuery(rt.AddNode(0), "test", 0)
	rt.AddNode(1).Handle("coord", func(n *Node, env Envelope) { n.Reply(env, "coord_ok", "c1") })
	var got any
	var rtt float64
	q.Probe(1, "coord", func(env Envelope, ms float64, ok bool) { got, rtt = env.Payload, ms })
	kernel.Run()
	if got != "c1" || rtt != 10 || q.Res.Probes != 1 || q.Res.DeadProbes != 0 || q.Res.RPCs != 0 {
		t.Fatalf("probe answered %v in %v ms, bill %+v", got, rtt, q.Res)
	}
}

func TestQuerySweepsKeepBest(t *testing.T) {
	// Client 2 on a 5-node line: 1 and 3 are both 10 ms away, 0 and 4 20 ms.
	kernel, rt := newTestRuntime(t, 5, 0)
	q := NewQuery(rt.AddNode(2), "test", 0)
	for _, id := range []NodeID{0, 1, 3, 4} {
		rt.AddNode(id)
	}
	type own struct {
		best NodeID
		rtt  float64
		ok   bool
	}
	var owns []own
	sweeps := [][]NodeID{
		{4, 3, 1}, // 3 beats 4, and the tie with 1 keeps 3
		{0},       // farther: the answer stays 3
		{1},       // a tie across sweeps keeps the earlier answer too
		nil,       // an empty sweep finds nothing and keeps it
	}
	var next func(i int)
	next = func(i int) {
		if i < len(sweeps) {
			q.Sweep(sweeps[i], func(b NodeID, r float64, ok bool) {
				owns = append(owns, own{b, r, ok})
				next(i + 1)
			})
		}
	}
	next(0)
	kernel.Run()
	want := []own{{3, 10, true}, {0, 20, true}, {1, 10, true}, {NoNode, 0, false}}
	if len(owns) != len(want) {
		t.Fatalf("sweeps reported %v, want %v", owns, want)
	}
	for i := range want {
		if owns[i] != want[i] {
			t.Fatalf("sweep %d reported %+v, want %+v", i, owns[i], want[i])
		}
	}
	if !q.Res.Found || q.Res.Peer != 3 || q.Res.RTTms != 10 || q.Res.Probes != 5 || q.Res.DeadProbes != 0 {
		t.Fatalf("answer %+v: want peer 3 at 10 ms after 5 probes", q.Res)
	}
}

func TestQueryCallbacksStopWithClient(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	client := rt.AddNode(0)
	q := NewQuery(client, "test", 0)
	rt.AddNode(1).Handle("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) })
	rt.AddNode(2).Stop()
	fired := 0
	q.Ping(1, func(float64, bool) { fired++ })
	q.Ping(2, func(float64, bool) { fired++ })
	q.Call(1, "list", nil, func(Envelope) { fired++ }, func() { fired++ })
	q.Sweep([]NodeID{1, 2}, func(NodeID, float64, bool) { fired++ })
	client.Stop()
	kernel.Run()
	if fired != 0 {
		t.Fatalf("%d callbacks fired after the client stopped", fired)
	}
	if q.Res.Probes != 3 || q.Res.DeadProbes != 0 || q.Res.RPCs != 1 || q.Res.RPCFails != 0 || q.Res.Found {
		t.Fatalf("bill %+v: want the issued 3 probes and 1 RPC, nothing failed or found", q.Res)
	}
}

// TestQueryRecordsHops: with a recorder attached, a query opens one lookup
// and every request writes one hop under its label. A Call issued after a
// failed Call records HopAlternate; a Call after an answered Call records
// HopOK again, as does a Ping whatever the Calls did.
func TestQueryRecordsHops(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	rec := obs.NewRecorder(16)
	rt.AttachRecorder(rec)
	q := NewQuery(rt.AddNode(0), "test", 0)
	rt.AddNode(1).Handle("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) })
	rt.AddNode(3).Stop()
	fail := func() { t.Error("a call to a live node failed") }
	q.Call(3, "list", nil, func(Envelope) { t.Error("a stopped node answered") }, func() {
		q.Call(1, "list", nil, func(Envelope) {
			q.Call(1, "list", nil, func(Envelope) {
				q.Ping(1, func(float64, bool) {})
			}, fail)
		}, fail)
	})
	kernel.Run()
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	want := []obs.Hop{
		{Type: "list", To: 3, At: 0, RTTms: 0, Outcome: obs.HopTimeout},
		{Type: "list", To: 1, At: at(1000), RTTms: 10, Outcome: obs.HopAlternate},
		{Type: "list", To: 1, At: at(1010), RTTms: 10, Outcome: obs.HopOK},
		{Type: MsgPing, To: 1, At: at(1020), RTTms: 10, Outcome: obs.HopOK},
	}
	got := rec.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("recorded %d hops %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		w.Lookup, w.Scheme, w.From = 1, "test", 0
		if got[i] != w {
			t.Errorf("hop %d = %+v, want %+v", i, got[i], w)
		}
	}
}

// TestQueryRecorderAllocs: recording a hop costs no allocation, so a Ping
// and a Call allocate exactly as often with a recorder attached as without.
func TestQueryRecorderAllocs(t *testing.T) {
	allocs := func(rec *obs.Recorder) float64 {
		kernel, rt := newTestRuntime(t, 4, 0)
		rt.AttachRecorder(rec)
		rt.AddNode(1).Handle("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) })
		q := NewQuery(rt.AddNode(0), "test", 0)
		onPing := func(float64, bool) {}
		onReply := func(Envelope) {}
		onFail := func() {}
		op := func() {
			q.Ping(1, onPing)
			q.Call(1, "list", nil, onReply, onFail)
			kernel.Run()
		}
		for i := 0; i < 32; i++ { // past one wrap of the recorder's ring
			op()
		}
		return testing.AllocsPerRun(200, op)
	}
	plain, traced := allocs(nil), allocs(obs.NewRecorder(16))
	if plain != traced {
		t.Fatalf("a Ping and a Call allocate %v times with a recorder, %v without", traced, plain)
	}
}

// TestQueryRecordsOnLoopback: the live transports go through the same
// choke point — a Query.Ping on a Loopback with a recorder attached
// records one hop.
func TestQueryRecordsOnLoopback(t *testing.T) {
	lb := NewLoopback(lineMatrix(4), Config{RPCTimeout: time.Second}, 1)
	rec := obs.NewRecorder(16)
	lb.AttachRecorder(rec)
	answered := make(chan bool, 1)
	lb.Do(func() {
		lb.AddNode(1)
		NewQuery(lb.AddNode(0), "test", 0).Ping(1, func(_ float64, ok bool) { answered <- ok })
	})
	ok := <-answered
	lb.Close()
	if !ok {
		t.Fatal("loopback ping went unanswered")
	}
	hops := rec.Snapshot()
	if len(hops) != 1 {
		t.Fatalf("recorded %d hops %+v, want 1", len(hops), hops)
	}
	if h := hops[0]; h.Lookup != 1 || h.Scheme != "test" || h.Type != MsgPing || h.From != 0 || h.To != 1 ||
		h.Outcome != obs.HopOK || h.RTTms <= 0 {
		t.Fatalf("hop %+v: want one answered ping 0 -> 1 under lookup 1", h)
	}
}
