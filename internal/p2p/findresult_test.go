package p2p

import (
	"testing"
	"time"
)

// The query bill on a 4-node line (rtt(i,j) = 10·|i−j| ms), client node 0.

func TestQueryPingToStoppedNodeChargesDeadProbe(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	q := NewQuery(rt.AddNode(0), 0)
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
	q := NewQuery(rt.AddNode(0), 0)
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
	call := NewQuery(rt.AddNode(0), 0)
	failed := 0
	call.Call(3, "list", nil, func(Envelope) { t.Error("a stopped node answered") }, func() { failed++ })
	kernel.Run()
	if failed != 1 || call.Res.RPCs != 1 || call.Res.RPCFails != 1 {
		t.Fatalf("failed %d, bill %+v: want one RPC, one RPC failure", failed, call.Res)
	}
	if got, want := rt.Metrics.Retries, int64(pol.Attempts-1); got != want {
		t.Fatalf("Call charged %d retries, want %d", got, want)
	}

	ping := NewQuery(rt.Node(0), 0)
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
	q := NewQuery(rt.AddNode(0), 0)
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
	q := NewQuery(rt.AddNode(2), 0)
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
	q := NewQuery(client, 0)
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
