package p2p

import (
	"math"
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
	if rt.TotalMetrics().QueryProbes != 1 {
		t.Fatalf("node metrics count %d query probes, want 1", rt.TotalMetrics().QueryProbes)
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
	if got, want := rt.TotalMetrics().Retries, int64(pol.Attempts-1); got != want {
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
	if got := rt.TotalMetrics().Retries - int64(pol.Attempts-1); got != 0 {
		t.Errorf("Ping charged %d retries, want 0", got)
	}
}

func TestQueryProbeCarriesAnswer(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	q := NewQuery(rt.AddNode(0), "test", 0)
	rt.AddNode(1).Serve(NewTable().With("coord", func(n *Node, env Envelope) { n.Reply(env, "coord_ok", "c1") }))
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
			q.Sweep(sweeps[i], func(s Swept) {
				owns = append(owns, own{s.Peer, s.RTTms, s.Found})
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

// TestQuerySweepTieKeepsTargetOrder: two targets at equal RTT, whichever
// comes first in the target list is the answer, and RTTs reports each
// target in target order.
func TestQuerySweepTieKeepsTargetOrder(t *testing.T) {
	for _, targets := range [][]NodeID{{1, 3}, {3, 1}} {
		kernel, rt := newTestRuntime(t, 5, 0)
		q := NewQuery(rt.AddNode(2), "test", 0)
		for _, id := range []NodeID{0, 1, 3, 4} {
			rt.AddNode(id)
		}
		var got Swept
		q.Sweep(append([]NodeID{4}, targets...), func(s Swept) { got = s })
		kernel.Run()
		if got.Peer != targets[0] || q.Res.Peer != targets[0] || got.RTTms != 10 {
			t.Errorf("sweep of 4 then %v answered %d (Res %d) at %v ms, want %d at 10", targets, got.Peer, q.Res.Peer, got.RTTms, targets[0])
		}
		if len(got.RTTs) != 3 || got.RTTs[0] != 20 || got.RTTs[1] != 10 || got.RTTs[2] != 10 {
			t.Errorf("RTTs %v, want [20 10 10]", got.RTTs)
		}
	}
}

// sweepDeadAndLive sweeps from node 0 of a line over the dead nodes
// 2..n-1 and the live node 1, dead targets first, and hands on the
// sweep's outcome.
func sweepDeadAndLive(tr Transport, n int, then func(Swept)) *Query {
	q := NewQuery(tr.AddNode(0), "test", 0)
	tr.AddNode(1)
	var targets []NodeID
	for id := NodeID(2); id < NodeID(n); id++ {
		tr.AddNode(id).Stop()
		targets = append(targets, id)
	}
	q.Sweep(append(targets, 1), then)
	return q
}

// TestQuerySweepSettlesInOneTimeout: the pings of a sweep go out at once,
// so k dead targets cost one RPC timeout between them, not k; the live
// target still answers and is the sweep's answer.
func TestQuerySweepSettlesInOneTimeout(t *testing.T) {
	const n = 7 // five dead targets
	kernel, rt := newTestRuntime(t, n, 0)
	reports := 0
	var at time.Duration
	var got Swept
	q := sweepDeadAndLive(rt, n, func(s Swept) { reports++; at, got = kernel.Now(), s })
	kernel.Run()
	if reports != 1 || at != time.Second {
		t.Fatalf("%d reports, the last at %v: want one, one 1s timeout after issue", reports, at)
	}
	if !got.Found || got.Peer != 1 || got.RTTms != 10 || q.Res.Probes != n-1 || q.Res.DeadProbes != n-2 {
		t.Fatalf("sweep %+v, bill %+v: want node 1 at 10 ms, %d probes, %d dead", got, q.Res, n-1, n-2)
	}
}

const liveSweepN, liveSweepTimeout = 7, 200 * time.Millisecond

// liveSweep is TestQuerySweepSettlesInOneTimeout on a live transport's
// wall-clock timers. A sequential sweep would take five timeouts; the
// bound allows three, for a loaded machine.
func liveSweep(t *testing.T, tr Transport, do func(func())) {
	t.Helper()
	const n, timeout = liveSweepN, liveSweepTimeout
	done := make(chan Swept, 2)
	start := time.Now()
	do(func() { sweepDeadAndLive(tr, n, func(s Swept) { done <- s }) })
	got := <-done
	took := time.Since(start)
	if took < timeout || took >= 3*timeout {
		t.Fatalf("sweep settled after %v: want one %v timeout, not %d", took, timeout, n-2)
	}
	if !got.Found || got.Peer != 1 {
		t.Fatalf("sweep %+v: want node 1", got)
	}
	select {
	case again := <-done:
		t.Fatalf("sweep reported twice (second %+v)", again)
	case <-time.After(timeout):
	}
}

func TestQuerySweepSettlesInOneTimeoutLoopback(t *testing.T) {
	lb := NewLoopback(lineMatrix(liveSweepN), Config{RPCTimeout: liveSweepTimeout}, 1)
	defer lb.Close()
	liveSweep(t, lb, lb.Do)
}

func TestQuerySweepSettlesInOneTimeoutUDP(t *testing.T) {
	u := NewUDP(liveSweepN, Config{RPCTimeout: liveSweepTimeout}, 1)
	defer u.Close()
	for i := range liveSweepN {
		if _, err := u.Listen(NodeID(i), ""); err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
	}
	liveSweep(t, u, u.Do)
}

// TestQuerySweepSettlesAtStop: a client that stops mid-sweep settles the
// sweep once, at the stop, with every ping billed dead.
func TestQuerySweepSettlesAtStop(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	client := rt.AddNode(0)
	q := NewQuery(client, "test", 0)
	rt.AddNode(2)
	rt.AddNode(3)
	var at []time.Duration
	q.Sweep([]NodeID{3, 2}, func(s Swept) {
		at = append(at, kernel.Now())
		if s.Found || !math.IsInf(s.RTTs[0], 1) || !math.IsInf(s.RTTs[1], 1) {
			t.Errorf("sweep at a stopped client reported %+v, want nobody", s)
		}
	})
	kernel.At(15*time.Millisecond, client.Stop) // 2's reply is in flight
	kernel.Run()
	if len(at) != 1 || at[0] != 15*time.Millisecond {
		t.Fatalf("sweep reported at %v: want once, at the 15ms stop", at)
	}
	if q.Res.Probes != 2 || q.Res.DeadProbes != 2 || q.Res.Found {
		t.Fatalf("bill %+v: want 2 probes, both dead, nothing found", q.Res)
	}
}

// TestQueryCallbacksStopWithClient: when the client stops, every request
// it has out fails once, at the stop instant, and the bill charges each
// failure. Both of the Sweep's pings left before the stop; they fail with
// the rest, and the Sweep reports nobody.
func TestQueryCallbacksStopWithClient(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	client := rt.AddNode(0)
	q := NewQuery(client, "test", 0)
	rt.AddNode(1).Serve(NewTable().With("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) }))
	rt.AddNode(2).Stop()
	replies, fails := 0, 0
	var at []time.Duration
	fail := func() { fails++; at = append(at, kernel.Now()) }
	ping := func(_ float64, ok bool) {
		if ok {
			replies++
			return
		}
		fail()
	}
	q.Ping(1, ping)
	q.Ping(2, ping)
	q.Call(1, "list", nil, func(Envelope) { replies++ }, fail)
	swept := false
	q.Sweep([]NodeID{1, 2}, func(s Swept) {
		if swept || s.Found || s.Peer != NoNode {
			t.Errorf("sweep reported %+v again=%v: want one report of nobody", s, swept)
		}
		swept = true
	})
	kernel.At(5*time.Millisecond, client.Stop) // before any reply lands
	kernel.Run()
	if replies != 0 || fails != 3 || !swept {
		t.Fatalf("%d replies, %d failures, swept %v: want 0, 3 and the sweep's one report", replies, fails, swept)
	}
	for _, a := range at {
		if a != 5*time.Millisecond {
			t.Fatalf("failures at %v: want all at the 5ms stop", at)
		}
	}
	if q.Res.Probes != 4 || q.Res.DeadProbes != 4 || q.Res.RPCs != 1 || q.Res.RPCFails != 1 || q.Res.Found {
		t.Fatalf("bill %+v: want 4 probes and 1 RPC, each failed, nothing found", q.Res)
	}
	// Sent: the 5 requests issued before the stop and node 1's 3 answers,
	// which land at the stopped client; nothing from the stopped client.
	// Dead: those 3 answers and the 2 pings at the stopped node 2.
	if m := rt.TotalMetrics(); m.StopFailures != 5 || m.Timeouts != 0 || m.MsgsSent != 8 || m.MsgsDead != 5 {
		t.Fatalf("metrics %+v: want 5 stop failures (all parked), 0 timeouts, 8 sends, 5 dead", m)
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
	rt.AddNode(1).Serve(NewTable().With("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) }))
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
		rt.AddNode(1).Serve(NewTable().With("list", func(n *Node, env Envelope) { n.Reply(env, "list_ok", nil) }))
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
