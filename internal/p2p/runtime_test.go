package p2p

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// lineMatrix builds a small dense matrix with rtt(i,j) = 10*|i-j| ms.
func lineMatrix(n int) *latency.Dense {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 10*float64(j-i))
		}
	}
	return m
}

func newTestRuntime(t *testing.T, n int, loss float64) (*sim.Sim, *Runtime) {
	t.Helper()
	kernel := sim.New()
	rt := New(kernel, lineMatrix(n), Config{RPCTimeout: time.Second}, 1)
	withLoss(t, rt, 1, loss)
	return kernel, rt
}

// withLoss puts tr under a whole-run loss plan of probability loss seeded
// by seed; at loss 0 it installs nothing.
func withLoss(t testing.TB, tr Transport, seed int64, loss float64) {
	t.Helper()
	if err := InstallFaults(tr, faults.Lossy(nil, seed, loss)); err != nil {
		t.Fatal(err)
	}
}

func TestRequestReplyCorrelation(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	a, b := rt.AddNode(0), rt.AddNode(2)
	b.Serve(NewTable().With("echo", func(n *Node, env Envelope) {
		n.Reply(env, "echo_ok", env.Payload)
	}))
	var got any
	var at time.Duration
	a.Request(b.ID, "echo", "hello", 0, func(env Envelope) {
		got = env.Payload
		at = kernel.Now()
	}, func() { t.Error("unexpected timeout") })
	kernel.Run()
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	// One-way is rtt/2 each direction: the round trip is the matrix RTT.
	if want := durOf(20); at != want {
		t.Fatalf("reply at %v, want %v", at, want)
	}
	if rt.TotalMetrics().MsgsSent != 2 || rt.TotalMetrics().MsgsDelivered != 2 {
		t.Fatalf("metrics %+v", rt.TotalMetrics())
	}
}

func TestPingMeasuresMatrixRTT(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	a := rt.AddNode(0)
	rt.AddNode(3)
	var rtt float64
	ok := false
	a.Ping(3, 0, false, func(ms float64, o bool) { rtt, ok = ms, o })
	kernel.Run()
	if !ok || rtt != 30 {
		t.Fatalf("ping = (%v, %v), want (30, true)", rtt, ok)
	}
	if rt.TotalMetrics().QueryProbes != 1 || rt.TotalMetrics().MaintProbes != 0 {
		t.Fatalf("probe accounting %+v", rt.TotalMetrics())
	}
}

// The documented transport invariant: a ping measured over messages equals
// the matrix entry exactly, for every latency representable at nanosecond
// resolution — including odd-valued ones, where pricing each leg as
// durOf(rtt/2) truncated half a nanosecond per leg and came back short.
func TestPingRTTEqualsMatrixEntryExactly(t *testing.T) {
	odd := []float64{3, 5.000001, 7.777777, 0.000003, 86.400001, 249.999999}
	m := latency.NewDense(len(odd) + 1)
	for i, ms := range odd {
		m.Set(0, i+1, ms)
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	for i := range odd {
		rt.AddNode(NodeID(i + 1))
	}
	got := make([]float64, len(odd))
	for i := range odd {
		i := i
		a.Ping(NodeID(i+1), 0, false, func(ms float64, ok bool) {
			if !ok {
				t.Errorf("ping %d timed out", i)
			}
			got[i] = ms
		})
	}
	kernel.Run()
	for i, ms := range odd {
		if got[i] != m.LatencyMs(0, i+1) {
			t.Errorf("latency %v ms measured as %v over the wire", ms, got[i])
		}
	}
}

// Property form of the invariant: any whole-nanosecond RTT survives the
// float64 ms round trip through the transport bit-exactly.
func TestPingRTTInvariantProperty(t *testing.T) {
	src := rng.New(77)
	const pairs = 200
	m := latency.NewDense(pairs + 1)
	want := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		ns := src.Int63n(400_000_000) + 1 // up to 400 ms, odd and even alike
		want[i] = float64(ns) / 1e6
		m.Set(0, i+1, want[i])
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: time.Second}, 1)
	a := rt.AddNode(0)
	got := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		rt.AddNode(NodeID(i + 1))
		a.Ping(NodeID(i+1), 0, false, func(ms float64, ok bool) { got[i] = ms })
	}
	kernel.Run()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rtt %v measured as %v (Δ %g ns)", want[i], got[i], (got[i]-want[i])*1e6)
		}
	}
}

func TestTimeoutUnderTotalLoss(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 1)
	a := rt.AddNode(0)
	rt.AddNode(1)
	timedOut := false
	a.Request(1, MsgPing, nil, 500*time.Millisecond,
		func(Envelope) { t.Error("reply through 100% loss") },
		func() { timedOut = true })
	kernel.Run()
	if !timedOut || rt.TotalMetrics().Timeouts != 1 || rt.TotalMetrics().MsgsLost != 1 {
		t.Fatalf("timedOut=%v metrics %+v", timedOut, rt.TotalMetrics())
	}
}

func TestCrashedNodeIsSilent(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 0)
	a, b := rt.AddNode(0), rt.AddNode(1)
	b.Stop()
	timedOut := false
	a.Ping(1, 200*time.Millisecond, false, func(_ float64, ok bool) { timedOut = !ok })
	kernel.Run()
	if !timedOut {
		t.Fatal("ping to a crashed node did not time out")
	}
	if rt.TotalMetrics().MsgsDead != 1 {
		t.Fatalf("metrics %+v", rt.TotalMetrics())
	}

	// Restart: the node answers again with handlers intact.
	b.Restart()
	answered := false
	a.Ping(1, 200*time.Millisecond, false, func(_ float64, ok bool) { answered = ok })
	kernel.Run()
	if !answered {
		t.Fatal("restarted node did not answer")
	}
}

func TestLossRateIsHonoured(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 0.3)
	a := rt.AddNode(0)
	rt.AddNode(1)
	const sends = 4000
	for i := 0; i < sends; i++ {
		a.Send(1, "noop", nil)
	}
	kernel.Run()
	frac := float64(rt.TotalMetrics().MsgsLost) / float64(sends)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("loss fraction %v, want ~0.3", frac)
	}
}

// TestShardedCrossDeliveryLookaheadPanics: a cross-shard delivery that
// would land inside the window being executed breaks the sharded kernel's
// determinism, so the runtime refuses it with a panic rather than deliver
// it late.
func TestShardedCrossDeliveryLookaheadPanics(t *testing.T) {
	m := latency.NewDense(2)
	m.Set(0, 1, 2) // a 1 ms one-way leg, inside the 5 ms window
	shk := sim.NewSharded(2, 5*time.Millisecond)
	rt := NewSharded(shk, []latency.Matrix{m, m}, Config{RPCTimeout: time.Second}, 1, []int32{0, 1})
	a := rt.AddNode(0)
	rt.AddNode(1)
	shk.Shard(0).At(0, func() { a.Send(1, "noop", nil) })
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "violates lookahead window") {
			t.Fatalf("recovered %q, want the lookahead panic", r)
		}
	}()
	shk.Run()
}

// TestStopClearsInflight: a request outstanding when its node stops is
// unparked and fails once, as a failure, at the stop time — not at its
// expiry, and not as a timeout — and its expiry then finds nothing.
func TestStopClearsInflight(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 0)
	a, b := rt.AddNode(0), rt.AddNode(1)
	// b never answers "mute" requests.
	b.Serve(NewTable().With("mute", func(*Node, Envelope) {}))
	replies, fails := 0, 0
	var failAt time.Duration
	a.Request(1, "mute", nil, time.Second, func(Envelope) { replies++ }, func() {
		fails++
		failAt = kernel.Now()
	})
	kernel.At(300*time.Millisecond, a.Stop)
	kernel.Run()
	if replies != 0 || fails != 1 || failAt != 300*time.Millisecond {
		t.Fatalf("%d replies, %d failures (last at %v); want 0 and 1, at the 300ms stop", replies, fails, failAt)
	}
	if len(a.inflight) != 0 {
		t.Fatalf("%d requests still parked at the stopped node", len(a.inflight))
	}
	m := rt.TotalMetrics()
	if m.StopFailures != 1 || m.Timeouts != 0 || m.ExpiriesScheduled != 1 || m.ExpiriesFired != 1 {
		t.Fatalf("metrics %+v: want 1 stop failure, 0 timeouts, the one expiry scheduled and fired empty", m)
	}
}

func TestMulticastScopesAndCounts(t *testing.T) {
	kernel, rt := newTestRuntime(t, 5, 0)
	for i := 0; i < 5; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
	}
	rt.Node(2).Stop() // dead members receive nothing and cost nothing
	var got []NodeID
	hello := NewTable().With("hello", func(n *Node, env Envelope) { got = append(got, n.ID) })
	for i := 1; i < 5; i++ {
		rt.Node(NodeID(i)).Serve(hello)
	}
	// Radius 25 ms from node 0 covers nodes 1 and 2 (10, 20 ms); 2 is dead.
	sent := rt.Multicast(0, "g", "hello", nil, 25)
	kernel.Run()
	if sent != 1 {
		t.Fatalf("sent %d copies, want 1", sent)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("delivered to %v, want [1]", got)
	}
}

func TestGroupMembershipSortedAndIdempotent(t *testing.T) {
	_, rt := newTestRuntime(t, 8, 0)
	for _, id := range []NodeID{5, 1, 7, 3, 1, 5, 0} { // duplicates on purpose
		rt.AddNode(id)
		rt.JoinGroup("g", id)
	}
	want := []NodeID{0, 1, 3, 5, 7}
	if got := rt.groups["g"].members; !slices.Equal(got, want) {
		t.Fatalf("members %v, want sorted %v", got, want)
	}
	rt.LeaveGroup("g", 3)
	rt.LeaveGroup("g", 3) // absent: no-op
	rt.LeaveGroup("g", 6) // never joined: no-op
	want = []NodeID{0, 1, 5, 7}
	if got := rt.groups["g"].members; !slices.Equal(got, want) {
		t.Fatalf("after leaves %v, want %v", got, want)
	}
	rt.JoinGroup("g", 3) // re-join lands back in order
	if got := rt.groups["g"].members; !slices.Equal(got, []NodeID{0, 1, 3, 5, 7}) {
		t.Fatalf("after re-join %v", got)
	}
}

// TestLeaveGroupReleasesEmptyGroups is the churn-leak regression test:
// before the group rewrite, the last member's leave left an empty slice
// (and would now leave dead sender indexes) in the groups map forever.
func TestLeaveGroupReleasesEmptyGroups(t *testing.T) {
	_, rt := newTestRuntime(t, 8, 0)
	for i := 0; i < 1000; i++ {
		gname := fmt.Sprintf("g%d", i)
		rt.JoinGroup(gname, 1)
		rt.JoinGroup(gname, 2)
		rt.Multicast(1, gname, "hello", nil, 1000) // force a sender index
		rt.LeaveGroup(gname, 1)
		rt.LeaveGroup(gname, 2)
	}
	if n := len(rt.groups); n != 0 {
		t.Fatalf("%d empty groups retained in the map, want 0", n)
	}
	// Leaving a group that never existed stays a no-op.
	rt.LeaveGroup("never", 1)
	if len(rt.groups) != 0 {
		t.Fatal("LeaveGroup on an unknown group materialised it")
	}
}

// TestLeaveGroupDropsLeaverSenderIndex: a member that multicast and then
// left must not pin its sender index (two O(members) slices and one of
// the capped sender slots) in the group forever.
func TestLeaveGroupDropsLeaverSenderIndex(t *testing.T) {
	kernel, rt := newTestRuntime(t, 8, 0)
	for i := 0; i < 4; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
	}
	rt.Multicast(1, "g", "hello", nil, 1000)
	kernel.Run()
	if _, ok := rt.groups["g"].senders[1]; !ok {
		t.Fatal("multicast did not build a sender index")
	}
	rt.LeaveGroup("g", 1)
	if _, ok := rt.groups["g"].senders[1]; ok {
		t.Fatal("leaver's sender index retained after LeaveGroup")
	}
	// Rejoin + multicast rebuilds it with the same recipients.
	rt.JoinGroup("g", 1)
	sent := rt.Multicast(1, "g", "hello", nil, 1000)
	kernel.Run()
	if sent != 3 {
		t.Fatalf("rebuilt index sent %d copies, want 3", sent)
	}
}

// TestMulticastIndexMatchesLinearScan cross-checks the binary-searched
// sender index against the plain scan it replaced: same recipients, same
// ascending-NodeID send order, across radii, membership changes and
// aliveness flips.
func TestMulticastIndexMatchesLinearScan(t *testing.T) {
	kernel := sim.New()
	m := latency.NewDense(64)
	src := rng.New(5)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			m.Set(i, j, 1+src.Float64()*99)
		}
	}
	rt := New(kernel, m, Config{RPCTimeout: time.Second}, 1)
	for i := 0; i < 64; i++ {
		rt.AddNode(NodeID(i))
		if i%3 != 0 {
			rt.JoinGroup("g", NodeID(i))
		}
	}
	scan := func(from NodeID, radius float64) []NodeID {
		var out []NodeID
		for _, mm := range rt.groups["g"].members {
			if mm == from || !rt.Alive(mm) || rt.RTTms(from, mm) > radius {
				continue
			}
			out = append(out, mm)
		}
		return out
	}
	type rcpt struct {
		id    NodeID
		msgID uint64
	}
	check := func(stage string) {
		t.Helper()
		for _, from := range []NodeID{0, 1, 31} {
			for _, radius := range []float64{0, 10, 37.5, 80, 1000} {
				want := scan(from, radius)
				var got []rcpt
				mc := NewTable().With("mc", func(n *Node, env Envelope) {
					got = append(got, rcpt{n.ID, env.MsgID})
				})
				for _, mm := range rt.groups["g"].members {
					rt.Node(mm).Serve(mc)
				}
				sent := rt.Multicast(from, "g", "mc", nil, radius)
				kernel.Run()
				if sent != len(want) {
					t.Fatalf("%s: from=%d radius=%v sent %d, scan wants %d", stage, from, radius, sent, len(want))
				}
				// Deliveries land in arrival-time order; the invariant the
				// loss draws (and the figures) depend on is the SEND order,
				// recovered by sorting on the monotonic MsgID.
				slices.SortFunc(got, func(a, b rcpt) int { return int(a.msgID) - int(b.msgID) })
				ids := make([]NodeID, len(got))
				for i, g := range got {
					ids[i] = g.id
				}
				if !slices.Equal(ids, want) {
					t.Fatalf("%s: from=%d radius=%v sent to %v, scan wants %v", stage, from, radius, ids, want)
				}
			}
		}
	}
	check("initial")
	// Membership churn patches the already-built sender indexes.
	rt.JoinGroup("g", 0)
	rt.JoinGroup("g", 33)
	rt.LeaveGroup("g", 13)
	rt.LeaveGroup("g", 44)
	check("after join/leave")
	// Aliveness is a send-time check, invisible to the index.
	rt.Node(7).Stop()
	rt.Node(22).Stop()
	check("after crashes")
	rt.Node(7).Restart()
	check("after restart")
}

// TestMulticastFallbackBeyondSenderCap: senders past the index cap take
// the linear path and must behave identically.
func TestMulticastFallbackBeyondSenderCap(t *testing.T) {
	kernel, rt := newTestRuntime(t, 600, 0)
	for i := 0; i < 300; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
	}
	for i := 0; i < maxSenderIndexes+10; i++ {
		rt.Multicast(NodeID(i%300), "g", "warm", nil, 5)
	}
	kernel.Run()
	if n := len(rt.groups["g"].senders); n != maxSenderIndexes {
		t.Fatalf("sender cache grew to %d, cap is %d", n, maxSenderIndexes)
	}
	// A capped-out sender still reaches the right recipients in the right
	// send order. Node 599 is not in the cache (it never multicast before
	// the cap filled); lineMatrix rtt(599, i) = 10*(599-i), so radius 5990
	// covers every member.
	rt.AddNode(599)
	type rcpt struct {
		id    NodeID
		msgID uint64
	}
	var got []rcpt
	mc2 := NewTable().With("mc2", func(n *Node, env Envelope) {
		got = append(got, rcpt{n.ID, env.MsgID})
	})
	for i := 0; i < 300; i++ {
		rt.Node(NodeID(i)).Serve(mc2)
	}
	sent := rt.Multicast(599, "g", "mc2", nil, 5990)
	kernel.Run()
	if sent != 300 || len(got) != 300 {
		t.Fatalf("capped sender sent %d, delivered %d, want 300/300", sent, len(got))
	}
	slices.SortFunc(got, func(a, b rcpt) int { return int(a.msgID) - int(b.msgID) })
	for i := 1; i < len(got); i++ {
		if got[i-1].id >= got[i].id {
			t.Fatal("capped sender send order not ascending NodeID")
		}
	}
}

// TestSendDeliverZeroAlloc is the tentpole's enforcement: a one-way send
// through delivery must not allocate in steady state. A failing test, not
// a bench note — the claim cannot silently regress.
func TestSendDeliverZeroAlloc(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	a := rt.AddNode(0)
	b := rt.AddNode(1)
	b.Serve(NewTable().With("noop", func(*Node, Envelope) {}))
	// Warm the slab and the kernel queue.
	for i := 0; i < 64; i++ {
		a.Send(1, "noop", nil)
	}
	kernel.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		a.Send(1, "noop", nil)
		kernel.Run()
	}); avg != 0 {
		t.Fatalf("send→deliver allocates %v per message, want 0", avg)
	}
}

// TestMulticastRoundZeroAlloc: an expanding-ring round from a warm sender
// index is allocation-free end to end (scratch buffer, slab and queue all
// reuse their capacity).
func TestMulticastRoundZeroAlloc(t *testing.T) {
	kernel, rt := newTestRuntime(t, 128, 0)
	mc := NewTable().With("mc", func(*Node, Envelope) {})
	for i := 1; i < 128; i++ {
		rt.AddNode(NodeID(i)).Serve(mc)
		rt.JoinGroup("g", NodeID(i))
	}
	rt.AddNode(0)
	rt.Multicast(0, "g", "mc", nil, 300) // builds the index, warms buffers
	kernel.Run()
	if avg := testing.AllocsPerRun(200, func() {
		rt.Multicast(0, "g", "mc", nil, 300)
		kernel.Run()
	}); avg != 0 {
		t.Fatalf("multicast round allocates %v, want 0", avg)
	}
}

func TestMulticastDeliveryOrderStable(t *testing.T) {
	// Delivery order must be ascending NodeID regardless of join order:
	// the wire studies rely on it for deterministic replay.
	join := [][]NodeID{{4, 1, 3, 2}, {1, 2, 3, 4}, {2, 4, 1, 3}}
	var orders [][]NodeID
	for _, ids := range join {
		kernel, rt := newTestRuntime(t, 6, 0)
		rt.AddNode(0)
		for _, id := range ids {
			rt.AddNode(id)
			rt.JoinGroup("g", id)
		}
		var got []NodeID
		hello := NewTable().With("hello", func(n *Node, env Envelope) { got = append(got, n.ID) })
		for _, id := range ids {
			rt.Node(id).Serve(hello)
		}
		rt.Multicast(0, "g", "hello", nil, 1000)
		kernel.Run()
		orders = append(orders, got)
	}
	for _, got := range orders[1:] {
		if !slices.Equal(got, orders[0]) {
			t.Fatalf("delivery order depends on join order: %v vs %v", orders[0], got)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Metrics {
		kernel, rt := newTestRuntime(t, 8, 0.2)
		for i := 0; i < 8; i++ {
			rt.AddNode(NodeID(i))
		}
		for i := 1; i < 8; i++ {
			rt.Node(0).Ping(NodeID(i), 300*time.Millisecond, false, func(float64, bool) {})
		}
		kernel.Run()
		return rt.TotalMetrics()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSelfRequestReachesHandler(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 0)
	a := rt.AddNode(0)
	handled := false
	a.Serve(NewTable().With("echo", func(n *Node, env Envelope) {
		handled = true
		n.Reply(env, "echo_ok", env.Payload)
	}))
	var got any
	a.Request(0, "echo", "self", 0, func(env Envelope) { got = env.Payload },
		func() { t.Error("self-request timed out") })
	kernel.Run()
	if !handled {
		t.Fatal("self-addressed request never reached the handler")
	}
	if got != "self" {
		t.Fatalf("reply payload = %v", got)
	}
}

// TestMetricsAddCoversEveryField sets every Metrics counter to a distinct
// value through reflection and checks that Add sums each one, so a counter
// added to Metrics but not to Add fails here instead of vanishing from
// TotalMetrics and the sharded cells' snapshots.
func TestMetricsAddCoversEveryField(t *testing.T) {
	var a, b Metrics
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for f := range av.NumField() {
		av.Field(f).SetInt(int64(f + 1))
		bv.Field(f).SetInt(int64(100 * (f + 1)))
	}
	a.Add(b)
	for f := range av.NumField() {
		if got, want := av.Field(f).Int(), int64(101*(f+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", av.Type().Field(f).Name, got, want)
		}
	}
}

// twoShardRuntime is a 4-node sharded runtime over faultTestMatrix: nodes
// 0 and 1 on shard 0 (the driver shard), 2 and 3 on shard 1, and a 5 ms
// lookahead window.
func twoShardRuntime() (*sim.Sharded, *Runtime) {
	shk := sim.NewSharded(2, 5*time.Millisecond)
	m := faultTestMatrix(4)
	return shk, NewSharded(shk, []latency.Matrix{m, m}, DefaultConfig(), 1, []int32{0, 0, 1, 1})
}

// TestNodeChargesHomeAccount: AddNode binds each node to its home account
// — its home shard's on a sharded runtime, the transport-wide one on a
// live transport — and a probe at a node charges that account alone.
func TestNodeChargesHomeAccount(t *testing.T) {
	shk, rt := twoShardRuntime()
	for id := range NodeID(4) {
		if n := rt.AddNode(id); n.Metrics() != rt.ShardMetrics(rt.ShardOf(id)) {
			t.Errorf("node %d charges %p, want shard %d's account %p", id, n.Metrics(), rt.ShardOf(id), rt.ShardMetrics(rt.ShardOf(id)))
		}
	}
	pong := false
	rt.Handoff(DriverShard, 2, 0, func() {
		rt.Node(2).Ping(3, 0, false, func(_ float64, ok bool) { pong = ok })
	})
	shk.Run()
	if !pong {
		t.Fatal("ping from node 2 to node 3 got no pong")
	}
	if got := rt.ShardMetrics(1).QueryProbes; got != 1 {
		t.Errorf("shard 1 QueryProbes = %d, want 1", got)
	}
	if got := *rt.ShardMetrics(0); got != (Metrics{}) {
		t.Errorf("shard 0 account touched: %+v", got)
	}

	lb := NewLoopback(faultTestMatrix(2), DefaultConfig(), 1)
	defer lb.Close()
	if n := lb.AddNode(0); n.Metrics() != lb.SerialMetrics() {
		t.Errorf("loopback node charges %p, want the transport-wide account %p", n.Metrics(), lb.SerialMetrics())
	}
}

// TestHandoffRaisesDelayToWindow: a sharded Handoff below the lookahead
// window W lands at W, whether the target shares the driver shard or not;
// a longer delay lands as asked; a serial Handoff is After.
func TestHandoffRaisesDelayToWindow(t *testing.T) {
	shk, rt := twoShardRuntime()
	const w = 5 * time.Millisecond
	cases := []struct {
		to      NodeID
		d, want time.Duration
	}{
		{1, 0, w},         // the driver shard
		{2, 0, w},         // the other shard
		{3, w / 2, w},     // below the window
		{2, 3 * w, 3 * w}, // past it, the other shard
		{0, 3 * w, 3 * w}, // past it, the driver shard
	}
	ran := make([]time.Duration, len(cases)) // one slot per case: shards run concurrently
	for i, c := range cases {
		rt.Handoff(DriverShard, c.to, c.d, func() { ran[i] = rt.Now(c.to) })
	}
	shk.Run()
	for i, c := range cases {
		if ran[i] != c.want {
			t.Errorf("Handoff(DriverShard, %d, %v) ran at %v, want %v", c.to, c.d, ran[i], c.want)
		}
	}

	kernel := sim.New()
	serial := New(kernel, faultTestMatrix(2), DefaultConfig(), 1)
	at := time.Duration(-1)
	serial.Handoff(DriverShard, 1, 0, func() { at = kernel.Now() })
	kernel.Run()
	if at != 0 {
		t.Errorf("serial Handoff(DriverShard, 1, 0) ran at %v, want 0", at)
	}
}

// TestTransportSeamMethods pins the seam to what all three transports
// provide: simulator-only capabilities (sharding, multicast) belong on
// *Runtime, not here, and the flight recorder is read only inside this
// package (by Query and chord's lookup driver). There is one timer, After
// with a registered handler and an argument, and no method takes a func:
// nothing a protocol schedules through the seam can be a closure.
func TestTransportSeamMethods(t *testing.T) {
	tt := reflect.TypeFor[Transport]()
	var exported []string
	for i := range tt.NumMethod() {
		m := tt.Method(i)
		if m.IsExported() {
			exported = append(exported, m.Name)
		}
		for j := range m.Type.NumIn() {
			if in := m.Type.In(j); in.Kind() == reflect.Func {
				t.Errorf("Transport.%s takes a %v", m.Name, in)
			}
		}
	}
	want := []string{"AddNode", "After", "Alive", "Node", "Now", "Population", "RegisterHandler"}
	if !slices.Equal(exported, want) || tt.NumMethod() != 13 {
		t.Errorf("Transport has %d methods, exported %v; want 13, exported %v", tt.NumMethod(), exported, want)
	}
}

// TestTableDropsUnknownType: a message whose type the node's table does
// not hold is dropped, one-way or request (the request expires), while
// the table's own types and ping still dispatch.
func TestTableDropsUnknownType(t *testing.T) {
	kernel, rt := newTestRuntime(t, 2, 0)
	a, b := rt.AddNode(0), rt.AddNode(1)
	echoes := 0
	b.Serve(NewTable().With("echo", func(n *Node, env Envelope) {
		echoes++
		n.Reply(env, "echo_ok", nil)
	}))
	a.Send(1, "nope", nil)
	replied, expired, pong := 0, 0, false
	a.Request(1, "nope", nil, time.Second, func(Envelope) { replied++ }, func() { expired++ })
	a.Request(1, "echo", nil, time.Second, func(Envelope) { replied++ }, func() { expired++ })
	a.Ping(1, time.Second, false, func(_ float64, ok bool) { pong = ok })
	kernel.Run()
	if echoes != 1 || replied != 1 || expired != 1 || !pong {
		t.Fatalf("echoes=%d replied=%d expired=%d pong=%v, want 1, 1, 1, true", echoes, replied, expired, pong)
	}
	if rt.TotalMetrics().MsgsDelivered != 6 { // nope, nope, echo, echo_ok, ping, pong
		t.Fatalf("delivered %d, want 6", rt.TotalMetrics().MsgsDelivered)
	}
}

// TestTablesNeverCross: two roles on one transport, both serving type "x".
// Every node in a role reads the one table of its role, and a message is
// handled by the table of the node it reaches, never the other role's.
func TestTablesNeverCross(t *testing.T) {
	kernel, rt := newTestRuntime(t, 5, 0)
	src := rt.AddNode(0)
	type hit struct {
		role string
		at   NodeID
	}
	var hits []hit
	roleA := NewTable().With("x", func(n *Node, _ Envelope) { hits = append(hits, hit{"A", n.ID}) })
	roleB := NewTable().
		With("x", func(n *Node, _ Envelope) { hits = append(hits, hit{"B", n.ID}) }).
		With("y", func(n *Node, _ Envelope) { hits = append(hits, hit{"B:y", n.ID}) })
	for id := NodeID(1); id <= 4; id++ {
		if id%2 == 1 {
			rt.AddNode(id).Serve(roleA)
		} else {
			rt.AddNode(id).Serve(roleB)
		}
	}
	if rt.Node(1).table != rt.Node(3).table || rt.Node(2).table != rt.Node(4).table {
		t.Fatal("nodes in one role serve different tables")
	}
	for id := NodeID(1); id <= 4; id++ {
		src.Send(id, "x", nil)
		src.Send(id, "y", nil)
	}
	kernel.Run()
	want := []hit{{"A", 1}, {"B", 2}, {"B:y", 2}, {"A", 3}, {"B", 4}, {"B:y", 4}}
	if !slices.Equal(hits, want) {
		t.Fatalf("hits %v, want %v", hits, want)
	}
}

// TestTableJoinServesBothRoles: a node given a second role serves both
// roles' types, the later role winning a type both hold; every node with
// the same two roles reads one union table, built once; serving a role the
// node already holds changes nothing.
func TestTableJoinServesBothRoles(t *testing.T) {
	kernel, rt := newTestRuntime(t, 4, 0)
	src := rt.AddNode(0)
	var got []string
	first := NewTable().
		With("a", func(*Node, Envelope) { got = append(got, "first:a") }).
		With("shared", func(*Node, Envelope) { got = append(got, "first:shared") })
	second := NewTable().
		With("b", func(*Node, Envelope) { got = append(got, "second:b") }).
		With("shared", func(*Node, Envelope) { got = append(got, "second:shared") })
	for _, id := range []NodeID{1, 2} {
		n := rt.AddNode(id)
		n.Serve(first)
		n.Serve(second)
	}
	rt.AddNode(3).Serve(first)
	both := rt.Node(1).table
	if rt.Node(2).table != both || both == first || both == second {
		t.Fatal("two nodes holding the same two roles serve different tables")
	}
	rt.Node(1).Serve(first)
	rt.Node(1).Serve(second)
	if rt.Node(1).table != both {
		t.Fatal("serving a role the node holds replaced its table")
	}
	for _, typ := range []string{"a", "b", "shared"} {
		src.Send(1, typ, nil)
		src.Send(3, typ, nil)
	}
	pong := false
	src.Ping(2, time.Second, false, func(_ float64, ok bool) { pong = ok })
	kernel.Run()
	// Node 1 (10 ms away) holds both roles, node 3 (30 ms) only the first.
	want := []string{"first:a", "second:b", "second:shared", "first:a", "first:shared"}
	if !slices.Equal(got, want) || !pong {
		t.Fatalf("dispatched %v (pong %v), want %v and a pong", got, pong, want)
	}
}

// TestTableShardedChordReadsOneTable: on a two-shard runtime every chord
// member, whichever shard it lives on, serves the instance's one member
// table, and the ring's lookups, puts and gets all complete through it.
func TestTableShardedChordReadsOneTable(t *testing.T) {
	d := newDigestSharded(1)
	results := d.drive(false, 1)
	for i, r := range results {
		if r == "" || strings.Contains(r, "OK:false") {
			t.Fatalf("op %d did not complete: %q", i, r)
		}
	}
	perShard := make([]int, d.rt.Shards())
	for _, id := range d.ch.LiveMembers() {
		if n := d.rt.Node(NodeID(id)); n.table != d.ch.table {
			t.Fatalf("member %d serves its own table", id)
		}
		perShard[d.rt.ShardOf(NodeID(id))]++
	}
	for s, count := range perShard {
		if count == 0 || d.rt.ShardMetrics(s).MsgsDelivered == 0 {
			t.Fatalf("shard %d: %d members, %d deliveries", s, count, d.rt.ShardMetrics(s).MsgsDelivered)
		}
	}
}
