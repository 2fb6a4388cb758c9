package p2p

// Property-based invariant layer for the runtime: a randomized op sequence
// (join/leave/crash/send/request/multicast/group churn, interleaved with
// partial kernel drains so envelopes and expiries are genuinely in flight
// at check time) with the runtime's structural invariants re-verified after
// every step:
//
//   - envelope-slab free list: in bounds, duplicate-free, every free slot
//     zeroed (deliverSlot releases payloads for GC before freeing);
//   - timeout slab: free list in bounds and duplicate-free, live records
//     unique per (node, msgID);
//   - inflight/expiry agreement: every parked request has exactly one live
//     expiry record (the reverse need not hold — an answered request, or
//     one its node's stop settled, removes its inflight entry and lets the
//     expiry fire into nothing), a stopped node holds nothing parked, and
//     the table is in strictly increasing MsgID order;
//   - multicast sender indexes: (RTT, NodeID)-sorted and exactly equal to
//     a from-scratch rebuild over the current membership;
//   - dense node registry: slot i holds node i or nil.
//
// At full drain the slabs must be completely free and every live node's
// inflight table empty — nothing leaks across a quiescent point.

import (
	"fmt"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// checkRuntimeInvariants verifies every structural invariant of the
// runtime's hot-path bookkeeping.
func checkRuntimeInvariants(t *testing.T, rt *Runtime, stage string) {
	t.Helper()

	// Per-shard envelope and timeout slabs (one shard on a serial runtime).
	live := make(map[timeoutRec]int)
	for si := range rt.sh {
		sc := &rt.sh[si]
		freeEnv := make(map[uint32]bool, len(sc.slabFree))
		for _, slot := range sc.slabFree {
			if int(slot) >= len(sc.slab) {
				t.Fatalf("%s: shard %d slab free slot %d out of bounds (slab len %d)", stage, si, slot, len(sc.slab))
			}
			if freeEnv[slot] {
				t.Fatalf("%s: shard %d slab free list holds slot %d twice", stage, si, slot)
			}
			freeEnv[slot] = true
			if sc.slab[slot] != (Envelope{}) {
				t.Fatalf("%s: shard %d freed slab slot %d not zeroed: %+v", stage, si, slot, sc.slab[slot])
			}
		}

		freeT := make(map[uint32]bool, len(sc.timeouts.free))
		for _, slot := range sc.timeouts.free {
			if int(slot) >= len(sc.timeouts.recs) {
				t.Fatalf("%s: shard %d timeout free slot %d out of bounds (slab len %d)", stage, si, slot, len(sc.timeouts.recs))
			}
			if freeT[slot] {
				t.Fatalf("%s: shard %d timeout free list holds slot %d twice", stage, si, slot)
			}
			freeT[slot] = true
		}
		for slot := range sc.timeouts.recs {
			if !freeT[uint32(slot)] {
				live[sc.timeouts.recs[slot]]++
			}
		}
	}
	for rec, n := range live {
		if n != 1 {
			t.Fatalf("%s: %d live expiry records for %+v, want 1 (msg IDs are unique)", stage, n, rec)
		}
	}

	// Inflight ⊆ live expiry records, the inflight table is in strictly
	// increasing MsgID order (unpark's binary search depends on it), and
	// the node registry is dense.
	for i, n := range rt.nodes {
		if n == nil {
			continue
		}
		if n.ID != NodeID(i) {
			t.Fatalf("%s: registry slot %d holds node %d", stage, i, n.ID)
		}
		if !n.alive && (len(n.inflight) != 0 || (n.retry != nil && len(n.retry.waits) != 0)) {
			// Stop settles the table, and a stopped node parks nothing.
			t.Fatalf("%s: stopped node %d still holds %d requests parked", stage, n.ID, len(n.inflight))
		}
		for j, c := range n.inflight {
			if j > 0 && n.inflight[j-1].id >= c.id {
				t.Fatalf("%s: node %d inflight table out of MsgID order at %d: %d then %d", stage, n.ID, j, n.inflight[j-1].id, c.id)
			}
			if live[timeoutRec{node: n.ID, msgID: c.id}] != 1 {
				t.Fatalf("%s: node %d has request %d inflight with no live expiry record", stage, n.ID, c.id)
			}
		}
		for j, r := range n.table.routes {
			for _, prev := range n.table.routes[:j] {
				if prev.typ == r.typ {
					t.Fatalf("%s: node %d has two handlers for %q", stage, n.ID, r.typ)
				}
			}
		}
	}

	// Message accounting identity: every envelope ever handed to the
	// transport is delivered, lost, dead, or still parked in the slab —
	// and the expiry ledger balances the same way.
	inflightEnv := int64(rt.InflightEnvelopes())
	if rt.Metrics.MsgsSent != rt.Metrics.MsgsDelivered+rt.Metrics.MsgsLost+rt.Metrics.MsgsDead+inflightEnv {
		t.Fatalf("%s: accounting identity broken: sent=%d != delivered=%d + lost=%d + dead=%d + inflight=%d",
			stage, rt.Metrics.MsgsSent, rt.Metrics.MsgsDelivered, rt.Metrics.MsgsLost, rt.Metrics.MsgsDead, inflightEnv)
	}
	if pend := int64(rt.PendingExpiries()); rt.Metrics.ExpiriesScheduled != rt.Metrics.ExpiriesFired+pend {
		t.Fatalf("%s: expiry ledger broken: scheduled=%d != fired=%d + pending=%d",
			stage, rt.Metrics.ExpiriesScheduled, rt.Metrics.ExpiriesFired, pend)
	}
	if rt.Metrics.Timeouts > rt.Metrics.ExpiriesFired {
		t.Fatalf("%s: %d timeouts exceed %d fired expiries", stage, rt.Metrics.Timeouts, rt.Metrics.ExpiriesFired)
	}
	if rt.Metrics.MsgsMulticast > rt.Metrics.MsgsSent {
		t.Fatalf("%s: %d multicast sends exceed %d total sends", stage, rt.Metrics.MsgsMulticast, rt.Metrics.MsgsSent)
	}

	// The live counter agrees with a registry scan.
	liveScan := 0
	for _, n := range rt.nodes {
		if n != nil && n.alive {
			liveScan++
		}
	}
	if rt.LiveNodes() != liveScan {
		t.Fatalf("%s: LiveNodes()=%d but %d nodes are alive", stage, rt.LiveNodes(), liveScan)
	}

	// Multicast groups: sorted duplicate-free membership, and every sender
	// index equal to a from-scratch rebuild.
	for gname, g := range rt.groups {
		for i := 1; i < len(g.members); i++ {
			if g.members[i-1] >= g.members[i] {
				t.Fatalf("%s: group %q membership not strictly ascending at %d: %v", stage, gname, i, g.members)
			}
		}
		for from, idx := range g.senders {
			if len(idx.ids) != len(g.members) || len(idx.rtts) != len(g.members) {
				t.Fatalf("%s: group %q sender %d index covers %d of %d members", stage, gname, from, len(idx.ids), len(g.members))
			}
			fresh := &senderIndex{
				rtts: make([]float64, len(g.members)),
				ids:  make([]NodeID, len(g.members)),
			}
			for i, m := range g.members {
				fresh.rtts[i] = rt.RTTms(from, m)
				fresh.ids[i] = m
			}
			// The incremental index must match the rebuild exactly —
			// sortedness by (RTT, NodeID) follows from equality.
			sortSenderIndex(fresh)
			for i := range fresh.ids {
				if idx.ids[i] != fresh.ids[i] || idx.rtts[i] != fresh.rtts[i] {
					t.Fatalf("%s: group %q sender %d index diverges from rebuild at %d: (%v,%v) vs (%v,%v)",
						stage, gname, from, i, idx.rtts[i], idx.ids[i], fresh.rtts[i], fresh.ids[i])
				}
			}
		}
	}
}

// sortSenderIndex sorts an index by (RTT, NodeID) ascending — the reference
// ordering the incremental maintenance must preserve.
func sortSenderIndex(x *senderIndex) {
	for i := 1; i < len(x.ids); i++ {
		r, id := x.rtts[i], x.ids[i]
		j := i - 1
		for j >= 0 && (x.rtts[j] > r || (x.rtts[j] == r && x.ids[j] > id)) {
			x.rtts[j+1], x.ids[j+1] = x.rtts[j], x.ids[j]
			j--
		}
		x.rtts[j+1], x.ids[j+1] = r, id
	}
}

// TestRuntimeInvariantsUnderRandomOps drives the randomized op sequence.
func TestRuntimeInvariantsUnderRandomOps(t *testing.T) {
	const (
		nNodes = 24
		steps  = 800
	)
	src := rng.New(13)
	m := latency.NewDense(nNodes)
	for i := 0; i < nNodes; i++ {
		for j := i + 1; j < nNodes; j++ {
			m.Set(i, j, 1+99*src.Float64())
		}
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: 250 * time.Millisecond}, 3)
	withLoss(t, rt, 3, 0.15)
	table := NewTable().
		With("mute", func(*Node, Envelope) {}). // never replies: requests always expire
		With("mc", func(*Node, Envelope) {})
	for i := 0; i < nNodes; i++ {
		rt.AddNode(NodeID(i)).Serve(table)
	}
	groups := []string{"g0", "g1", "g2"}
	randNode := func() NodeID { return NodeID(src.Intn(nNodes)) }

	for step := 0; step < steps; step++ {
		switch src.Intn(9) {
		case 0: // crash
			rt.Node(randNode()).Stop()
		case 1: // restart
			rt.Node(randNode()).Restart()
		case 2: // one-way send (possibly to or from a dead node)
			rt.Node(randNode()).Send(randNode(), "mute", nil)
		case 3: // request that can only resolve by timeout
			rt.Node(randNode()).Request(randNode(), "mute", nil,
				time.Duration(1+src.Intn(300))*time.Millisecond, func(Envelope) {}, func() {})
		case 4: // ping (replies race their expiries)
			rt.Node(randNode()).Ping(randNode(), time.Duration(1+src.Intn(300))*time.Millisecond,
				src.Bool(0.5), func(float64, bool) {})
		case 5:
			rt.JoinGroup(groups[src.Intn(len(groups))], randNode())
		case 6:
			rt.LeaveGroup(groups[src.Intn(len(groups))], randNode())
		case 7:
			rt.Multicast(randNode(), groups[src.Intn(len(groups))], "mc", nil, 150*src.Float64())
		case 8: // partial drain: leave envelopes and expiries in flight
			kernel.RunUntil(kernel.Now() + time.Duration(src.Intn(120))*time.Millisecond)
		}
		checkRuntimeInvariants(t, rt, fmt.Sprintf("step %d", step))
	}

	// Full drain: every parked envelope delivered or dead, every expiry
	// fired, every slab slot back on its free list, no inflight leftovers.
	kernel.Run()
	checkDrained(t, rt)
}

// checkDrained is the quiescent-point check: after the kernel drains,
// every slab slot is free and no live node still has a request parked.
func checkDrained(t *testing.T, rt *Runtime) {
	t.Helper()
	checkRuntimeInvariants(t, rt, "drained")
	if rt.InflightEnvelopes() != 0 {
		t.Fatalf("drained: %d envelope slots still parked", rt.InflightEnvelopes())
	}
	if rt.PendingExpiries() != 0 {
		t.Fatalf("drained: %d expiry slots still parked", rt.PendingExpiries())
	}
	for _, n := range rt.nodes {
		if n != nil && n.alive && len(n.inflight) != 0 {
			t.Fatalf("drained: live node %d still has %d inflight requests", n.ID, len(n.inflight))
		}
	}
}

// TestInvariantsChordUnderLossAndChurn holds a chord ring under 5% loss and
// churn to the same invariants: checked every simulated second while
// lookups, stabilize rounds, joins and crashes keep requests parked, then
// at full drain.
func TestInvariantsChordUnderLossAndChurn(t *testing.T) {
	const n = 60
	kernel := sim.New()
	rt := New(kernel, lineMatrix(n), Config{RPCTimeout: time.Second}, 5)
	withLoss(t, rt, 5, 0.05)
	ch := NewChord(rt, chordTestConfig(90*time.Second), 5)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
		id := ids[i]
		kernel.After(time.Duration(i)*20*time.Millisecond, func() { ch.Join(id) })
	}
	churn := NewChurn(rt, ChurnConfig{
		MeanSession:  40 * time.Second,
		MeanOffline:  10 * time.Second,
		GracefulProb: 0.5,
		Horizon:      80 * time.Second,
	}, 5)
	churn.OnLeave = func(id NodeID, graceful bool) { ch.Leave(id, graceful) }
	churn.OnJoin = func(id NodeID) { ch.Join(id) }
	churn.Drive(ids[1:])
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("inv/%d", i)
		kernel.At(20*time.Second+time.Duration(i)*time.Second, func() {
			ch.Put(0, key, []byte(key), func(OpResult) {})
			ch.Lookup(0, key, func(LookupResult) {})
		})
	}
	for s := 1; s <= 90; s++ {
		kernel.RunUntil(time.Duration(s) * time.Second)
		checkRuntimeInvariants(t, rt, fmt.Sprintf("t=%ds", s))
	}
	if churn.Leaves == 0 || rt.Metrics.Timeouts == 0 {
		t.Fatalf("no adversity exercised: %d leaves, %d timeouts", churn.Leaves, rt.Metrics.Timeouts)
	}
	kernel.Run()
	checkDrained(t, rt)
}

// TestMetricsAccountingUnderLossAndChurn runs a scripted loss+churn
// sequence with the observability registry attached and reconciles every
// counter at the end: the wire counters against the accounting identity,
// the registry's per-node and per-type counters against the runtime's
// global ones, and the expiry ledger against the timeout count.
func TestMetricsAccountingUnderLossAndChurn(t *testing.T) {
	const nNodes = 16
	src := rng.New(71)
	m := latency.NewDense(nNodes)
	for i := 0; i < nNodes; i++ {
		for j := i + 1; j < nNodes; j++ {
			m.Set(i, j, 5+45*src.Float64())
		}
	}
	kernel := sim.New()
	rt := New(kernel, m, Config{RPCTimeout: 200 * time.Millisecond}, 9)
	withLoss(t, rt, 9, 0.25)
	reg := obs.NewRegistry(nNodes)
	rt.EnableObs(reg)
	for i := 0; i < nNodes; i++ {
		rt.AddNode(NodeID(i))
		rt.JoinGroup("g", NodeID(i))
	}
	checkRuntimeInvariants(t, rt, "setup")

	randNode := func() NodeID { return NodeID(src.Intn(nNodes)) }
	mcReturned := 0
	pings, pongs, expires := 0, 0, 0
	for round := 0; round < 60; round++ {
		// Churn phase: crash a node mid-round so requests in flight to it
		// die and its own fail at once, restart another so stale expiries
		// find nothing parked.
		rt.Node(randNode()).Stop()
		rt.Node(randNode()).Restart()
		for i := 0; i < 6; i++ {
			pings++
			rt.Node(randNode()).Ping(randNode(), 150*time.Millisecond, false, func(_ float64, ok bool) {
				if ok {
					pongs++
				} else {
					expires++
				}
			})
		}
		mcReturned += rt.Multicast(randNode(), "g", MsgPing, nil, 30)
		kernel.RunUntil(kernel.Now() + time.Duration(40+src.Intn(200))*time.Millisecond)
		checkRuntimeInvariants(t, rt, fmt.Sprintf("round %d", round))
	}
	kernel.Run()
	checkRuntimeInvariants(t, rt, "drained")

	mt := rt.Metrics
	if mt.MsgsLost == 0 {
		t.Fatal("25% loss produced no lost messages")
	}
	if mt.Timeouts == 0 {
		t.Fatal("loss+churn produced no timeouts")
	}
	if mt.MsgsDead == 0 {
		t.Fatal("crashing receivers produced no dead deliveries")
	}
	// Drained: the identity collapses to sent == delivered+lost+dead and
	// the expiry ledger to scheduled == fired.
	if mt.MsgsSent != mt.MsgsDelivered+mt.MsgsLost+mt.MsgsDead {
		t.Fatalf("drained identity: sent=%d delivered=%d lost=%d dead=%d", mt.MsgsSent, mt.MsgsDelivered, mt.MsgsLost, mt.MsgsDead)
	}
	if mt.ExpiriesScheduled != mt.ExpiriesFired {
		t.Fatalf("drained expiry ledger: scheduled=%d fired=%d", mt.ExpiriesScheduled, mt.ExpiriesFired)
	}
	if int64(mcReturned) != mt.MsgsMulticast {
		t.Fatalf("Multicast returned %d sends total, counter says %d", mcReturned, mt.MsgsMulticast)
	}
	// Every ping issued settled exactly once: answered, expired, or failed
	// by its issuer's stop (parked at the stop, or issued while stopped).
	if pongs+expires != pings {
		t.Fatalf("pings=%d resolved=%d", pings, pongs+expires)
	}
	if mt.Timeouts+mt.StopFailures != int64(expires) || mt.StopFailures == 0 {
		t.Fatalf("runtime counted %d timeouts + %d stop failures, callbacks saw %d", mt.Timeouts, mt.StopFailures, expires)
	}

	// Registry reconciliation: the per-node counters partition the global
	// ones exactly — the registry saw every send and every delivery.
	var regSent, regRecv int64
	for _, c := range reg.SentByNode() {
		regSent += c
	}
	for _, c := range reg.RecvByNode() {
		regRecv += c
	}
	if regSent != mt.MsgsSent {
		t.Fatalf("registry saw %d sends, runtime %d", regSent, mt.MsgsSent)
	}
	if regRecv != mt.MsgsDelivered {
		t.Fatalf("registry saw %d deliveries, runtime %d", regRecv, mt.MsgsDelivered)
	}
	var regTyped int64
	for _, tt := range reg.TopTypes(0) {
		regTyped += tt.Count
	}
	if regTyped != mt.MsgsSent {
		t.Fatalf("per-type counters sum to %d, runtime sent %d", regTyped, mt.MsgsSent)
	}
	// This workload is all pings and pongs.
	if got := reg.TypeCount(MsgPing) + reg.TypeCount(MsgPong); got != mt.MsgsSent {
		t.Fatalf("ping+pong counts %d != sent %d", got, mt.MsgsSent)
	}
}
