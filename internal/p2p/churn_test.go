package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/sim"
)

func TestChurnTogglesLiveness(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(20), DefaultConfig(), 1)
	ids := make([]NodeID, 20)
	for i := range ids {
		ids[i] = NodeID(i)
		rt.AddNode(ids[i])
	}
	cfg := ChurnConfig{
		Horizon: 5 * time.Minute,
	}
	churn := NewChurn(rt, cfg, 42)
	var joins, leaves, graceful int
	churn.OnLeave = func(id NodeID, g bool) {
		leaves++
		if g {
			graceful++
		}
		if !rt.Alive(id) {
			t.Error("OnLeave fired for a node already down")
		}
	}
	churn.OnJoin = func(id NodeID) {
		joins++
		if !rt.Alive(id) {
			t.Error("OnJoin fired before the node came up")
		}
	}
	churn.Drive(ids)
	kernel.Run() // horizon bounds the chain, so the queue drains

	if leaves == 0 || joins == 0 {
		t.Fatalf("no churn: %d leaves, %d joins", leaves, joins)
	}
	if leaves != churn.Leaves || joins != churn.Joins {
		t.Fatalf("hook/counter mismatch: %d/%d vs %d/%d", leaves, joins, churn.Leaves, churn.Joins)
	}
	if graceful == 0 || graceful == leaves {
		t.Fatalf("graceful split degenerate: %d of %d", graceful, leaves)
	}
	if churn.Crashes != leaves-graceful {
		t.Fatalf("crashes %d, want %d", churn.Crashes, leaves-graceful)
	}
	// With a 5-minute horizon, ~110 s cycles and 20 nodes, dozens of
	// sessions must have ended.
	if leaves < 20 {
		t.Fatalf("suspiciously little churn: %d leaves", leaves)
	}
}

func TestChurnHorizonDrainsQueue(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(4), DefaultConfig(), 1)
	ids := []NodeID{0, 1, 2, 3}
	for _, id := range ids {
		rt.AddNode(id)
	}
	cfg := ChurnConfig{SessionSigma: 1, Horizon: 10 * time.Minute}
	churn := NewChurn(rt, cfg, 7)
	churn.Drive(ids)
	end := kernel.Run()
	if end > cfg.Horizon {
		t.Fatalf("event beyond horizon: %v", end)
	}
	if kernel.Pending() != 0 {
		t.Fatalf("%d events still queued", kernel.Pending())
	}
}

// AddNode during a churn downtime must not resurrect the node: the churn
// generator's pending rejoin would then see it alive and (before the fix)
// return without rescheduling a leave, silently removing the node from the
// churn process forever. After the fix AddNode leaves the node down, the
// rejoin counts one join, and the session/leave cycle keeps running.
func TestAddNodeDuringChurnKeepsNodeInChurnProcess(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(2), DefaultConfig(), 1)
	id := NodeID(0)
	rt.AddNode(id)
	cfg := ChurnConfig{
		Horizon: 10 * time.Minute,
	}
	churn := NewChurn(rt, cfg, 9)
	churn.OnLeave = func(NodeID, bool) {
		// OnLeave fires just before the node goes down; re-add it right
		// after (what Expanding.Register or an experiment re-registering a
		// target does mid-churn) — that must not revive it.
		kernel.After(0, func() {
			n := rt.AddNode(id)
			if n.Alive() {
				t.Error("AddNode resurrected a churn-downed node")
			}
		})
	}
	churn.Drive([]NodeID{id})
	kernel.Run()
	if churn.Leaves < 2 {
		t.Fatalf("churn stalled after the AddNode: %d leaves, want the cycle to continue", churn.Leaves)
	}
	if churn.Joins == 0 || churn.Joins > churn.Leaves {
		t.Fatalf("join accounting off: %d joins, %d leaves", churn.Joins, churn.Leaves)
	}
}

// An externally-Restart()ed node mid-gap is not a churn join: the rejoin
// must not count it or fire OnJoin, but must still schedule the next leave
// so the node keeps churning.
func TestExternalRestartDuringGapRestartsChurnCycle(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(2), DefaultConfig(), 1)
	id := NodeID(0)
	rt.AddNode(id)
	cfg := ChurnConfig{
		Horizon: 10 * time.Minute,
	}
	churn := NewChurn(rt, cfg, 3)
	joins := 0
	churn.OnJoin = func(NodeID) { joins++ }
	churn.OnLeave = func(NodeID, bool) {
		// Revive immediately after the leave event, well inside the gap.
		kernel.After(time.Millisecond, func() {
			if n := rt.Node(id); !n.Alive() {
				n.Restart()
			}
		})
	}
	churn.Drive([]NodeID{id})
	kernel.Run()
	if churn.Leaves < 2 {
		t.Fatalf("churn stalled after external restart: %d leaves", churn.Leaves)
	}
	if churn.Joins != joins {
		t.Fatalf("OnJoin fired %d times but %d joins counted", joins, churn.Joins)
	}
	if churn.Joins != 0 {
		t.Fatalf("external restarts were counted as churn joins: %d", churn.Joins)
	}
}

// An externally-Stop()ed node mid-session is not a churn leave: the
// pending leave must not count it or fire OnLeave, but must still schedule
// the rejoin so the node keeps churning (the mirror of the AddNode case).
func TestExternalStopMidSessionKeepsNodeInChurnProcess(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(2), DefaultConfig(), 1)
	id := NodeID(0)
	rt.AddNode(id)
	cfg := ChurnConfig{
		Horizon: 10 * time.Minute,
	}
	churn := NewChurn(rt, cfg, 3)
	churn.Drive([]NodeID{id})
	// Crash the node well before its first scheduled churn leave.
	kernel.After(time.Millisecond, func() { rt.Node(id).Stop() })
	kernel.Run()
	if churn.Joins == 0 {
		t.Fatal("churn never rejoined the externally stopped node")
	}
	if churn.Leaves == 0 {
		t.Fatal("churn stalled after the external stop: no later leaves")
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() (int, int, int) {
		kernel := sim.New()
		rt := New(kernel, lineMatrix(10), DefaultConfig(), 3)
		ids := make([]NodeID, 10)
		for i := range ids {
			ids[i] = NodeID(i)
			rt.AddNode(ids[i])
		}
		cfg := ChurnConfig{SessionSigma: 1, Horizon: 20 * time.Minute}
		churn := NewChurn(rt, cfg, 5)
		churn.Drive(ids)
		kernel.Run()
		return churn.Joins, churn.Leaves, churn.Crashes
	}
	j1, l1, c1 := run()
	j2, l2, c2 := run()
	if j1 != j2 || l1 != l2 || c1 != c2 {
		t.Fatalf("same seed diverged: %d/%d/%d vs %d/%d/%d", j1, l1, c1, j2, l2, c2)
	}
}
