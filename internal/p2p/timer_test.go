package p2p

import (
	"slices"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// timerFiring is one run of a test timer: when, and at which node.
type timerFiring struct {
	at time.Duration
	id NodeID
}

// Timer schedule of TestHomeShardTimers: every node's timer fires
// timerRounds times, first at timerFirst(id), then every timerEvery — a
// distinct instant per firing, so the serial order is the time order.
const (
	timerNodes  = 12
	timerRounds = 4
	timerEvery  = 10 * time.Millisecond
)

func timerFirst(id NodeID) time.Duration { return timerEvery + time.Duration(id)*100*time.Microsecond }

// armTimers registers the test timer on tr and arms it at every node. The
// timer checks it runs at its node's scheduled instant, logs the firing in
// the slot log(id) names, and re-arms itself at the node until it has
// fired timerRounds times there.
func armTimers(t *testing.T, tr Transport, log func(id NodeID) *[]timerFiring) sim.HandlerID {
	fired := make([]int, timerNodes) // one slot per node: only its home shard writes it
	var h sim.HandlerID
	h = tr.RegisterHandler(TimerFunc(func(arg uint64) {
		id := NodeID(arg)
		want := timerFirst(id) + time.Duration(fired[id])*timerEvery
		if now := tr.Now(id); now != want {
			t.Errorf("node %d's timer %d ran at %v on its home clock, want %v", id, fired[id], now, want)
		}
		l := log(id)
		*l = append(*l, timerFiring{want, id})
		if fired[id]++; fired[id] < timerRounds {
			tr.After(id, timerEvery, h, arg)
		}
	}))
	for id := range NodeID(timerNodes) {
		tr.After(id, timerFirst(id), h, uint64(id))
	}
	return h
}

// TestHomeShardTimers: on a sharded runtime RegisterHandler hands out one
// ID that every shard kernel holds, After runs the timer on the kernel of
// the home shard of the node it was scheduled at — each shard executes
// exactly its own members' firings — and the firings come in the serial
// runtime's order.
func TestHomeShardTimers(t *testing.T) {
	m := faultTestMatrix(timerNodes)
	var serial []timerFiring
	kernel := sim.New()
	armTimers(t, New(kernel, m, DefaultConfig(), 1), func(NodeID) *[]timerFiring { return &serial })
	kernel.Run()
	if len(serial) != timerNodes*timerRounds || !slices.IsSortedFunc(serial, func(a, b timerFiring) int { return int(a.at - b.at) }) {
		t.Fatalf("serial runtime fired %d timers out of time order: %v", len(serial), serial)
	}

	for _, k := range []int{2, 4} {
		shk := sim.NewSharded(k, 5*time.Millisecond)
		ms := make([]latency.Matrix, k)
		for s := range ms {
			ms[s] = m
		}
		shardOf := make([]int32, timerNodes)
		for id := range shardOf {
			shardOf[id] = int32(id*7/3) % int32(k) // uneven, interleaved shard sizes
		}
		rt := NewSharded(shk, ms, DefaultConfig(), 1, shardOf)
		logs := make([][]timerFiring, k) // one log per shard
		h := armTimers(t, rt, func(id NodeID) *[]timerFiring { return &logs[rt.ShardOf(id)] })
		for s := range k {
			if next := shk.Shard(s).RegisterHandler(func(uint64) {}); next != h+1 {
				t.Fatalf("K=%d: shard %d kernel's next handler is %d, want %d: RegisterHandler out of lockstep", k, s, next, h+1)
			}
		}
		shk.Run()
		var merged []timerFiring
		for s, log := range logs {
			want := 0
			for _, home := range shardOf {
				if int(home) == s {
					want += timerRounds
				}
			}
			if got := shk.Shard(s).Executed; got != uint64(want) || len(log) != want {
				t.Errorf("K=%d: shard %d executed %d events and logged %d firings, want its members' %d", k, s, got, len(log), want)
			}
			for _, f := range log {
				if rt.ShardOf(f.id) != s {
					t.Errorf("K=%d: node %d's timer logged on shard %d, its home is %d", k, f.id, s, rt.ShardOf(f.id))
				}
			}
			merged = append(merged, log...)
		}
		slices.SortStableFunc(merged, func(a, b timerFiring) int { return int(a.at - b.at) })
		if !slices.Equal(merged, serial) {
			t.Errorf("K=%d: firings %v, want the serial runtime's %v", k, merged, serial)
		}
	}
}

// TestTimerSchedulingAllocs: once the kernel queue and the wait list have
// grown, arming a chord stabilise tick, an expanding-search round or a
// retry backoff allocates nothing — each is a typed timer, not a closure.
func TestTimerSchedulingAllocs(t *testing.T) {
	warm := func() (*sim.Sim, *Runtime) {
		kernel := sim.New()
		for range 512 {
			kernel.After(0, func() {})
		}
		kernel.Run() // the queue keeps the capacity
		return kernel, New(kernel, lineMatrix(4), Config{RPCTimeout: time.Second, Retry: Policy{Attempts: 3}}, 1)
	}
	t.Run("chord stabilise", func(t *testing.T) {
		_, rt := warm()
		ch := NewChord(rt, DefaultChordConfig(), 1)
		ch.Join(0)
		st := ch.state(0)
		if avg := testing.AllocsPerRun(100, func() { ch.scheduleStabilize(0, st) }); avg != 0 {
			t.Errorf("arming a stabilise tick allocates %v times, want 0", avg)
		}
	})
	t.Run("expanding round", func(t *testing.T) {
		_, rt := warm()
		e := NewExpanding(rt, DefaultExpandConfig())
		e.Search(0, func(FindResult) {})
		s := e.byClient[0].active
		if avg := testing.AllocsPerRun(100, func() { e.armRound(s) }); avg != 0 {
			t.Errorf("arming an expanding round allocates %v times, want 0", avg)
		}
	})
	t.Run("retry backoff", func(t *testing.T) {
		_, rt := warm()
		n := rt.AddNode(0)
		n.retryLayer().waits = make([]retryWait, 0, 256)
		w := retryWait{seq: 1, tries: 1, to: 1, typ: MsgPing}
		if avg := testing.AllocsPerRun(100, func() { n.scheduleBackoff(w) }); avg != 0 {
			t.Errorf("arming a retry backoff allocates %v times, want 0", avg)
		}
	})
}
