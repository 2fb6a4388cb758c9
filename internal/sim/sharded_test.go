package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The sharded kernel's contract has three legs: windowed execution respects
// the lookahead (no shard ever sees an event another shard is still about
// to create), cross-shard events drain in (virtual time, source shard,
// per-source sequence) order regardless of goroutine scheduling, and the
// executed event set is a pure function of the event set and the window —
// never of the shard count. The tests below pin each leg; the stress test
// exists to run under -race, where the barrier and mailbox handoffs must
// show a clean happens-before story.
//
// The window barrier assigns shards to threads dynamically and sizes its
// worker pool from GOMAXPROCS, so the invariance and stress tests loop over
// GOMAXPROCS 1, 2 and 4 with shard counts up to 8 — more shards than
// threads on purpose, and on a small box more threads than cores.

// barrierProcs and barrierShards are that grid.
var (
	barrierProcs  = []int{1, 2, 4}
	barrierShards = []int{2, 4, 8}
)

// atProcs runs fn as a subtest per GOMAXPROCS setting, restoring the
// original afterwards.
func atProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range barrierProcs {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) { fn(t, procs) })
	}
}

// awaitGoroutines waits for the goroutine count to fall back to base: a
// joined worker has called wg.Done but may not have left the scheduler yet.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want the %d from before the run", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// shardedHostModel runs a fixed message-passing model over H logical hosts
// partitioned contiguously across k shards, and returns each host's event
// log. Every send — same-shard or cross — is delayed by at least the window
// plus a per-edge epsilon that makes all arrival times at a host distinct,
// so the log contents and order are independent of heap insertion order and
// therefore must be byte-identical at every k.
func shardedHostModel(t *testing.T, k int) [][]string {
	t.Helper()
	return shardedHostModelRun(t, k, func(p *Sharded) { p.Run() })
}

// shardedHostModelRun is shardedHostModel with the caller driving the run.
func shardedHostModelRun(t *testing.T, k int, run func(p *Sharded)) [][]string {
	t.Helper()
	const (
		hosts  = 12
		window = time.Millisecond
		ttl0   = 40
	)
	p := NewSharded(k, window)
	shardOf := func(h int) int { return h * k / hosts }
	logs := make([][]string, hosts)

	var arrive func(h, from, ttl int)
	send := func(src, h, from, ttl int, at time.Duration) {
		dst := shardOf(h)
		fn := func() { arrive(h, from, ttl) }
		if dst == src {
			p.Shard(dst).At(at, fn)
		} else {
			p.Defer(src, dst, at, fn)
		}
	}
	arrive = func(h, from, ttl int) {
		now := p.Shard(shardOf(h)).Now()
		logs[h] = append(logs[h], fmt.Sprintf("%v from %d", now, from))
		if ttl <= 0 {
			return
		}
		next := (h + 1) % hosts
		if ttl%2 == 0 {
			next = (h*5 + 3) % hosts
		}
		// Delay >= window for every pair keeps any partition legal; the
		// sender-dependent epsilon makes arrival times at a host unique.
		d := window + time.Duration(ttl%5)*window/4 + time.Duration(h+1)*time.Nanosecond
		send(shardOf(h), next, h, ttl-1, now+d)
	}
	for h := 0; h < hosts; h++ {
		h := h
		p.Shard(shardOf(h)).At(time.Duration(h+1)*time.Microsecond, func() { arrive(h, h, ttl0) })
	}
	run(p)
	return logs
}

// TestShardedDeterministicAcrossK pins the headline contract: the same
// model produces identical per-host event logs at k = 1, 2, 3, 4, 8,
// whatever the thread count.
func TestShardedDeterministicAcrossK(t *testing.T) {
	base := shardedHostModel(t, 1)
	atProcs(t, func(t *testing.T, _ int) {
		for _, k := range append([]int{3}, barrierShards...) {
			sameLogs(t, k, base, shardedHostModel(t, k))
		}
	})
}

// sameLogs fails unless the k-shard logs equal the single-shard ones.
func sameLogs(t *testing.T, k int, base, got [][]string) {
	t.Helper()
	for h := range base {
		if len(got[h]) != len(base[h]) {
			t.Fatalf("k=%d host %d saw %d events, k=1 saw %d", k, h, len(got[h]), len(base[h]))
		}
		for i := range base[h] {
			if got[h][i] != base[h][i] {
				t.Fatalf("k=%d host %d event %d = %q, k=1 = %q", k, h, i, got[h][i], base[h][i])
			}
		}
	}
}

// TestShardedRepeatedRunUntil runs one kernel in three RunUntil segments.
// Each segment starts and joins its own workers, and the claim word's
// generation keeps growing across them, so nothing left over from one
// segment can claim a shard in the next: the logs equal k = 1's, the
// generation strictly increases, and no goroutine survives a segment.
func TestShardedRepeatedRunUntil(t *testing.T) {
	segments := func(t *testing.T, check func(p *Sharded)) func(p *Sharded) {
		return func(p *Sharded) {
			for _, d := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, maxDeadline} {
				p.RunUntil(d)
				check(p)
			}
			if p.Pending() != 0 {
				t.Fatalf("%d events pending after the last segment", p.Pending())
			}
		}
	}
	base := shardedHostModelRun(t, 1, segments(t, func(*Sharded) {}))
	atProcs(t, func(t *testing.T, _ int) {
		for _, k := range barrierShards {
			idle := runtime.NumGoroutine()
			var lastGen uint64
			got := shardedHostModelRun(t, k, segments(t, func(p *Sharded) {
				awaitGoroutines(t, idle)
				w := p.claim.Load()
				if gen := w >> claimCountBits; gen <= lastGen {
					t.Fatalf("k=%d: claim generation %d after a segment, %d after the one before", k, gen, lastGen)
				} else {
					lastGen = gen
				}
				if w&claimCountMask != claimStop {
					t.Fatalf("k=%d: claim word %#x between runs, want the end-of-run word", k, w)
				}
			}))
			sameLogs(t, k, base, got)
		}
	})
}

// TestShardedExecutedInvariantAcrossK checks the aggregate cost metric the
// figures print is k-invariant too.
func TestShardedExecutedInvariantAcrossK(t *testing.T) {
	run := func(k int) uint64 {
		p := NewSharded(k, time.Millisecond)
		for s := 0; s < k; s++ {
			s := s
			var chain func()
			chain = func() {
				if p.Shard(s).Now() < 20*time.Millisecond {
					p.Shard(s).After(100*time.Microsecond, chain)
				}
			}
			p.Shard(s).At(0, chain)
		}
		p.Run()
		return p.Executed()
	}
	// Executed scales with the number of chains (one per shard), so compare
	// per-chain counts.
	if a, b := run(1), run(4); a*4 != b {
		t.Fatalf("per-chain executed differs: k=1 ran %d, k=4 ran %d (want 4x)", a, b)
	}
}

// TestShardedStopAtCutsInVirtualTime checks StopAt stops the run at a
// virtual-time coordinate: events in windows past the cut never execute.
func TestShardedStopAtCutsInVirtualTime(t *testing.T) {
	p := NewSharded(2, time.Millisecond)
	var ran []time.Duration
	for i := 0; i <= 10; i++ {
		at := time.Duration(i) * time.Millisecond
		p.Shard(0).At(at, func() {
			ran = append(ran, at)
			if at == 3*time.Millisecond {
				p.StopAt(at)
			}
		})
	}
	end := p.Run()
	// The final window [3ms, 4ms) runs to its bound; the cut stops windows
	// after it from starting, so the run ends inside that window.
	if end < 3*time.Millisecond || end >= 4*time.Millisecond {
		t.Fatalf("run ended at %v, want inside the StopAt window [3ms, 4ms)", end)
	}
	if len(ran) != 4 || ran[len(ran)-1] != 3*time.Millisecond {
		t.Fatalf("executed %v, want exactly the events at 0..3ms", ran)
	}
	if p.Pending() != 7 {
		t.Fatalf("%d events pending after the cut, want 7", p.Pending())
	}
}

// TestShardedDeferLookaheadPanics checks the window invariant is enforced:
// a cross-shard event scheduled inside the executing window is a model bug
// and must panic rather than silently corrupt determinism.
func TestShardedDeferLookaheadPanics(t *testing.T) {
	p := NewSharded(2, 5*time.Millisecond)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Defer inside the lookahead window did not panic")
		}
	}()
	p.Shard(0).At(0, func() {
		p.Defer(0, 1, 2*time.Millisecond, func() {}) // window end is 5ms
	})
	p.Run()
}

// TestShardedRunUntilClipsLikeSim checks the horizon semantics match the
// serial kernel's: events past the deadline stay queued, clocks land on it.
func TestShardedRunUntilClipsLikeSim(t *testing.T) {
	p := NewSharded(2, time.Millisecond)
	ran := 0
	p.Shard(0).At(2*time.Millisecond, func() { ran++ })
	p.Shard(1).At(7*time.Millisecond, func() { ran++ })
	if end := p.RunUntil(5 * time.Millisecond); end != 5*time.Millisecond {
		t.Fatalf("clock ended at %v, want the 5ms deadline", end)
	}
	if ran != 1 || p.Pending() != 1 {
		t.Fatalf("ran %d pending %d, want 1 and 1", ran, p.Pending())
	}
	if now := p.Shard(1).Now(); now != 5*time.Millisecond {
		t.Fatalf("idle shard clock %v, want the deadline", now)
	}
}

// TestShardedBarrierStress keeps every shard active in every window with
// dense cross-shard traffic, so the worker barrier and the mailbox handoff
// run thousands of times. Its real assertions are made by -race (the CI
// shard smoke runs this package with the detector on); the in-test checks
// just confirm the model actually exercised the concurrent path.
func TestShardedBarrierStress(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		for _, k := range barrierShards {
			shardedBarrierStress(t, k)
		}
	})
}

func shardedBarrierStress(t *testing.T, k int) {
	const (
		window = 100 * time.Microsecond
		horiz  = 50 * time.Millisecond
	)
	p := NewSharded(k, window)
	crossed := make([]int, k)
	for s := 0; s < k; s++ {
		s := s
		n := 0
		var chain func()
		chain = func() {
			now := p.Shard(s).Now()
			if now >= horiz {
				return
			}
			n++
			if n%3 == 0 {
				dst := (s + 1 + n%(k-1)) % k
				p.Defer(s, dst, now+window+time.Duration(s)*time.Nanosecond, func() { crossed[dst]++ })
			}
			// Half the window keeps every shard's heap non-empty at every
			// boundary: all k shards are active in every window.
			p.Shard(s).After(window/2, chain)
		}
		p.Shard(s).At(0, chain)
	}
	p.Run()
	for s, c := range crossed {
		if c == 0 {
			t.Fatalf("k=%d: shard %d received no cross-shard events; stress model broken", k, s)
		}
	}
	if p.Executed() < uint64(k)*uint64(horiz/(window/2))/2 {
		t.Fatalf("k=%d: only %d events executed; stress model broken", k, p.Executed())
	}
	if st := p.Stats(); st.MultiShardWindows < uint64(horiz/window)/2 {
		t.Fatalf("k=%d: only %d of %d windows went through the barrier; stress model broken", k, st.MultiShardWindows, st.Windows)
	}
}

// TestShardedWorkerBudget pins the barrier's thread accounting: a run starts
// min(K, GOMAXPROCS)-1 workers — the coordinator is the remaining thread, so
// K > GOMAXPROCS never oversubscribes — and none outlives RunUntil.
func TestShardedWorkerBudget(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, k := range barrierShards {
			idle := runtime.NumGoroutine()
			p := NewSharded(k, time.Millisecond)
			during := -1
			for s := 0; s < k; s++ {
				p.Shard(s).At(0, func() {})
			}
			// A second multi-shard window: by now the first has started
			// the workers, and the sampling event runs on whichever of
			// them (or the coordinator) claimed shard 0.
			p.Shard(0).At(2*time.Millisecond, func() { during = runtime.NumGoroutine() - idle })
			p.Shard(1).At(2*time.Millisecond, func() {})
			p.Run()
			if want := min(k, procs) - 1; during != want || during > procs-1 {
				t.Fatalf("k=%d procs=%d: %d worker goroutines during the run, want %d", k, procs, during, want)
			}
			awaitGoroutines(t, idle)
		}
	})
}

// TestShardedPanicLowestShardWins checks panic propagation through the
// barrier: two shards panic in one window, the coordinator re-raises the
// lower shard's value whoever ran it, the workers are joined, and the kernel
// is left between windows.
func TestShardedPanicLowestShardWins(t *testing.T) {
	atProcs(t, func(t *testing.T, _ int) {
		idle := runtime.NumGoroutine()
		p := NewSharded(4, time.Millisecond)
		p.Shard(0).At(0, func() {})
		p.Shard(1).At(0, func() { panic("shard 1") })
		p.Shard(2).At(0, func() { panic("shard 2") })
		ran3 := false
		p.Shard(3).At(0, func() { ran3 = true })
		var got any
		func() {
			defer func() { got = recover() }()
			p.Run()
		}()
		if got != "shard 1" {
			t.Fatalf("recovered %v, want the lowest panicking shard's value", got)
		}
		if !ran3 {
			t.Fatal("a shard's window was abandoned because another shard panicked")
		}
		if end := p.WindowEnd(); end != 0 {
			t.Fatalf("window end %v after a propagated panic, want 0", end)
		}
		awaitGoroutines(t, idle)
	})
}

// TestShardedInlinePanicResetsWindow is the regression test for the inline
// single-active-shard path: a handler's panic used to leave the window end
// set, so a caller that recovered got a spurious lookahead panic from its
// next Defer.
func TestShardedInlinePanicResetsWindow(t *testing.T) {
	p := NewSharded(2, 5*time.Millisecond)
	p.Shard(0).At(0, func() { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the handler's panic", r)
			}
		}()
		p.Run()
	}()
	if end := p.WindowEnd(); end != 0 {
		t.Fatalf("window end %v after the panic, want 0 (no window in flight)", end)
	}
	ran := false
	p.Defer(0, 1, 2*time.Millisecond, func() { ran = true }) // inside the dead window's extent
	p.Run()
	if !ran {
		t.Fatal("event deferred after the recovered panic never ran")
	}
}

// TestShardedParkAndWake drives the slow side of the barrier: windows in
// which one shard's handler blocks for longer than the spin budget, so the
// thread that finished the other shard parks and must be woken — by the
// last finisher if it is the coordinator, by the next publish if it is a
// worker. Results must equal the single-shard run's.
func TestShardedParkAndWake(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // one worker beside the coordinator
	run := func(k int) ([]string, ShardedStats) {
		p := NewSharded(k, time.Millisecond)
		var log []string
		for w := 0; w < 6; w++ {
			at := time.Duration(3*w) * time.Millisecond
			p.Shard(0).At(at, func() {
				if k > 1 {
					time.Sleep(3 * spinBudget)
				}
				// Cross to the other shard one window later, where it is
				// the only event: a single-shard window between barriers.
				p.Defer(0, k-1, at+time.Millisecond, func() {
					log = append(log, fmt.Sprintf("%v crossed", p.Shard(k-1).Now()))
				})
			})
			p.Shard(k-1).At(at+time.Microsecond, func() {
				log = append(log, fmt.Sprintf("%v local", p.Shard(k-1).Now()))
			})
		}
		p.Run()
		return log, p.Stats()
	}
	base, _ := run(1)
	got, st := run(2)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("k=2 log %v, k=1 log %v", got, base)
	}
	if st.MultiShardWindows != 6 || st.Windows != 12 {
		t.Fatalf("stats %+v, want 6 barrier windows of 12", st)
	}
	if st.Parks == 0 {
		t.Fatalf("no waiter parked although every barrier window outlasted the spin budget: %+v", st)
	}
}

// TestShardedStats pins the telemetry counters on a model small enough to
// count by hand: one two-shard window, then one single-shard window, with
// one FIFO-handler event on shard 1 served from its lane.
func TestShardedStats(t *testing.T) {
	p := NewSharded(2, time.Millisecond)
	p.Shard(0).At(0, func() {})
	fifo := p.Shard(1).RegisterFIFOHandler(func(uint64) {})
	p.Shard(1).AtHandler(0, fifo, 0)
	p.Shard(0).At(10*time.Millisecond, func() {})
	p.Run()
	st := p.Stats()
	if st.Windows != 2 || st.MultiShardWindows != 1 || !reflect.DeepEqual(st.ShardEvents, []uint64{2, 1}) || st.LaneEvents != 1 {
		t.Fatalf("stats %+v, want 2 windows, 1 multi-shard, events [2 1], 1 from a lane", st)
	}
}
