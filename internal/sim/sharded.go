package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the sharded kernel: K independent Sim instances (one event
// heap, clock and handler table each) executed in time-windowed lock-step.
//
// The correctness argument is conservative parallel discrete-event
// simulation with a global lookahead: callers partition their model state
// (hosts, in the p2p runtime) across shards and guarantee that any event
// one shard schedules onto another is at least `window` of virtual time in
// the future — in the p2p runtime the window is the topology's minimum
// cross-partition one-way latency, so a message sent at time t inside the
// window [T, T+W) is delivered at t+oneWay >= T+W, never inside the window
// being executed. Shards can therefore run a window concurrently without
// ever seeing an event another shard is still about to create.
//
// Determinism contract (the same one internal/engine makes for -workers):
// results are byte-identical at any shard count. Cross-shard events are
// never applied in goroutine-arrival order; they park in the layer's
// per-(source, destination) mailboxes during the window and are drained
// between windows by the coordinator alone (OnDrain), ordered by (virtual
// time, source shard, per-source sequence). Window boundaries themselves
// are a pure function of the event set (next window starts at the globally
// earliest pending event), so the boundary sequence — and with it the
// executed-event set — does not depend on K.
type Sharded struct {
	shards []*Sim
	window time.Duration

	// onDrain applies the layer's cross-shard mailboxes between windows
	// (see OnDrain); the kernel keeps none of its own.
	onDrain func()

	// windowEnd is the exclusive end of the window being executed, 0 when
	// no window is in flight (WindowEnd).
	windowEnd atomic.Int64
	// stopAt is the dynamic deadline: no new window starts after it.
	// Events lower it via StopAt (the wire studies stop when their last
	// operation completes, a virtual time no one knows in advance).
	stopAt atomic.Int64

	// The window barrier. The coordinator fills the descriptor (active,
	// bound), arms the countdown, and publishes the window with one store of
	// the claim word; it and the worker goroutines then claim active shards
	// by CAS on that word. See runWindow for the protocol and
	// docs/ARCHITECTURE.md ("Window barrier") for the happens-before
	// argument.
	active []int32       // shards with an event inside the window
	bound  time.Duration // the window's RunUntil bound
	panics []any         // panics[i] is what shard i's window panicked with

	// claim is gen<<claimCountBits | unclaimed: the window's generation and
	// how many entries of active nobody has taken yet. The generation only
	// ever grows (across RunUntil calls too), so a CAS prepared against one
	// window can never succeed in another. Only the coordinator stores it
	// whole; everyone else decrements the count by CAS.
	claim atomic.Uint64
	// unfinished counts claimed-or-unclaimed active shards still to finish.
	unfinished atomic.Int32

	// Waiters that outspin spinBudget park on cond; sleepers lets the common
	// case (nobody parked) skip the lock. parks is guarded by mu.
	mu       sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32
	parks    uint64

	// Workers are started on the first multi-shard window of a run and
	// joined when the run returns, so an idle sharded kernel holds no
	// goroutines.
	started bool
	wg      sync.WaitGroup

	windows, multiWindows uint64
}

const (
	// claimCountBits is the width of the claim word's unclaimed-count field;
	// the generation takes the 48 bits above it. A count of claimStop is the
	// end-of-run word that tells workers to exit.
	claimCountBits = 16
	claimCountMask = 1<<claimCountBits - 1
	claimStop      = claimCountMask

	// spinBudget is how long a waiter polls before it parks. A park/unpark
	// pair costs about 10µs and a window of the 10k-host chord cell about
	// 20µs of handler work per shard, so parking inside the steady state
	// costs more than the window itself: the budget must comfortably outlast
	// a normal window. It is still bounded, so a driver-sequential phase
	// (single-shard windows, which never reach the barrier) or one very
	// long window leaves the other threads asleep, not spinning.
	spinBudget = time.Millisecond
	// spinsPerYield is the polls between runtime.Gosched calls: a waiter
	// must never hold a P against runnable work (other trials of an engine
	// pool, the GC) when GOMAXPROCS exceeds the idle cores.
	spinsPerYield = 64
)

// maxDeadline is the Run() deadline: effectively "drain everything".
const maxDeadline = time.Duration(1) << 62

// NewSharded builds a sharded kernel with k shards and the given lookahead
// window. The window must be positive: it is the amount of virtual time a
// cross-shard event must at minimum be scheduled into the future, and the
// caller derives it from its model (netmodel.Topology.MinCrossPoPOneWayMs
// for the p2p runtime). k == 1 is valid and runs the same windowed loop
// with no worker goroutines — the determinism baseline the multi-shard
// counts are compared against.
func NewSharded(k int, window time.Duration) *Sharded {
	if k < 1 {
		panic(fmt.Sprintf("sim: NewSharded with %d shards", k))
	}
	if k >= claimStop {
		panic(fmt.Sprintf("sim: NewSharded with %d shards, limit %d", k, claimStop-1))
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: NewSharded with non-positive window %v", window))
	}
	p := &Sharded{
		shards: make([]*Sim, k),
		window: window,
		active: make([]int32, 0, k),
		panics: make([]any, k),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.shards {
		p.shards[i] = New()
	}
	return p
}

// K returns the shard count.
func (p *Sharded) K() int { return len(p.shards) }

// Window returns the lookahead window.
func (p *Sharded) Window() time.Duration { return p.window }

// Shard returns shard i's kernel. Before the run starts the caller may
// schedule setup events on any shard directly; during the run a shard's
// kernel must only be touched by events executing on that shard.
func (p *Sharded) Shard(i int) *Sim { return p.shards[i] }

// OnDrain registers the hook the coordinator calls between windows, the
// only way events cross shards: the layer above parks them in mailboxes of
// its own during a window and applies them here, in (virtual time, source
// shard, per-source order) — the p2p runtime drains its envelope and
// Handoff mailboxes this way. The hook runs with no window in flight, so it
// may schedule onto any shard (at or after the next window's events).
func (p *Sharded) OnDrain(fn func()) { p.onDrain = fn }

// WindowEnd returns the exclusive end of the window currently executing,
// or 0 between windows. A layer's mailbox refuses a cross-shard event
// before it (at < WindowEnd): the lookahead every window relies on.
func (p *Sharded) WindowEnd() time.Duration {
	return time.Duration(p.windowEnd.Load())
}

// StopAt lowers the run's dynamic deadline to t: windows that would start
// after t do not start, and the run returns once no pending event is at or
// before t. Unlike Sim.Stop, the cut is expressed in virtual time — the
// only coordinate that is identical at every shard count — so the executed
// event set stays byte-deterministic. Events already inside the final
// windows still execute (a window, once begun, always runs to its end);
// callers that must not observe those events gate on their own state, the
// way the sequential-op drivers check their `fired` flags.
func (p *Sharded) StopAt(t time.Duration) {
	for {
		cur := p.stopAt.Load()
		if int64(t) >= cur {
			return
		}
		if p.stopAt.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Run executes windows until every shard's queue drains (or StopAt cuts
// the run). It returns the largest shard clock reached.
func (p *Sharded) Run() time.Duration {
	return p.RunUntil(maxDeadline)
}

// RunUntil executes events with time <= deadline, exactly as Sim.RunUntil
// does on a single kernel: events beyond the deadline stay queued, and
// every shard's clock ends at the deadline (or at the StopAt cut) even if
// its queue drained earlier. The executed set is {events with at <=
// deadline} plus — when StopAt fires — the tail of the final windows; both
// are pure functions of virtual time and the event set, never of K.
func (p *Sharded) RunUntil(deadline time.Duration) time.Duration {
	p.stopAt.Store(int64(maxDeadline))
	defer p.stopWorkers()
	for {
		if p.onDrain != nil {
			p.onDrain()
		}
		t0, ok := p.head()
		if !ok || t0 > deadline || int64(t0) > p.stopAt.Load() {
			break
		}
		end := t0 + p.window
		bound := end - 1
		if bound > deadline {
			// The horizon clips what the window executes, never the
			// window's extent: lookahead validation still uses `end`.
			bound = deadline
		}
		p.runWindow(end, bound)
	}
	// Final clock advance, mirroring Sim.RunUntil's idle-drain semantics.
	final := deadline
	if s := time.Duration(p.stopAt.Load()); s < final {
		final = s
	}
	var maxNow time.Duration
	for _, s := range p.shards {
		if s.now < final {
			s.now = final
		}
		if s.now > maxNow {
			maxNow = s.now
		}
	}
	return maxNow
}

// head returns the earliest pending event time across shards.
func (p *Sharded) head() (time.Duration, bool) {
	var t0 time.Duration
	ok := false
	for _, s := range p.shards {
		if h, has := s.Head(); has && (!ok || h < t0) {
			t0, ok = h, true
		}
	}
	return t0, ok
}

// runWindow executes one window: every shard with a pending event before
// `end` runs RunUntil(bound). One active shard runs inline on the
// coordinator (the common case during driver-sequential phases, where a
// barrier would buy nothing and parked workers stay parked). More than one
// go through the barrier:
//
//  1. The coordinator writes the descriptor (active, bound), arms the
//     countdown and publishes the window with one store of the claim word.
//  2. It then works: it and the workers each take the next unclaimed shard
//     by CAS on the claim word until none is left. Assignment is dynamic, so
//     K shards load-balance over however many threads there are.
//  3. Whoever finishes a shard decrements the countdown; the coordinator
//     waits for zero, spinning first and parking only past spinBudget.
//
// Which goroutine runs a shard is invisible to the model: a shard's events
// touch only that shard's state, and everything that crosses shards parks in
// a mailbox the coordinator drains after the countdown reaches zero.
func (p *Sharded) runWindow(end, bound time.Duration) {
	p.windowEnd.Store(int64(end))
	// Reset on every exit path: a caller that recovers a handler's panic
	// must not find the kernel still validating against a dead window.
	defer p.windowEnd.Store(0)
	p.active = p.active[:0]
	for i, s := range p.shards {
		if h, has := s.Head(); has && h < end {
			p.active = append(p.active, int32(i))
		}
	}
	p.windows++
	if len(p.active) <= 1 {
		if len(p.active) == 1 {
			p.shards[p.active[0]].RunUntil(bound)
		}
		return
	}
	p.multiWindows++
	p.startWorkers()
	p.bound = bound
	p.unfinished.Store(int32(len(p.active)))
	p.claimAndRun(p.publish(uint64(len(p.active))))
	p.await(func() bool { return p.unfinished.Load() == 0 })
	for _, i := range p.active {
		if r := p.panics[i]; r != nil {
			// Re-raise the lowest shard's panic on the coordinator, so a
			// failing event cannot die silently on a worker goroutine.
			clear(p.panics)
			panic(r)
		}
	}
}

// publish starts a new generation of the claim word with the given count,
// wakes parked waiters and returns the generation. Everything the
// coordinator wrote before it (the descriptor) happens-before any claim
// that observes the new generation.
func (p *Sharded) publish(count uint64) uint64 {
	gen := p.claim.Load()>>claimCountBits + 1
	p.claim.Store(gen<<claimCountBits | count)
	p.wake()
	return gen
}

// claimAndRun takes unclaimed shards of window gen, one CAS each, and runs
// them until none is left or the claim word has moved to another generation.
// The descriptor is read only after a successful CAS: success proves the
// window is still gen's and this entry is ours, so the coordinator cannot be
// rewriting it.
func (p *Sharded) claimAndRun(gen uint64) {
	for {
		w := p.claim.Load()
		n := w & claimCountMask
		if w>>claimCountBits != gen || n == 0 {
			return
		}
		if !p.claim.CompareAndSwap(w, w-1) {
			continue
		}
		p.runShard(p.active[n-1])
		if p.unfinished.Add(-1) == 0 {
			p.wake()
		}
	}
}

// runShard runs shard i's slice of the window, keeping a handler's panic for
// the coordinator to re-raise.
func (p *Sharded) runShard(i int32) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[i] = r
		}
	}()
	p.shards[i].RunUntil(p.bound)
}

// worker claims shards window after window until the end-of-run word.
func (p *Sharded) worker() {
	defer p.wg.Done()
	for {
		var w uint64
		p.await(func() bool {
			w = p.claim.Load()
			return w&claimCountMask != 0
		})
		if w&claimCountMask == claimStop {
			return
		}
		p.claimAndRun(w >> claimCountBits)
	}
}

// await returns once ready() holds. It polls, yielding the P every
// spinsPerYield polls, and parks on the cond when spinBudget of wall-clock
// time has passed — whoever makes ready() true calls wake afterwards.
func (p *Sharded) await(ready func() bool) {
	var start time.Time
	for spins := 1; ; spins++ {
		if ready() {
			return
		}
		if spins%spinsPerYield != 0 {
			continue
		}
		runtime.Gosched()
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > spinBudget {
			break
		}
	}
	p.mu.Lock()
	// Announce before the re-check: wake reads sleepers after the state
	// change, so either this waiter sees the change or the waker sees it.
	p.sleepers.Add(1)
	for !ready() {
		p.parks++
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// wake unparks every parked waiter; each re-checks its own condition.
func (p *Sharded) wake() {
	if p.sleepers.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// startWorkers launches the run's worker goroutines on first use. The
// coordinator is itself a worker, so min(K, GOMAXPROCS)-1 more saturate the
// processors: none at GOMAXPROCS=1, where the coordinator claims every
// shard in turn.
func (p *Sharded) startWorkers() {
	if p.started {
		return
	}
	p.started = true
	n := min(len(p.shards), runtime.GOMAXPROCS(0)) - 1
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// stopWorkers publishes the end-of-run word and joins the workers, so a
// finished run holds no goroutines — engine trials build thousands of
// kernels per process. The word carries its own generation: nothing claimed
// against this run can succeed in the next.
func (p *Sharded) stopWorkers() {
	if !p.started {
		return
	}
	p.publish(claimStop)
	p.wg.Wait()
	p.started = false
}

// ShardedStats is the kernel's self-telemetry: how the run decomposed into
// windows and how the work spread over shards. Wall-clock diagnostics only —
// MultiShardWindows and Parks depend on the shard count and the scheduler,
// so none of it may reach figure bytes.
type ShardedStats struct {
	// Windows counts executed windows; MultiShardWindows those with more
	// than one active shard, the ones that went through the barrier.
	Windows, MultiShardWindows uint64
	// ShardEvents is each shard's executed-event count.
	ShardEvents []uint64
	// LaneEvents counts the executed events, over all shards, that were
	// served from the shards' FIFO lanes (Sim.LaneExecuted) instead of
	// their heaps.
	LaneEvents uint64
	// Parks counts waits that outlasted the spin budget and slept.
	Parks uint64
}

// Stats returns the counters accumulated since NewSharded. Call it between
// runs, not from an event.
func (p *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Windows:           p.windows,
		MultiShardWindows: p.multiWindows,
		ShardEvents:       make([]uint64, len(p.shards)),
	}
	for i, s := range p.shards {
		st.ShardEvents[i] = s.Executed
		st.LaneEvents += s.LaneExecuted()
	}
	p.mu.Lock()
	st.Parks = p.parks
	p.mu.Unlock()
	return st
}

// Executed sums executed events across shards — the figure-visible cost
// metric; a pure function of the executed set, so identical at any K.
func (p *Sharded) Executed() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.Executed
	}
	return n
}

// Pending sums queued events across shards.
func (p *Sharded) Pending() int {
	n := 0
	for _, s := range p.shards {
		n += s.Pending()
	}
	return n
}

// QueueHighWater sums the per-shard queue high-water marks: an upper bound
// on the global peak (shards rarely peak in the same window), reported as
// the aggregate kernel-health stat where a single kernel would report its
// own mark.
func (p *Sharded) QueueHighWater() int {
	n := 0
	for _, s := range p.shards {
		n += s.QueueHighWater()
	}
	return n
}
