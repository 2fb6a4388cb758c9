// Shared machinery of the live transports (Loopback, UDP): a single
// serializing event loop standing in for the simulation kernel's
// single-threaded event dispatch, wall-clock timers posting into it, one
// deadline queue for request expiries — one timer per transport, and
// memory bounded by the requests in flight — and the Transport bookkeeping
// (nodes, metrics, registered timers) that does not depend on how
// envelopes travel.
//
// The contract the loop preserves is the one every protocol in this
// package was written against: all protocol callbacks — handlers, reply
// and timeout closures, registered timers — run one at a time, in one
// goroutine, so protocol state needs no locks. Sockets and wall-clock
// timers run on their own goroutines but only ever post closures into the
// loop; the loop is the only place Node maps and Metrics are touched once
// traffic flows.

package p2p

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/sim"
)

// liveLoop is the serializing event loop: an unbounded FIFO of closures
// drained by one goroutine. Posting never blocks (the queue grows), so
// callbacks running on the loop can post freely without deadlock.
type liveLoop struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	done   chan struct{}
}

func newLiveLoop() *liveLoop {
	l := &liveLoop{done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// post enqueues fn for the loop goroutine. It reports false (dropping fn)
// after close — a timer or socket read landing during shutdown is simply
// discarded, as a datagram to a dead process would be.
func (l *liveLoop) post(fn func()) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.queue = append(l.queue, fn)
	l.mu.Unlock()
	l.cond.Signal()
	return true
}

func (l *liveLoop) run() {
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 { // closed and drained
			l.mu.Unlock()
			close(l.done)
			return
		}
		fn := l.queue[0]
		l.queue[0] = nil
		l.queue = l.queue[1:]
		l.mu.Unlock()
		fn()
		l.mu.Lock()
	}
}

// close drains the already-queued closures, then stops the goroutine.
func (l *liveLoop) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.cond.Signal()
	<-l.done
}

// liveBase is the transport state shared by Loopback and UDP. It
// implements every Transport method except send, which depends on the
// medium; the embedding type supplies it. self points back at the
// embedding transport so nodes created here dispatch sends to the right
// medium.
type liveBase struct {
	self  Transport
	loop  *liveLoop
	start time.Time
	pop   int

	// nodeCore holds the validated Config and Node's timers (see core).
	nodeCore

	// mu guards the registries (nodes, timers) so setup calls may run
	// off-loop; once traffic flows, node internals are loop-confined.
	mu       sync.RWMutex
	nodes    []*Node
	handlers []func(arg uint64)

	msgID atomic.Uint64
	live  atomic.Int64

	// metrics is loop-confined: every increment happens on the loop, and
	// readers use Do (or read after Close) to avoid racing it.
	metrics Metrics

	obsRec *obs.Recorder

	// flt is the optional fault plan (InstallFaults), nil by default.
	// Decisions are priced against wall-clock time since the transport
	// started — the live zero matching the simulator's virtual zero — so
	// the same plan seed produces the same per-window fault sequence on
	// both. Loop-confined once traffic flows (send runs on the loop).
	flt *faults.Plan

	// expiries is the loop-owned deadline queue of request expiries, in
	// MsgID order (an append: Request allocates and schedules on the loop).
	// It holds O(requests in flight), not one record per request sent in
	// the last RPCTimeout: an entry is settled — dropped unfired — once its
	// request is no longer parked at its node (answered, or settled by its
	// node's Stop), and settled entries are swept out whenever the queue
	// grows past twice its length after the last sweep (expBase), and at
	// every wake-up. expTimer is the one wall-clock timer behind the queue,
	// armed for the earliest deadline queued (expAt while expArmed); a
	// wake-up fires every due entry in (deadline, MsgID) order. The timer
	// exists from init, stopped, so Close can stop it without racing the
	// loop. Close stops it after the loop has drained, when nothing can
	// re-arm it: no expiry fires, and no goroutine starts, after Close.
	expiries   []liveExpiry
	expDue     []liveExpiry // one wake-up's due entries, reused
	expBase    int
	expSettled int64 // entries dropped unfired (SettledExpiries)
	expTimer   *time.Timer
	expAt      time.Duration
	expArmed   bool
}

// liveExpiry is one queued request expiry: its deadline (wall time since
// the transport started), the requesting node and the request's MsgID.
type liveExpiry struct {
	at    time.Duration
	n     *Node
	msgID uint64
}

// minExpirySweep is the queue length below which appends never sweep.
const minExpirySweep = 64

func (b *liveBase) init(self Transport, pop int, cfg Config) {
	if pop <= 0 {
		panic(fmt.Sprintf("p2p: live transport population %d", pop))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultConfig().RPCTimeout
	}
	b.self = self
	b.loop = newLiveLoop()
	b.start = time.Now()
	b.pop = pop
	b.nodes = make([]*Node, pop)
	b.initCore(self, cfg)
	expire := b.expireDue
	b.expTimer = time.AfterFunc(time.Hour, func() { b.loop.post(expire) })
	b.expTimer.Stop()
}

// Do runs fn on the event loop and waits for it to finish: the way client
// code (tests, the npnode daemon) invokes protocol entry points, which
// must run serialized with handler callbacks. It must not be called from
// code already running on the loop — post there instead (callbacks never
// need Do: they are already serialized).
func (b *liveBase) Do(fn func()) {
	done := make(chan struct{})
	if !b.loop.post(func() { fn(); close(done) }) {
		return // transport closed; nothing to run against
	}
	<-done
}

// AddNode registers (or returns) the node for an ID, bringing it up
// alive, exactly as Runtime.AddNode does on the simulator. Every node
// charges the transport-wide account.
func (b *liveBase) AddNode(id NodeID) *Node {
	if int(id) < 0 || int(id) >= b.pop {
		panic(fmt.Sprintf("p2p: node %d outside live population %d", id, b.pop))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.nodes[id]; n != nil {
		return n
	}
	n := newNode(id, b.self, &b.metrics)
	b.nodes[id] = n
	b.live.Add(1)
	return n
}

// Node returns the registered node for id, or nil.
func (b *liveBase) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= b.pop {
		return nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.nodes[id]
}

// Alive reports whether id is registered and up.
func (b *liveBase) Alive(id NodeID) bool {
	n := b.Node(id)
	return n != nil && n.alive
}

// Population returns the ID-space bound the transport was created with.
func (b *liveBase) Population() int { return b.pop }

// LiveNodes returns the number of registered nodes currently up.
func (b *liveBase) LiveNodes() int { return int(b.live.Load()) }

// Now returns wall-clock time since the transport started. All nodes of a
// live transport share one clock; the id parameter exists for the sim's
// per-shard clocks.
func (b *liveBase) Now(NodeID) time.Duration { return time.Since(b.start) }

// After runs the registered timer h with arg on the event loop after d
// of wall-clock time. A d of zero or less posts it at once: it runs after
// the closure the loop is running now and before anything posted later,
// with no timer.
func (b *liveBase) After(_ NodeID, d time.Duration, h sim.HandlerID, arg uint64) {
	b.mu.RLock()
	fn := b.handlers[h]
	b.mu.RUnlock()
	fire := func() { fn(arg) }
	if d <= 0 {
		b.loop.post(fire)
		return
	}
	time.AfterFunc(d, func() { b.loop.post(fire) })
}

// RegisterHandler registers a timer, the live counterpart of
// Runtime.RegisterHandler. Timers run on the event loop.
func (b *liveBase) RegisterHandler(t Timer) sim.HandlerID {
	fn := t.Fire
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = append(b.handlers, fn)
	return sim.HandlerID(len(b.handlers) - 1)
}

// SerialMetrics returns the transport-wide metrics. Loop-confined: read
// it via Do, or after Close.
func (b *liveBase) SerialMetrics() *Metrics { return &b.metrics }

// AttachRecorder attaches a lookup flight recorder, as Runtime.
// AttachRecorder does on the simulator. Attach before traffic flows.
func (b *liveBase) AttachRecorder(rec *obs.Recorder) { b.obsRec = rec }

// recorder returns the attached flight recorder, or nil.
func (b *liveBase) recorder() *obs.Recorder { return b.obsRec }

// allocMsgIDFor hands out transport-unique correlation IDs.
func (b *liveBase) allocMsgIDFor(NodeID) uint64 { return b.msgID.Add(1) }

// timeoutAt queues a request expiry for (n, msgID) after d, and re-arms
// the timer only when it becomes the earliest deadline. Runs on the loop
// (Request runs there).
func (b *liveBase) timeoutAt(d time.Duration, n *Node, msgID uint64) {
	b.metrics.ExpiriesScheduled++
	now := time.Since(b.start)
	i := len(b.expiries)
	for i > 0 && b.expiries[i-1].msgID > msgID {
		i--
	}
	b.expiries = slices.Insert(b.expiries, i, liveExpiry{at: now + d, n: n, msgID: msgID})
	if len(b.expiries) > 2*max(b.expBase, minExpirySweep) {
		b.sweepExpiries(-1)
	}
	b.armExpiry(now+d, now)
}

// armExpiry points the timer at deadline at, unless it is already armed
// for that deadline or an earlier one (an early wake-up finds nothing due
// and re-arms).
func (b *liveBase) armExpiry(at, now time.Duration) {
	if b.expArmed && b.expAt <= at {
		return
	}
	b.expArmed, b.expAt = true, at
	b.expTimer.Reset(at - now)
}

// sweepExpiries drops every settled entry and moves the entries due by
// dueBy (none, for a negative dueBy) to expDue, keeping the rest in MsgID
// order. It returns the earliest deadline left in the queue.
func (b *liveBase) sweepExpiries(dueBy time.Duration) (next time.Duration, ok bool) {
	kept := b.expiries[:0]
	for _, e := range b.expiries {
		switch {
		case !e.n.parked(e.msgID):
			b.expSettled++
		case e.at <= dueBy:
			b.expDue = append(b.expDue, e)
		default:
			if !ok || e.at < next {
				next, ok = e.at, true
			}
			kept = append(kept, e)
		}
	}
	clear(b.expiries[len(kept):])
	b.expiries, b.expBase = kept, len(kept)
	return next, ok
}

// expireDue is the timer's closure on the loop: settled entries go, every
// due entry fires in (deadline, MsgID) order, and the timer is re-armed
// for the earliest deadline left. A duplicate wake-up (the timer was
// re-armed while its previous firing was already on its way to the loop)
// fires nothing that is not due. A timeout callback that issues a new
// request queues it as usual: it is never due in the wake-up that issued
// it.
func (b *liveBase) expireDue() {
	b.expArmed = false
	next, ok := b.sweepExpiries(time.Since(b.start))
	due := b.expDue
	slices.SortStableFunc(due, func(x, y liveExpiry) int { return cmp.Compare(x.at, y.at) })
	for i, e := range due {
		due[i] = liveExpiry{}
		b.metrics.ExpiriesFired++
		e.n.expire(e.msgID)
	}
	b.expDue = due[:0]
	if ok {
		b.armExpiry(next, time.Since(b.start))
	}
}

// PendingExpiries returns the number of request expiries still queued
// (ExpiriesScheduled - ExpiriesFired - SettledExpiries): the requests in
// flight, plus answered ones not yet swept. Loop-confined: read it via Do,
// or after Close.
func (b *liveBase) PendingExpiries() int { return len(b.expiries) }

// SettledExpiries returns the number of request expiries the queue dropped
// unfired because their request was no longer outstanding — answered, or
// settled by its node's Stop. The simulator has no counterpart: every one
// of its expiry events runs and counts in ExpiriesFired. Loop-confined:
// read it via Do, or after Close.
func (b *liveBase) SettledExpiries() int64 { return b.expSettled }

// core returns the validated Config and Node's timers.
func (b *liveBase) core() *nodeCore { return &b.nodeCore }

// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
func (b *liveBase) noteLive(delta int) { b.live.Add(int64(delta)) }

// installFaults attaches a validated fault plan (see InstallFaults): the
// medium's send hook reads b.flt. Crash rules are armed over the seam
// (scheduleNodeEvents), as wall-clock timers measured from the transport's
// start. Install before traffic flows.
func (b *liveBase) installFaults(plan *faults.Plan, _ bool) error {
	if b.flt != nil {
		return errSecondPlan
	}
	b.flt = plan
	return nil
}

// faultNow is the plan clock of a live transport: wall time since start.
func (b *liveBase) faultNow() time.Duration { return time.Since(b.start) }

// oneWayDelay splits an RTT into the two legs the simulator uses: the
// request leg gets rtt/2 rounded down, the response leg the remainder, so
// a ping's round trip equals the matrix entry at nanosecond resolution.
func oneWayDelay(rttMs float64, resp bool) time.Duration {
	full := durOf(rttMs)
	half := full / 2
	if resp {
		return full - half
	}
	return half
}
