// Shared machinery of the live transports (Loopback, UDP): a single
// serializing event loop standing in for the simulation kernel's
// single-threaded event dispatch, wall-clock timers posting into it, and
// the Transport bookkeeping (nodes, metrics, typed handlers) that does
// not depend on how envelopes travel.
//
// The contract the loop preserves is the one every protocol in this
// package was written against: all protocol callbacks — handlers, reply
// and timeout closures, timers — run one at a time, in one goroutine, so
// protocol state needs no locks. Sockets and timers run on their own
// goroutines but only ever post closures into the loop; the loop is the
// only place Node maps and Metrics are touched once traffic flows.

package p2p

import (
	"fmt"
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
	cfg   Config
	pop   int

	// mu guards the registries (nodes, typed handlers) so setup calls may
	// run off-loop; once traffic flows, node internals are loop-confined.
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
}

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
	b.cfg = cfg
	b.pop = pop
	b.nodes = make([]*Node, pop)
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
	n := &Node{
		ID:      id,
		rt:      b.self,
		metrics: &b.metrics,
		alive:   true,
	}
	n.Handle(MsgPing, func(n *Node, env Envelope) {
		n.Reply(env, MsgPong, nil)
	})
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

// After schedules fn on the event loop after d of wall-clock time.
func (b *liveBase) After(_ NodeID, d time.Duration, fn func()) {
	time.AfterFunc(d, func() { b.loop.post(fn) })
}

// RegisterHandler registers a typed-event handler, the live counterpart of
// sim.Sim.RegisterHandler. Handlers run on the event loop.
func (b *liveBase) RegisterHandler(fn func(arg uint64)) sim.HandlerID {
	if fn == nil {
		panic("p2p: RegisterHandler(nil)")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = append(b.handlers, fn)
	return sim.HandlerID(len(b.handlers) - 1)
}

// AfterHandler schedules a registered typed handler after d of wall-clock
// time, on the event loop.
func (b *liveBase) AfterHandler(d time.Duration, h sim.HandlerID, arg uint64) {
	b.mu.RLock()
	fn := b.handlers[h]
	b.mu.RUnlock()
	time.AfterFunc(d, func() { b.loop.post(func() { fn(arg) }) })
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

// timeoutAt schedules a request expiry for (node, msgID) after d.
func (b *liveBase) timeoutAt(d time.Duration, node NodeID, msgID uint64) {
	b.metrics.ExpiriesScheduled++ // on loop: Request runs there
	time.AfterFunc(d, func() {
		b.loop.post(func() {
			b.metrics.ExpiriesFired++
			if n := b.Node(node); n != nil {
				n.expire(msgID)
			}
		})
	})
}

// config is the validated Config, RPCTimeout defaulted.
func (b *liveBase) config() *Config { return &b.cfg }

// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
func (b *liveBase) noteLive(delta int) { b.live.Add(int64(delta)) }

// installFaults attaches a validated fault plan (see InstallFaults): the
// medium's send hook reads b.flt, and the plan's crash/restart schedule
// is armed as wall-clock timers measured from the transport's start.
// Install before traffic flows.
func (b *liveBase) installFaults(plan *faults.Plan) error {
	if b.flt != nil {
		return errSecondPlan
	}
	b.flt = plan
	now := time.Since(b.start)
	for _, ev := range plan.NodeEvents(b.pop) {
		ev := ev
		d := ev.At - now
		if d < 0 {
			d = 0
		}
		b.After(NodeID(ev.Node), d, func() {
			n := b.Node(NodeID(ev.Node))
			if n == nil {
				return
			}
			if ev.Up {
				n.Restart()
			} else {
				n.Stop()
			}
		})
	}
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
