// The Transport seam: the interface between protocol code (chord, and the
// scheme wires layered in other packages) and
// the machinery that actually carries its messages.
//
// Three implementations exist:
//
//   - *Runtime (runtime.go): the virtual-time simulation transport — a
//     discrete-event kernel (serial or sharded), a latency matrix pricing
//     every link, the fault-plan hook, and the zero-alloc envelope slabs. All
//     figures run here; its behavior is pinned byte-for-byte by the golden
//     tests.
//   - *Loopback (loopback.go): an in-process live transport — real
//     goroutines, wall-clock timers, envelopes passed through a single
//     serializing event loop, link delays priced from the same latency
//     matrix. The differential conformance tests run the same protocol
//     code here and assert it agrees with the simulated oracle.
//   - *UDP (udp.go): a real datagram transport — one socket per local
//     node, a length-prefixed envelope codec, a read loop per socket, and
//     the same event loop serializing deliveries. cmd/npnode serves a node
//     over it.
//
// What all three share is what the seam holds: a node registry, a clock
// per node, one timer — a registered handler and a word of argument,
// scheduled at a node's home context — and the unexported core
// (send/timeout, Node's own timers, and the lookup flight recorder that
// Query and chord's lookup driver write into). No seam method takes a
// func: what a timer carries is a (handler, argument) pair, a stable
// token, never a closure. Protocol code written against it runs unchanged
// on all three: the inflight/MsgID correlation, timeout races, and
// handler dispatch live in Node and are shared, so a protocol debugged in
// virtual time is the protocol deployed on the wire.
//
// What only the simulator has stays on *Runtime: the sharded kernel
// (Sharded, ShardOf, Handoff; chord, the one protocol that shards, takes
// it from the *Runtime it was given) and latency-scoped multicast. The
// Section 5 expanding-ring search (expand.go) is therefore simulator-only:
// a multicast scoped by a latency radius needs the simulator's link oracle
// to decide who is inside the radius.

package p2p

import (
	"time"

	"nearestpeer/internal/obs"
	"nearestpeer/internal/sim"
)

// Transport is what protocol code sees of the runtime carrying its
// messages: node lifecycle, per-node clocks, and one timer. A node's
// metrics account travels with the node (Node.Metrics); the flight
// recorder is attached per transport (AttachRecorder) and written only by
// Query and chord's lookup driver. The unexported core (sending, timeout
// parking, msg-id allocation, Node's timers, the recorder) keeps the set
// of implementations closed within this package — Node's hot path calls
// it, and its invariants (exactly-once timeout/reply races, allocation
// discipline) are only enforceable here.
//
// Implementations differ in what they can promise:
//
//   - *Runtime is single-threaded per shard and deterministic; every
//     method maps to kernel events in virtual time.
//   - The live transports (*Loopback, *UDP) run callbacks on one event
//     loop goroutine with wall-clock timers. They are not deterministic;
//     protocol entry points must be invoked on the loop (see Loopback.Do).
type Transport interface {
	// AddNode registers (or returns) the node for an ID, bringing a new
	// node up alive. See Runtime.AddNode for resurrection semantics.
	AddNode(id NodeID) *Node
	// Node returns the registered node for id, or nil.
	Node(id NodeID) *Node
	// Alive reports whether id is registered and up.
	Alive(id NodeID) bool
	// Population returns the ID-space bound: node IDs live in
	// [0, Population). Protocol packages size dense per-node state with it.
	Population() int

	// Now returns the clock at a node's home context: virtual time on the
	// simulator, wall time since transport start on the live transports.
	Now(id NodeID) time.Duration
	// After runs the registered timer h with arg at a node's home context
	// after d: a typed event on the node's home shard kernel (simulator),
	// a post to the event loop (live). It must be called from that home
	// context — an event at the node, or setup code. Scheduling allocates
	// nothing on the simulator; arg must fit sim.MaxHandlerArg.
	After(id NodeID, d time.Duration, h sim.HandlerID, arg uint64)
	// RegisterHandler registers a timer once per transport — on every shard
	// kernel of a sharded runtime, in lockstep, so the returned ID is valid
	// at every node — and returns the ID After takes. The timer runs on the
	// home context of the node it was scheduled at, so it may touch only
	// that node's state. Setup context only.
	RegisterHandler(t Timer) sim.HandlerID

	// send prices, maybe drops, and schedules delivery of one envelope.
	send(env Envelope)
	// allocMsgIDFor hands out transport-unique correlation IDs.
	allocMsgIDFor(id NodeID) uint64
	// timeoutAt schedules a request expiry for (n, msgID) after d.
	timeoutAt(d time.Duration, n *Node, msgID uint64)
	// core is what Node reads of its transport directly: the validated
	// Config and the IDs of the timers Node arms itself.
	core() *nodeCore
	// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
	noteLive(delta int)
	// recorder returns the attached lookup flight recorder, or nil: Query
	// and chord's lookup driver write their hops into it.
	recorder() *obs.Recorder
}

// Timer is what RegisterHandler registers: Fire runs each time an After
// scheduled for it comes due, with that After's arg.
type Timer interface {
	Fire(arg uint64)
}

// TimerFunc adapts a function to a Timer.
type TimerFunc func(arg uint64)

// Fire calls f(arg).
func (f TimerFunc) Fire(arg uint64) { f(arg) }

// TickArg packs a member incarnation into a timer argument: the low 16
// bits of epoch above the 32-bit node ID. A member's timer chain goes on
// only while TickArg of its current epoch still equals the argument, so
// the chain of a replaced incarnation dies at its next tick.
func TickArg(epoch uint32, id NodeID) uint64 {
	return uint64(epoch&0xFFFF)<<32 | uint64(uint32(id))
}

// TickNode is the node a TickArg names.
func TickNode(arg uint64) NodeID { return NodeID(uint32(arg)) }

// nodeCore is the unexported core's state: the validated Config
// (RPCTimeout defaulted: the expiry used when a caller passes none, and
// the retry policy RequestPolicy runs under) and Node's own timers — the
// stop settle (failNext) and the retry backoff (backoffDone).
type nodeCore struct {
	cfg               Config
	settleH, backoffH sim.HandlerID
}

// initCore sets cfg and registers Node's timers on tr.
func (c *nodeCore) initCore(tr Transport, cfg Config) {
	c.cfg = cfg
	c.settleH = tr.RegisterHandler(TimerFunc(func(arg uint64) { tr.Node(NodeID(arg)).failNext() }))
	c.backoffH = tr.RegisterHandler(TimerFunc(func(arg uint64) { tr.Node(TickNode(arg)).backoffDone(arg) }))
}

// Compile-time checks: all three transports implement the seam.
var (
	_ Transport = (*Runtime)(nil)
	_ Transport = (*Loopback)(nil)
	_ Transport = (*UDP)(nil)
)
