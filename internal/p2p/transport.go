// The Transport seam: the interface between protocol code (chord, and the
// scheme wires layered in other packages) and
// the machinery that actually carries its messages.
//
// Three implementations exist:
//
//   - *Runtime (runtime.go): the virtual-time simulation transport — a
//     discrete-event kernel (serial or sharded), a latency matrix pricing
//     every link, a loss model, and the zero-alloc envelope slabs. All
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
// and timers per node, typed tick handlers, and the unexported core
// (send/timeout, and the lookup flight recorder that Query and chord's
// lookup driver write into). Protocol code written against it
// runs unchanged on all three: the inflight/MsgID correlation, timeout
// races, and handler dispatch live in Node and are shared, so a protocol
// debugged in virtual time is the protocol deployed on the wire.
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
// messages: node lifecycle, per-node clocks and timers, and typed tick
// handlers. A node's metrics account travels with the node
// (Node.Metrics); the flight recorder is attached per transport
// (AttachRecorder) and written only by Query and chord's lookup driver.
// The unexported core (sending, timeout parking, msg-id allocation, the
// recorder) keeps the set of implementations closed within this
// package — Node's hot path calls it, and its invariants (exactly-once
// timeout/reply races, allocation discipline) are only enforceable here.
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
	// After schedules fn on a node's home context after d.
	After(id NodeID, d time.Duration, fn func())
	// RegisterHandler registers a typed-event handler: the zero-alloc
	// alternative to closure timers for protocols that schedule per-tick
	// (see sim.Sim.RegisterHandler). Live transports accept it too — the
	// handler runs on the event loop. Serial/driver context only.
	RegisterHandler(fn func(arg uint64)) sim.HandlerID
	// AfterHandler schedules a registered typed handler after d on the
	// driver context (shard 0 of a sharded runtime). Serial-only
	// protocols (the Vivaldi wire) pace their tick chains with it.
	AfterHandler(d time.Duration, h sim.HandlerID, arg uint64)

	// send prices, maybe drops, and schedules delivery of one envelope.
	send(env Envelope)
	// allocMsgIDFor hands out transport-unique correlation IDs.
	allocMsgIDFor(id NodeID) uint64
	// timeoutAt schedules a request expiry for (n, msgID) after d.
	timeoutAt(d time.Duration, n *Node, msgID uint64)
	// config is the validated Config the transport was built with, its
	// RPCTimeout defaulted: the expiry used when a caller passes none, and
	// the retry policy RequestPolicy runs under.
	config() *Config
	// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
	noteLive(delta int)
	// recorder returns the attached lookup flight recorder, or nil: Query
	// and chord's lookup driver write their hops into it.
	recorder() *obs.Recorder
}

// Compile-time checks: all three transports implement the seam.
var (
	_ Transport = (*Runtime)(nil)
	_ Transport = (*Loopback)(nil)
	_ Transport = (*UDP)(nil)
)
