package p2p

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Handler processes an incoming request or one-way message at a node.
// Handlers run as kernel events: they may send, request, and schedule, but
// must not block (there is nothing to block on — the runtime is
// callback-driven).
type Handler func(n *Node, env Envelope)

// call is one outstanding request parked in the node's inflight table. The
// timeout event does not cancel; it checks whether the MsgID is still
// inflight, so a response that arrived first wins the race by removing the
// entry. Stored by value — the MsgID and two function words — so parking a
// request costs no allocation beyond the caller's own callbacks.
type call struct {
	id        uint64
	onReply   func(Envelope)
	onTimeout func()
}

// route is one table entry: a message type and what runs it.
type route struct {
	typ string
	h   Handler
}

// Table is a dispatch table: the handler for each message type one
// protocol role serves. A protocol builds its tables once per instance and
// role, starting from NewTable, and every node in the role serves the same
// table (Node.Serve). Routes are never written after a table is built —
// With returns a new table — so the shards of a sharded runtime and the
// live event loop read them with no synchronisation. A node given a second
// role serves the union of the two tables, built once per pair of tables
// and shared by every node holding both roles.
//
// Dispatch is a linear scan, not a map: dispatch runs once per delivered
// message, no role serves more than about ten types, and type constants
// share their backing bytes, so a hit is a pointer compare.
type Table struct {
	routes []route
	// roles lists the tables a union was joined from; nil for a table
	// built with With, which is one role.
	roles []*Table

	mu     sync.Mutex
	unions map[*Table]*Table // joined tables by the other role, built on first use
}

// pingTable is the table every node serves from AddNode until a protocol
// serves its own: ping alone.
var pingTable = &Table{routes: []route{{typ: MsgPing, h: handlePing}}}

func handlePing(n *Node, env Envelope) { n.Reply(env, MsgPong, nil) }

// NewTable returns the base of every table: a table answering ping and
// nothing else.
func NewTable() *Table { return pingTable }

// With returns a new table holding t's routes plus h for typ (replacing
// t's handler for typ, if any). t is not modified.
func (t *Table) With(typ string, h Handler) *Table {
	routes := make([]route, 0, len(t.routes)+1)
	for _, r := range t.routes {
		if r.typ != typ {
			routes = append(routes, r)
		}
	}
	return &Table{routes: append(routes, route{typ: typ, h: h})}
}

// handler returns the handler t holds for typ, or nil.
func (t *Table) handler(typ string) Handler {
	for i := range t.routes {
		if t.routes[i].typ == typ {
			return t.routes[i].h
		}
	}
	return nil
}

// roleList returns the roles t holds: its join roles, or t itself.
func (t *Table) roleList() []*Table {
	if t.roles != nil {
		return t.roles
	}
	return []*Table{t}
}

// holds reports whether serving t already serves role (every table serves
// ping's).
func (t *Table) holds(role *Table) bool {
	return role == t || role == pingTable || slices.Contains(t.roles, role)
}

// join returns the table serving t's roles and role's; for a type both
// serve, role's handler wins. Built on the first call for a pair and
// returned from then on; the lock makes that safe from any shard.
func (t *Table) join(role *Table) *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	if u := t.unions[role]; u != nil {
		return u
	}
	routes := slices.Clone(t.routes)
	for _, r := range role.routes {
		if i := slices.IndexFunc(routes, func(x route) bool { return x.typ == r.typ }); i >= 0 {
			routes[i] = r
		} else {
			routes = append(routes, r)
		}
	}
	u := &Table{routes: routes, roles: append(slices.Clone(t.roleList()), role.roleList()...)}
	if t.unions == nil {
		t.unions = make(map[*Table]*Table)
	}
	t.unions[role] = u
	return u
}

// Node is one runtime endpoint: the dispatch table of its protocol role,
// an inflight table correlating responses to requests, and an up/down flag
// the churn generator toggles.
//
// The dispatch table is shared (see Table); the node holds one pointer to
// it. The inflight table is the node's own: a slice, not a map, since
// hashing the MsgID on every delivered response was measurable. It is kept
// in MsgID order and binary-searched: a node's MsgIDs come from one
// counter (its home shard's, or the live transport's) and are allocated in
// increasing order, so parking a request is an append, while the fan-out
// schemes that park a couple of hundred probes at once stay logarithmic.
type Node struct {
	// ID is the node's matrix index.
	ID NodeID

	rt Transport
	// metrics is the node's home account (see Metrics), bound by AddNode.
	metrics *Metrics
	alive   bool
	// sends counts the node's sends a fault plan decided, at its home
	// context: the key of the plan's Loss draw (see nextSend).
	sends    uint32
	table    *Table
	inflight []call

	// gen counts Stop/Restart transitions, so a retry chain can tell a
	// failure from its own life's timeout from one its node's stop dealt
	// it. retry holds what the node parks outside its inflight table —
	// retry chains in backoff and stop batches awaiting their settle
	// event (see policy.go); nil until first needed.
	gen   uint64
	retry *retryState
}

// newNode returns a node brought up alive, serving the ping table.
func newNode(id NodeID, rt Transport, metrics *Metrics) *Node {
	return &Node{ID: id, rt: rt, metrics: metrics, alive: true, table: pingTable}
}

// nextSend returns and advances the send ordinal. Only the transport calls
// it, at the node's home shard or event loop, so the ordinals are the same
// at every shard count and on every transport.
func (n *Node) nextSend() uint32 {
	o := n.sends
	n.sends++
	return o
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Transport returns the transport the node lives on.
func (n *Node) Transport() Transport { return n.rt }

// Metrics returns the account charged for activity at the node: its home
// shard's on the simulator (the only shard's on a serial one), the single
// transport-wide account on the live transports. Only events at the node
// may write it.
func (n *Node) Metrics() *Metrics { return n.metrics }

// Serve gives the node t's role. A node serving only ping takes t itself;
// a node already serving another role takes the union of the two (see
// Table), so one node can be, say, a chord member and a vivaldi member on
// one transport. Messages with no handler in the node's table and no
// inflight correlation are dropped, as an unknown UDP datagram would be.
func (n *Node) Serve(t *Table) {
	switch {
	case n.table.holds(t):
	case n.table == pingTable:
		n.table = t
	default:
		n.table = n.table.join(t)
	}
}

// Handle serves the node's current table extended With(typ, h): this node
// alone gets a table of its own. Protocols build their tables once and Serve
// them; Handle remains for the benchmark module's one-node probes.
func (n *Node) Handle(typ string, h Handler) { n.table = n.table.With(typ, h) }

// park inserts a waiter at its MsgID's place in the inflight table: an
// append, unless a caller off the transport's event order allocated out of
// sequence.
func (n *Node) park(c call) {
	i := len(n.inflight)
	for i > 0 && n.inflight[i-1].id > c.id {
		i--
	}
	n.inflight = slices.Insert(n.inflight, i, c)
}

// callOrder orders the inflight table by MsgID, for binary search.
func callOrder(c call, id uint64) int { return cmp.Compare(c.id, id) }

// parked reports whether the request msgID still waits in the inflight
// table (a live transport's expiry queue asks, to drop answered requests).
func (n *Node) parked(msgID uint64) bool {
	_, ok := slices.BinarySearchFunc(n.inflight, msgID, callOrder)
	return ok
}

// unpark removes and returns the waiter for msgID, if it is inflight.
func (n *Node) unpark(msgID uint64) (call, bool) {
	i, ok := slices.BinarySearchFunc(n.inflight, msgID, callOrder)
	if !ok {
		return call{}, false
	}
	c := n.inflight[i]
	n.inflight = slices.Delete(n.inflight, i, i+1) // zeroes the freed slot
	return c, true
}

// settle unparks every waiter at the node — its requests in flight and its
// retry chains in backoff — and fails each once, in that order, as one
// batch (see failLater): from an event at the node's home context at this
// instant, after the caller's frame. Stop is called from handlers, churn
// and fault events whose own state the failure callbacks may touch.
func (n *Node) settle() {
	var waits []retryWait
	if n.retry != nil {
		waits, n.retry.waits = n.retry.waits, nil
	}
	if len(n.inflight) == 0 && len(waits) == 0 {
		return
	}
	batch := slices.Clone(n.inflight)
	for _, w := range waits {
		batch = append(batch, call{id: w.seq, onTimeout: w.onTimeout})
	}
	clear(n.inflight)
	n.inflight = n.inflight[:0] // keeps the capacity for the next life
	n.failLater(batch)
}

// failLater queues batch at the node and schedules the one timer that
// fails it: After(0) with the settle timer, a kernel event on the
// simulator and a loop post on the live transports. A node's settle events
// all run at its home context in the order they were scheduled, so each
// fails exactly the batch queued with it (failNext pops the oldest).
func (n *Node) failLater(batch []call) {
	rs := n.retryLayer()
	rs.failing = append(rs.failing, batch)
	n.rt.After(n.ID, 0, n.rt.core().settleH, uint64(n.ID))
}

// failNext is the settle timer at the node: it fails the oldest queued
// batch, in order. A callback that queues another batch (a request issued
// at the stopped node) schedules that batch's own event.
func (n *Node) failNext() {
	rs := n.retry
	batch := rs.failing[0]
	rs.failing = slices.Delete(rs.failing, 0, 1)
	for _, c := range batch {
		n.fail(c)
	}
}

// fail settles one waiter its node's stop unparked, or a request issued at
// a stopped node: its onTimeout runs, charged to StopFailures rather than
// Timeouts.
func (n *Node) fail(c call) {
	n.metrics.StopFailures++
	if c.onTimeout != nil {
		c.onTimeout()
	}
}

// Stop crashes the node: it stops receiving, and every outstanding request
// it made — and every retry chain waiting out a backoff — fails exactly
// once, at the stop instant, from an event after Stop returns. A reply,
// expiry or backoff timer from the stopped life that lands later finds
// nothing parked and is dropped.
func (n *Node) Stop() {
	if n.alive {
		n.rt.noteLive(-1)
	}
	n.alive = false
	n.settle()
	n.gen++
	if n.retry != nil {
		n.retry.suspicion = nil
	}
}

// Restart brings a stopped node back up with its handlers intact and
// nothing parked, as a process restart would. Restarting a node that is up
// crashes it first: its outstanding requests fail as at Stop.
func (n *Node) Restart() {
	if n.alive {
		n.Stop()
	}
	n.rt.noteLive(1)
	n.alive = true
	n.gen++
}

// Send transmits a one-way message (no correlation, no timeout) and
// returns the envelope's MsgID. The ID lets a protocol correlate a one-way
// exchange itself — a responder can echo it in its own one-way answer —
// without parking anything in the inflight table (the Vivaldi gossip protocol
// does exactly this to keep its hot path free of per-request closures).
func (n *Node) Send(to NodeID, typ string, payload any) uint64 {
	id := n.rt.allocMsgIDFor(n.ID)
	n.rt.send(Envelope{Type: typ, From: n.ID, To: to, MsgID: id, Payload: payload})
	return id
}

// Request transmits a request and parks a waiter in the inflight table.
// Exactly one of onReply/onTimeout fires, once: onReply on the response,
// onTimeout when the request expires unanswered or when this node stops
// first (at the stop instant; see Stop). A request issued at a stopped
// node sends nothing and parks nothing: its onTimeout fires at once, from
// an event after Request returns, and the MsgID returned is 0. A
// non-positive timeout uses the runtime default. The MsgID is returned for
// tests and tracing.
//
// The timeout is a typed kernel event carrying a slab slot (see
// Runtime.timeoutAt), not a closure: protocol-heavy runs park millions of
// requests, and the expiry bookkeeping itself must not allocate.
func (n *Node) Request(to NodeID, typ string, payload any, timeout time.Duration, onReply func(Envelope), onTimeout func()) uint64 {
	if !n.alive {
		n.failLater([]call{{onTimeout: onTimeout}})
		return 0
	}
	if timeout <= 0 {
		timeout = n.rt.core().cfg.RPCTimeout
	}
	id := n.rt.allocMsgIDFor(n.ID)
	n.park(call{id: id, onReply: onReply, onTimeout: onTimeout})
	n.rt.send(Envelope{Type: typ, From: n.ID, To: to, MsgID: id, Payload: payload})
	n.rt.timeoutAt(timeout, n, id)
	return id
}

// Reply responds to a request, echoing its MsgID so the requester's
// inflight lookup correlates it.
func (n *Node) Reply(req Envelope, typ string, payload any) {
	n.rt.send(Envelope{Type: typ, From: n.ID, To: req.From, MsgID: req.MsgID, Resp: true, Payload: payload})
}

// deliver dispatches an arrived envelope: responses with a MsgID this node
// has inflight go to their waiter, everything else to the type handler.
func (n *Node) deliver(env Envelope) {
	if env.Resp {
		if c, ok := n.unpark(env.MsgID); ok && c.onReply != nil {
			c.onReply(env)
		}
		return
	}
	if h := n.table.handler(env.Type); h != nil {
		h(n, env)
	}
}

// expire fires a request timeout at this node: the mirror of the response
// path in deliver, reached through the runtime's typed timeout event.
func (n *Node) expire(msgID uint64) {
	c, ok := n.unpark(msgID)
	if !ok {
		return // answered, or settled by a Stop meanwhile
	}
	n.metrics.Timeouts++
	if c.onTimeout != nil {
		c.onTimeout()
	}
}

// Ping measures the RTT to a peer over the wire: a ping request whose
// round-trip virtual time is the measurement. maint selects the probe
// account (construction/repair vs query cost); the counter increments at
// issue time — cost is paid whether or not the pong comes back, matching
// the static Network's accounting, which has no way to fail. done receives
// (rtt, true) on a pong or (0, false) on timeout.
func (n *Node) Ping(to NodeID, timeout time.Duration, maint bool, done func(rttMs float64, ok bool)) {
	if maint {
		n.metrics.MaintProbes++
	} else {
		n.metrics.QueryProbes++
	}
	start := n.rt.Now(n.ID)
	n.Request(to, MsgPing, nil, timeout,
		func(Envelope) { done(msOf(n.rt.Now(n.ID)-start), true) },
		func() { done(0, false) })
}
