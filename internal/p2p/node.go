package p2p

import (
	"cmp"
	"slices"
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

// route is one installed handler: a message type and what runs it.
type route struct {
	typ string
	h   Handler
}

// Node is one runtime endpoint: an inbox dispatching by message type, an
// inflight table correlating responses to requests, and an up/down flag the
// churn generator toggles.
//
// Both tables are small per-node slices, not maps: dispatch runs once per
// delivered message, and hashing the type string and the MsgID there was a
// tenth of a chord trial's CPU. No protocol installs more than about ten
// handlers, so dispatch is a linear scan (type constants share their
// backing bytes, so a hit is a pointer compare). The inflight table is kept
// in MsgID order and binary-searched: a node's MsgIDs come from one
// counter (its home shard's, or the live transport's) and are allocated in
// increasing order, so parking a request is an append, while the fan-out
// schemes that park a couple of hundred probes at once stay logarithmic.
type Node struct {
	// ID is the node's matrix index.
	ID NodeID

	rt       Transport
	alive    bool
	handlers []route
	inflight []call

	// retrySeq numbers RequestPolicy calls for deterministic jitter; gen
	// counts Stop/Restart transitions so parked retry timers from a
	// previous life abort instead of resurrecting stale request chains.
	// suspicion tallies consecutive exhausted retry calls per peer (see
	// policy.go); nil until the retry layer first needs it.
	retrySeq  uint64
	gen       uint64
	suspicion map[NodeID]int
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Transport returns the transport the node lives on.
func (n *Node) Transport() Transport { return n.rt }

// Handle installs the handler for a message type (replacing any previous
// one). Messages with no handler and no inflight correlation are dropped,
// as an unknown UDP datagram would be.
func (n *Node) Handle(typ string, h Handler) {
	for i := range n.handlers {
		if n.handlers[i].typ == typ {
			n.handlers[i].h = h
			return
		}
	}
	n.handlers = append(n.handlers, route{typ: typ, h: h})
}

// handler returns the handler installed for typ, or nil.
func (n *Node) handler(typ string) Handler {
	for i := range n.handlers {
		if n.handlers[i].typ == typ {
			return n.handlers[i].h
		}
	}
	return nil
}

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

// unpark removes and returns the waiter for msgID, if it is inflight.
func (n *Node) unpark(msgID uint64) (call, bool) {
	i, ok := slices.BinarySearchFunc(n.inflight, msgID, func(c call, id uint64) int { return cmp.Compare(c.id, id) })
	if !ok {
		return call{}, false
	}
	c := n.inflight[i]
	n.inflight = slices.Delete(n.inflight, i, i+1) // zeroes the freed slot
	return c, true
}

// forget drops every parked waiter (Stop/Restart), keeping the capacity.
func (n *Node) forget() {
	clear(n.inflight)
	n.inflight = n.inflight[:0]
}

// Stop crashes the node: it stops receiving, and every outstanding request
// it made is forgotten — their timeout events will find nothing to fire.
func (n *Node) Stop() {
	if n.alive {
		n.rt.noteLive(-1)
	}
	n.alive = false
	n.forget()
	n.gen++
	n.suspicion = nil
}

// Restart brings a stopped node back up with its handlers intact and no
// inflight state, as a process restart would.
func (n *Node) Restart() {
	if !n.alive {
		n.rt.noteLive(1)
	}
	n.alive = true
	n.forget()
	n.gen++
	n.suspicion = nil
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
// Exactly one of onReply/onTimeout fires (neither, if this node dies
// first). A non-positive timeout uses the runtime default. The MsgID is
// returned for tests and tracing.
//
// The timeout is a typed kernel event carrying a slab slot (see
// Runtime.timeoutAt), not a closure: protocol-heavy runs park millions of
// requests, and the expiry bookkeeping itself must not allocate.
func (n *Node) Request(to NodeID, typ string, payload any, timeout time.Duration, onReply func(Envelope), onTimeout func()) uint64 {
	if timeout <= 0 {
		timeout = n.rt.defaultRPCTimeout()
	}
	id := n.rt.allocMsgIDFor(n.ID)
	n.park(call{id: id, onReply: onReply, onTimeout: onTimeout})
	n.rt.send(Envelope{Type: typ, From: n.ID, To: to, MsgID: id, Payload: payload})
	n.rt.timeoutAt(timeout, n.ID, id)
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
	if h := n.handler(env.Type); h != nil {
		h(n, env)
	}
}

// expire fires a request timeout at this node: the mirror of the response
// path in deliver, reached through the runtime's typed timeout event.
func (n *Node) expire(msgID uint64) {
	if !n.alive {
		return // stopped: its table was forgotten, and stays inert until Restart
	}
	c, ok := n.unpark(msgID)
	if !ok {
		return // answered, or we restarted meanwhile
	}
	n.rt.MetricsAt(n.ID).Timeouts++
	if c.onTimeout != nil {
		c.onTimeout()
	}
}

// PingSweep is the outcome of sequentially probing a candidate list: the
// nearest responder and the probe bill — the shared candidate-probing step
// of the wire hint schemes (internal/ucl, internal/ipprefix).
type PingSweep struct {
	// Best is the nearest responder (NoNode when nobody answered).
	Best NodeID
	// BestRTT is the measured RTT to Best.
	BestRTT float64
	// Probes counts pings issued; Dead the ones that timed out (stale
	// candidates, loss) — cost paid without an answer.
	Probes int
	Dead   int
	// Found reports whether any candidate answered.
	Found bool
}

// SweepPing pings the targets one after another (query probes) and calls
// done with the nearest responder and the accounting. done fires exactly
// once unless this node dies mid-sweep.
func (n *Node) SweepPing(targets []NodeID, timeout time.Duration, done func(PingSweep)) {
	res := PingSweep{Best: NoNode}
	var step func(i int)
	step = func(i int) {
		if i >= len(targets) {
			done(res)
			return
		}
		res.Probes++
		n.Ping(targets[i], timeout, false, func(rtt float64, ok bool) {
			if !ok {
				res.Dead++
			} else if !res.Found || rtt < res.BestRTT {
				res.Found = true
				res.Best, res.BestRTT = targets[i], rtt
			}
			step(i + 1)
		})
	}
	step(0)
}

// Ping measures the RTT to a peer over the wire: a ping request whose
// round-trip virtual time is the measurement. maint selects the probe
// account (construction/repair vs query cost); the counter increments at
// issue time — cost is paid whether or not the pong comes back, matching
// the static Network's accounting, which has no way to fail. done receives
// (rtt, true) on a pong or (0, false) on timeout.
func (n *Node) Ping(to NodeID, timeout time.Duration, maint bool, done func(rttMs float64, ok bool)) {
	met := n.rt.MetricsAt(n.ID)
	if maint {
		met.MaintProbes++
	} else {
		met.QueryProbes++
	}
	start := n.rt.Now(n.ID)
	n.Request(to, MsgPing, nil, timeout,
		func(Envelope) { done(msOf(n.rt.Now(n.ID)-start), true) },
		func() { done(0, false) })
}
