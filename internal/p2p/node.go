package p2p

import "time"

// Handler processes an incoming request or one-way message at a node.
// Handlers run as kernel events: they may send, request, and schedule, but
// must not block (there is nothing to block on — the runtime is
// callback-driven).
type Handler func(n *Node, env Envelope)

// call is one outstanding request parked in the inflight map. The timeout
// event does not cancel; it checks whether the MsgID is still inflight, so
// a response that arrived first wins the race by deleting the entry.
// Stored by value — two function words — so parking a request costs no
// allocation beyond the caller's own callbacks.
type call struct {
	onReply   func(Envelope)
	onTimeout func()
}

// Node is one runtime endpoint: an inbox dispatching by message type, an
// inflight map correlating responses to requests, and an up/down flag the
// churn generator toggles.
type Node struct {
	// ID is the node's matrix index.
	ID NodeID

	rt       Transport
	alive    bool
	handlers map[string]Handler
	inflight map[uint64]call

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
func (n *Node) Handle(typ string, h Handler) { n.handlers[typ] = h }

// Stop crashes the node: it stops receiving, and every outstanding request
// it made is forgotten — their timeout events will find nothing to fire.
func (n *Node) Stop() {
	if n.alive {
		n.rt.noteLive(-1)
	}
	n.alive = false
	n.inflight = make(map[uint64]call)
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
	n.inflight = make(map[uint64]call)
	n.gen++
	n.suspicion = nil
}

// Send transmits a one-way message (no correlation, no timeout) and
// returns the envelope's MsgID. The ID lets a protocol correlate a one-way
// exchange itself — a responder can echo it in its own one-way answer —
// without parking anything in the inflight map (the Vivaldi gossip protocol
// does exactly this to keep its hot path free of per-request closures).
func (n *Node) Send(to NodeID, typ string, payload any) uint64 {
	id := n.rt.allocMsgIDFor(n.ID)
	n.rt.send(Envelope{Type: typ, From: n.ID, To: to, MsgID: id, Payload: payload})
	return id
}

// Request transmits a request and parks a waiter in the inflight map.
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
	n.inflight[id] = call{onReply: onReply, onTimeout: onTimeout}
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
		if c, ok := n.inflight[env.MsgID]; ok {
			delete(n.inflight, env.MsgID)
			if c.onReply != nil {
				c.onReply(env)
			}
		}
		return
	}
	if h, ok := n.handlers[env.Type]; ok {
		h(n, env)
	}
}

// expire fires a request timeout at this node: the mirror of the response
// path in deliver, reached through the runtime's typed timeout event.
func (n *Node) expire(msgID uint64) {
	c, ok := n.inflight[msgID]
	if !ok || !n.alive {
		return // answered, or we restarted meanwhile
	}
	delete(n.inflight, msgID)
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
