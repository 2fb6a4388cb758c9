// FindResult — the scheme-independent outcome of a wire nearest-peer
// query, and the only nearest-peer result type on the wire. This package's
// own expanding-ring search reports it, as does every per-scheme Wire under
// internal/{meridian,ucl,ipprefix,vivaldi,beacon,tiers,pic,tapestry,azureus,
// kargerruhl,rendezvous} — which is what lets the
// experiments' scheme registry score all fourteen schemes with one harness
// and one scorer. Those Wires build it through Query, which holds the one
// rule for charging a query's probes and RPCs, for keeping its answer and
// for recording its hops.

package p2p

import (
	"time"

	"nearestpeer/internal/obs"
)

// FindResult reports a wire nearest-peer query's outcome and cost. Counters
// follow the overlay package's methodology: Probes is the cost the paper
// bounds (query-time RTT measurements), RPCs the scheme's own control
// messages (hint fetches, walk handoffs, directory reads), each a
// request/response pair the runtime prices and can lose.
type FindResult struct {
	// Peer is the closest responsive candidate found (NoNode if none).
	Peer NodeID
	// RTTms is the wire-measured RTT to Peer.
	RTTms float64
	// Probes counts candidate pings issued (paid whether or not answered);
	// DeadProbes the ones that timed out — stale candidates, loss, death.
	Probes     int
	DeadProbes int
	// RPCs counts scheme control requests issued (every Query.Call: ring
	// reads, walk handoffs, hint fetches, directory reads); RPCFails the
	// ones whose every attempt expired unanswered. ucl and ipprefix, whose
	// control traffic is a Chord Get, charge their DHT lookups here.
	RPCs     int
	RPCFails int
	// Hops counts the scheme's descent/walk steps (same meaning as the
	// static overlay.Result's Hops).
	Hops int
	// Elapsed is the virtual time from issue to report, for the schemes
	// that time their queries (meridian.Wire, expanding-ring); 0 elsewhere.
	Elapsed time.Duration
	// Found reports whether any candidate answered.
	Found bool
}

// keep is the keep-best rule: a responder replaces the answer only when
// nothing was found yet or it is strictly nearer (ties keep the earlier).
func (r *FindResult) keep(peer NodeID, rttMs float64) {
	if !r.Found || rttMs < r.RTTms {
		r.Peer, r.RTTms, r.Found = peer, rttMs, true
	}
}

// Query is one wire nearest-peer query's bill in the making: the issuing
// node, the FindResult being built, and the timeout its requests go out
// with. Every scheme Wire charges through it:
//
//   - a probe (Ping, Probe, each ping of a Sweep) charges Probes at issue,
//     paid whether or not it is answered, and DeadProbes when it times out;
//   - a control request (Call) charges RPCs at issue, and RPCFails when
//     every attempt expired unanswered;
//   - a Sweep folds each responder into Res by the keep-best rule.
//
// Calls and Probes go out through Node.RequestPolicy, so they retry under
// the transport's Config.Retry; Pings and Sweeps are always single-shot.
// Hops stay the scheme's own to count. Once the issuing node has stopped,
// no callback fires: a dead client's query is abandoned, its done never
// called.
//
// Query is also the flight recorder's one choke point. With a recorder
// attached to the transport, the query opens one lookup and every request
// above writes one obs.Hop under the scheme's label when it settles (one
// per request, however many retries it took): its issue time, the RTT on
// a reply, and HopOK or HopTimeout. A Call issued while the query's
// previous Call had failed is a fallback route and records HopAlternate.
type Query struct {
	// Res is the result being built; the scheme reports it when done.
	Res FindResult

	n       *Node
	scheme  string
	timeout time.Duration

	rec        *obs.Recorder // nil without a recorder
	lookup     uint64
	callFailed bool // the last settled Call expired unanswered
}

// NewQuery starts a query from n with nothing found. scheme labels its
// flight-recorder hops (the scheme's registry name). A non-positive
// timeout uses the transport default.
func NewQuery(n *Node, scheme string, timeout time.Duration) *Query {
	q := &Query{Res: FindResult{Peer: NoNode}, n: n, scheme: scheme, timeout: timeout}
	if q.rec = n.rt.recorder(); q.rec != nil {
		q.lookup = q.rec.Begin()
	}
	return q
}

// Node returns the issuing node.
func (q *Query) Node() *Node { return q.n }

// request sends one request, through RequestPolicy when retry is set and
// as a single-shot Request otherwise, and records its hop when it settles.
// A call is charged to RPCs at issue and RPCFails on a timeout, a probe to
// Probes and DeadProbes. onReply gets the answer and its RTT. Both
// callbacks pass the dead-client guard.
func (q *Query) request(to NodeID, typ string, payload any, retry, call bool, onReply func(Envelope, float64), onFail func()) {
	bill, fails := &q.Res.Probes, &q.Res.DeadProbes
	if call {
		bill, fails = &q.Res.RPCs, &q.Res.RPCFails
	}
	*bill++
	at := q.n.rt.Now(q.n.ID)
	out := obs.HopOK
	if call && q.callFailed {
		out = obs.HopAlternate
	}
	reply := func(env Envelope) {
		if q.n.Alive() {
			rtt := msOf(q.n.rt.Now(q.n.ID) - at)
			if call {
				q.callFailed = false
			}
			q.record(typ, to, at, rtt, out)
			onReply(env, rtt)
		}
	}
	fail := func() {
		if q.n.Alive() {
			*fails++
			if call {
				q.callFailed = true
			}
			q.record(typ, to, at, 0, obs.HopTimeout)
			onFail()
		}
	}
	if retry {
		q.n.RequestPolicy(to, typ, payload, q.timeout, reply, fail)
	} else {
		q.n.Request(to, typ, payload, q.timeout, reply, fail)
	}
}

// record writes one hop to the flight recorder, if one is attached.
func (q *Query) record(typ string, to NodeID, at time.Duration, rttMs float64, out obs.Outcome) {
	if q.rec != nil {
		q.rec.Record(obs.Hop{Lookup: q.lookup, Scheme: q.scheme, Type: typ,
			From: int(q.n.ID), To: int(to), At: at, RTTms: rttMs, Outcome: out})
	}
}

// Call sends one control request (a hint fetch, a walk handoff, a
// directory read) under the transport's retry policy: onReply gets the
// answer, onFail runs once every attempt has expired.
func (q *Query) Call(to NodeID, typ string, payload any, onReply func(Envelope), onFail func()) {
	q.request(to, typ, payload, true, true,
		func(env Envelope, _ float64) { onReply(env) }, onFail)
}

// Probe measures the RTT to a peer with a typ request under the transport's
// retry policy, for a scheme whose probe answer carries state (Vivaldi's
// coordinate probe). then gets the answer and the RTT, or ok false on a
// timeout. The probe also counts in the node's QueryProbes metric.
func (q *Query) Probe(to NodeID, typ string, then func(env Envelope, rttMs float64, ok bool)) {
	q.probe(to, typ, true, then)
}

func (q *Query) probe(to NodeID, typ string, retry bool, then func(env Envelope, rttMs float64, ok bool)) {
	q.n.metrics.QueryProbes++
	q.request(to, typ, nil, retry, false,
		func(env Envelope, rtt float64) { then(env, rtt, true) },
		func() { then(Envelope{}, 0, false) })
}

// Keep folds a responder into Res by the keep-best rule, for a scheme that
// pings concurrently and folds the answers itself, in its own order.
func (q *Query) Keep(peer NodeID, rttMs float64) { q.Res.keep(peer, rttMs) }

// Ping is one single-shot ping probe (Node.Ping's message): then gets the
// RTT, or ok false on a timeout.
func (q *Query) Ping(to NodeID, then func(rttMs float64, ok bool)) {
	q.probe(to, MsgPing, false, func(_ Envelope, rtt float64, ok bool) { then(rtt, ok) })
}

// Sweep pings the targets one after another, folds each responder into Res
// by the keep-best rule, and hands on this sweep's own nearest responder
// (NoNode, 0, false when nobody answered).
func (q *Query) Sweep(targets []NodeID, then func(best NodeID, rttMs float64, ok bool)) {
	own := FindResult{Peer: NoNode}
	var step func(i int)
	step = func(i int) {
		if i == len(targets) {
			then(own.Peer, own.RTTms, own.Found)
			return
		}
		q.Ping(targets[i], func(rtt float64, ok bool) {
			if ok {
				own.keep(targets[i], rtt)
				q.Res.keep(targets[i], rtt)
			}
			step(i + 1)
		})
	}
	step(0)
}
