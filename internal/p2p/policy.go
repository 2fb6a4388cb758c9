// The retry policy layer: per-RPC retry-with-backoff on top of Node's
// single-attempt Request. The policy is a transport setting (Config.Retry),
// read by every RequestPolicy call on that transport; which requests retry
// stays the caller's choice (RequestPolicy retries, Request never does).
// The zero Policy disables everything — a RequestPolicy call on a transport
// with no policy is bit-for-bit a plain Request, which is what keeps the
// unfaulted goldens byte-identical — and an enabled policy re-issues the
// request after deterministic backoff when an attempt times out, so a loss
// burst costs one backoff instead of a failed operation.
//
// Determinism: the jitter draw is a stateless hash of (node, call
// sequence, attempt) — no shared RNG stream — so retry timing is
// identical at any shard count and across runs, and the simulator's
// virtual-time behavior matches the live transports given the same call
// sequence.

package p2p

import (
	"fmt"
	"slices"
	"time"
)

// Policy configures per-RPC retries (Config.Retry). The zero value
// disables retries (one attempt, caller's timeout), so a transport never
// retries until its config opts in.
type Policy struct {
	// Attempts is the total number of tries; values below 2 mean a single
	// attempt (retries disabled).
	Attempts int
	// BaseBackoff is the wait before the second attempt (default 50 ms
	// when enabled with none set); each later wait is backoffMultiplier
	// times the last.
	BaseBackoff time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac of itself, drawn
	// deterministically from (node, call, attempt).
	JitterFrac float64
}

// backoffMultiplier grows the backoff per attempt.
const backoffMultiplier float64 = 2

// demoteAfter is how many consecutive exhausted calls mark a peer suspect
// (Node.Suspect).
const demoteAfter = 2

// Enabled reports whether the policy actually retries.
func (p Policy) Enabled() bool { return p.Attempts > 1 }

// Validate checks the policy's knobs. JitterFrac must be a fraction in
// [0,1]: the jitter draw multiplies the backoff by 1 + JitterFrac*(2u-1)
// with u in [0,1), so any larger fraction can price a negative delay —
// a retry scheduled in the past. The base backoff must not be negative.
// Config.Validate checks it, so every transport constructor rejects an
// invalid policy up front: a typo'd knob fails at construction instead of
// surfacing as a kernel assert deep in a retry chain.
func (p Policy) Validate() error {
	if p.JitterFrac < 0 || p.JitterFrac > 1 {
		return fmt.Errorf("p2p: retry jitter fraction %v out of [0,1]", p.JitterFrac)
	}
	if p.BaseBackoff < 0 {
		return fmt.Errorf("p2p: negative retry base backoff %v", p.BaseBackoff)
	}
	return nil
}

// retryMix hashes (node, call sequence, attempt) to [0, 1) — the same
// splitmix-style finalizer the fault plane uses, so jitter needs no
// stateful RNG and is identical on every transport and shard count.
func retryMix(vals ...uint64) float64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		x ^= (v + 1) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 30)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / (1 << 53)
}

// backoff prices the wait before attempt+1 (attempt counts completed
// tries, so the first backoff is attempt 1).
func (p Policy) backoff(id NodeID, seq uint64, attempt int) time.Duration {
	b := p.BaseBackoff
	if b <= 0 {
		b = 50 * time.Millisecond
	}
	d := float64(b)
	for i := 1; i < attempt; i++ {
		d *= backoffMultiplier
	}
	if p.JitterFrac > 0 {
		u := retryMix(uint64(id), seq, uint64(attempt))
		d *= 1 + p.JitterFrac*(2*u-1)
	}
	if d < 0 {
		// Defense in depth: Validate rejects JitterFrac > 1, but a policy
		// that skipped validation must still never schedule in the past.
		d = 0
	}
	return time.Duration(d)
}

// retryState is what a node parks outside its inflight table, allocated
// when first needed: the retry layer's state (on its first RequestPolicy
// call under an enabled policy) and the batches its stops failed.
type retryState struct {
	// seq numbers RequestPolicy calls for deterministic jitter; it runs on
	// across Stop/Restart.
	seq uint64
	// suspicion tallies consecutive exhausted calls per peer; nil until a
	// call first exhausts, and reset at Stop.
	suspicion map[NodeID]int
	// waits parks the calls waiting out a backoff, so Stop can fail them
	// (Node.settle) like the requests in flight.
	waits []retryWait
	// failing queues the batches settled by a stop (or a request issued at
	// a stopped node), oldest first, each waiting for its settle event.
	failing [][]call
}

// retryWait is one RequestPolicy call between attempts: everything its
// next attempt needs. Parked by value in retryState.waits while the
// backoff runs; the backoff timer's argument names it (TickArg of its seq
// and node).
type retryWait struct {
	seq       uint64
	gen       uint64 // the node's life the call was made in
	tries     int    // attempts completed
	to        NodeID
	typ       string
	payload   any
	timeout   time.Duration
	onReply   func(Envelope)
	onTimeout func()
}

// retryLayer returns the node's retry state, allocating it on first use.
func (n *Node) retryLayer() *retryState {
	if n.retry == nil {
		n.retry = &retryState{}
	}
	return n.retry
}

// RequestPolicy is Request under the transport's retry policy
// (Config.Retry): a disabled policy issues exactly one attempt with the
// given timeout; an enabled one re-issues the request after backoff each
// time an attempt times out, up to the attempt budget. onReply fires
// on the first response; onTimeout fires once, after the last attempt
// expires. A reply clears the peer's suspicion tally, a fully exhausted
// call increments it (Suspicion). A stop of the node settles the call
// whatever it was doing — an attempt in flight or a backoff — with one
// onTimeout at the stop instant and no further attempt or suspicion; a
// call made at a stopped node fails the same way. The returned MsgID is
// the first attempt's.
func (n *Node) RequestPolicy(to NodeID, typ string, payload any, timeout time.Duration, onReply func(Envelope), onTimeout func()) uint64 {
	if !n.rt.core().cfg.Retry.Enabled() {
		return n.Request(to, typ, payload, timeout, onReply, onTimeout)
	}
	rs := n.retryLayer()
	rs.seq++
	return n.attempt(retryWait{seq: rs.seq, gen: n.gen, to: to, typ: typ, payload: payload,
		timeout: timeout, onReply: onReply, onTimeout: onTimeout})
}

// attempt issues the call's next try. Its timeout either ends the call (an
// exhausted budget, or a stop of the node since the call was made) or
// parks the call for a backoff (scheduleBackoff).
func (n *Node) attempt(w retryWait) uint64 {
	return n.Request(w.to, w.typ, w.payload, w.timeout, func(env Envelope) {
		n.clearSuspicion(w.to)
		if w.onReply != nil {
			w.onReply(env)
		}
	}, func() {
		if stopped := !n.alive || n.gen != w.gen; stopped || w.tries+1 >= n.rt.core().cfg.Retry.Attempts {
			if !stopped {
				n.noteSuspicion(w.to)
			}
			if w.onTimeout != nil {
				w.onTimeout()
			}
			return
		}
		w.tries++
		n.scheduleBackoff(w)
	})
}

// scheduleBackoff parks w and arms the typed timer that ends its backoff.
func (n *Node) scheduleBackoff(w retryWait) {
	rs := n.retry
	rs.waits = append(rs.waits, w)
	c := n.rt.core()
	n.rt.After(n.ID, c.cfg.Retry.backoff(n.ID, w.seq, w.tries), c.backoffH, TickArg(uint32(w.seq), n.ID))
}

// backoffDone is the backoff timer: the parked call arg names takes its
// next attempt, unless a Stop settled it meanwhile — then the chain ends
// here. Two calls parked at once share an argument only if the node made
// 65,536 calls between them; the older goes first.
func (n *Node) backoffDone(arg uint64) {
	rs := n.retry
	i := slices.IndexFunc(rs.waits, func(w retryWait) bool { return TickArg(uint32(w.seq), n.ID) == arg })
	if i < 0 {
		return
	}
	w := rs.waits[i]
	rs.waits = slices.Delete(rs.waits, i, i+1)
	n.metrics.Retries++
	n.attempt(w)
}

// noteSuspicion tallies one fully exhausted call against a peer.
func (n *Node) noteSuspicion(peer NodeID) {
	rs := n.retryLayer()
	if rs.suspicion == nil {
		rs.suspicion = make(map[NodeID]int)
	}
	rs.suspicion[peer]++
}

// clearSuspicion resets a peer's tally (it answered).
func (n *Node) clearSuspicion(peer NodeID) {
	if n.retry != nil {
		delete(n.retry.suspicion, peer)
	}
}

// Suspicion returns how many consecutive RequestPolicy calls to peer
// exhausted every attempt without an answer. Protocols use it to demote
// repeatedly failing peers (try them last, or not at all).
func (n *Node) Suspicion(peer NodeID) int {
	if n.retry == nil {
		return 0
	}
	return n.retry.suspicion[peer]
}

// Retrying reports whether the node's transport retries RequestPolicy
// calls (Config.Retry is enabled).
func (n *Node) Retrying() bool { return n.rt.core().cfg.Retry.Enabled() }

// Suspect reports whether peer has crossed the demotion threshold
// (demoteAfter consecutive exhausted calls) on a transport that retries.
func (n *Node) Suspect(peer NodeID) bool {
	return n.Suspicion(peer) >= demoteAfter && n.Retrying()
}
