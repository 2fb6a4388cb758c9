// Wire format and runtime-wide configuration (the package doc lives in
// doc.go).

package p2p

import (
	"fmt"
	"math"
	"time"
)

// NodeID identifies a runtime node. IDs are indices into the underlying
// latency.Matrix, so any matrix row can be brought up as a node.
type NodeID int

// Envelope is the wire format every message shares: a type tag, the
// endpoints, a correlation ID and a protocol-specific payload. MsgID is
// allocated from a runtime-global counter, so a request's ID can never
// collide with an ID the receiver itself allocated; Resp marks responses,
// so a node that requests something of itself still dispatches the request
// to its handler rather than mistaking it for the reply.
type Envelope struct {
	Type    string
	From    NodeID
	To      NodeID
	MsgID   uint64
	Resp    bool
	Payload any
}

// Built-in message types. Protocols on top (chord, expanding ring, the
// scheme wires) define their own type tags; only ping/pong is wired into every
// node, because RTT measurement is the primitive all of them share.
const (
	MsgPing = "ping"
	MsgPong = "pong"
)

// Metrics aggregates runtime-wide cost counters. Probe counters follow the
// overlay package's methodology: QueryProbes is the cost the paper bounds
// (RTT measurements issued while answering a query), MaintProbes is
// overlay construction and repair. Message counters are the wire-level
// view the static simulator cannot provide.
type Metrics struct {
	// MsgsSent counts every envelope handed to the transport.
	MsgsSent int64
	// MsgsDelivered counts envelopes that reached a live inbox.
	MsgsDelivered int64
	// MsgsLost counts envelopes the fault plan dropped (see FaultDropped).
	MsgsLost int64
	// MsgsDead counts envelopes that arrived at a crashed or absent node.
	MsgsDead int64
	// MsgsMulticast counts the envelopes sent on behalf of Multicast calls
	// (each copy is also counted in MsgsSent).
	MsgsMulticast int64
	// QueryProbes counts query-time RTT measurements (pings) issued.
	QueryProbes int64
	// MaintProbes counts maintenance RTT measurements issued.
	MaintProbes int64
	// ExpiriesScheduled counts request expiries scheduled; ExpiriesFired
	// counts those that ran. On the simulator every expiry runs, so the
	// difference is the number still parked in the timeout slab
	// (Runtime.PendingExpiries). The live transports drop the expiry of an
	// answered request unfired, so there scheduled = fired +
	// SettledExpiries() + PendingExpiries(). The invariants tests assert
	// both identities.
	ExpiriesScheduled int64
	ExpiriesFired     int64
	// Timeouts counts RPCs that expired without a response (the subset of
	// ExpiriesFired whose request was still outstanding at a live node).
	Timeouts int64
	// StopFailures counts requests failed by their node's stop: each one
	// parked at a node that stops (a retry chain waiting out a backoff
	// included) fails once, at the stop instant, and so does each request
	// issued at a stopped node. They are not Timeouts: the timeouts a
	// node's callbacks see are Timeouts + StopFailures.
	StopFailures int64
	// FaultDropped counts envelopes discarded by the fault plane (loss,
	// bursts, black-holes, partitions). Each is also counted in MsgsLost,
	// so the sent = delivered + lost + dead (+ inflight) accounting
	// identity holds with faults injected.
	FaultDropped int64
	// FaultDelayed counts envelopes whose one-way delay the fault plane
	// stretched (delay spikes, reordering holds).
	FaultDelayed int64
	// FaultDuplicated counts the extra copies the fault plane injected
	// (each copy is also counted in MsgsSent).
	FaultDuplicated int64
	// Retries counts the extra request attempts issued by the retry policy
	// layer (attempt 2 and onward of a Node.RequestPolicy call).
	Retries int64
}

// Add adds o's counters into m, field by field (per-shard accounts summed
// into one; TestMetricsAddCoversEveryField keeps the list complete).
func (m *Metrics) Add(o Metrics) {
	m.MsgsSent += o.MsgsSent
	m.MsgsDelivered += o.MsgsDelivered
	m.MsgsLost += o.MsgsLost
	m.MsgsDead += o.MsgsDead
	m.MsgsMulticast += o.MsgsMulticast
	m.QueryProbes += o.QueryProbes
	m.MaintProbes += o.MaintProbes
	m.ExpiriesScheduled += o.ExpiriesScheduled
	m.ExpiriesFired += o.ExpiriesFired
	m.Timeouts += o.Timeouts
	m.StopFailures += o.StopFailures
	m.FaultDropped += o.FaultDropped
	m.FaultDelayed += o.FaultDelayed
	m.FaultDuplicated += o.FaultDuplicated
	m.Retries += o.Retries
}

// Config parameterises a Runtime.
type Config struct {
	// RPCTimeout is the default request expiry used when a caller passes
	// a non-positive timeout.
	RPCTimeout time.Duration
	// Retry is the retry policy every Node.RequestPolicy call on this
	// transport runs under (and with it Query.Call and Query.Probe). The
	// zero value disables retries. Requests sent any other way (Request,
	// Ping, Sweep, Send, Multicast) are always single-shot.
	Retry Policy
}

// Validate checks the configuration's knobs: the RPC timeout must not be
// negative (zero means "use the default") and the retry policy must pass
// Policy.Validate. Every transport constructor rejects an invalid Config up
// front, so a typo'd knob fails at construction instead of surfacing as an
// RPC that expires before it is sent, or a retry scheduled in the past.
func (c Config) Validate() error {
	if c.RPCTimeout < 0 {
		return fmt.Errorf("p2p: negative RPC timeout %v", c.RPCTimeout)
	}
	return c.Retry.Validate()
}

// DefaultConfig returns a runtime with a 2 s RPC timeout —
// generous against the ≤ ~400 ms RTTs the latency models produce, so a
// timeout always means loss or death, never a slow link.
func DefaultConfig() Config {
	return Config{RPCTimeout: 2 * time.Second}
}

// durOf converts float64 milliseconds to a virtual-time duration, rounding
// to the nearest nanosecond: truncation would shave a nanosecond off
// latencies whose float image lands just under an integer, breaking the
// round-trip-equals-matrix-entry invariant for values that ARE exactly
// representable in nanoseconds.
func durOf(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// msOf converts a virtual-time duration to float64 milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
