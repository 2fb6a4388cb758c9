// Package p2p is a message-level node runtime on the discrete-event kernel:
// the repository's algorithms, which elsewhere run as synchronous function
// calls against a probe-counting latency matrix, here run as protocols —
// typed wire envelopes between per-node inboxes (dispatch by a linear scan
// of a few (type, handler) routes in a table each protocol role shares
// across its nodes), request/response correlation through a
// per-node inflight table kept in MsgID order, per-RPC timeouts, configurable
// packet loss, and a churn generator that drives membership over virtual
// time. The point is to re-measure the paper's cost claims under the
// dynamics real p2p systems have: under the clustering condition a search
// already degenerates into brute-force probing, and loss, timeouts and
// churn only raise the price of every probe.
//
// Two protocols live in this package:
//
//   - The Section 5 expanding multicast search (expand.go): latency-scoped
//     multicast rounds standing in for TTL-scoped IP multicast, on the
//     simulator only (the scope needs its link oracle). Its function-call
//     form, ExpandRing, is the one expanding-ring rule the static legs
//     share, each with its own reach predicate.
//   - A Chord DHT (chord.go): the key-value substrate the Section 5 hint
//     mitigations assume the peers can host themselves — iterative
//     find-successor with per-hop timeouts and retry through alternate
//     candidates, successor-list repair, stabilize/notify rounds with
//     periodic cross-region self-lookups, passive finger learning,
//     replicated stores, and key migration on join. The UCL and IP-prefix
//     hint schemes (internal/ucl, internal/ipprefix) publish and resolve
//     their mappings over it as wire messages. A member's 64 finger slots
//     are an inline array with an index of runs of equal slots, so the
//     per-message table work touches about log₂ N entries, not 64.
//     ChordConfig.Validate lets a front end reject a bad configuration
//     before NewChord would panic on it.
//
// Every nearest-peer scheme's message-level leg is a Wire in the scheme's
// own package, over its static structure — the Section 4 Meridian walk is
// meridian.Wire, serving the static overlay's rings over RPCs, beside
// vivaldi.Wire's gossip-built coordinates — and reports through Query and
// FindResult (findresult.go).
//
// Transport invariant: a request leg travels ⌊durOf(RTT)/2⌋ and a response
// leg the remainder, so a ping measured over messages equals the matrix
// entry exactly at nanosecond resolution — message-level and static
// experiments price a probe identically.
//
// The runtime is deliberately single-goroutine: all sends, deliveries,
// timeouts and handler executions are events on one sim.Sim kernel, so a
// fixed seed replays the exact event order (and `go test -race` has nothing
// to find by construction).
package p2p
