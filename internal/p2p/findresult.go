// FindResult — the scheme-independent outcome of a wire nearest-peer
// query, and the only nearest-peer result type on the wire. This package's
// own Meridian walk and expanding-ring search report it, as does every
// per-scheme Wire under internal/{ucl,ipprefix,vivaldi,beacon,tiers,pic,
// tapestry,azureus,kargerruhl,rendezvous} — which is what lets the
// experiments' scheme registry score all fourteen schemes with one harness
// and one scorer.

package p2p

import "time"

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
	// RPCs counts scheme control requests issued; RPCFails the ones whose
	// every attempt expired unanswered.
	RPCs     int
	RPCFails int
	// Hops counts the scheme's descent/walk steps (same meaning as the
	// static overlay.Result's Hops).
	Hops int
	// Elapsed is the virtual time from issue to report, for the schemes
	// that time their queries (Meridian, expanding-ring); 0 elsewhere.
	Elapsed time.Duration
	// Found reports whether any candidate answered.
	Found bool
}
