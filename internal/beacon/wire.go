// Wire deployment of the beacon schemes: the same beacon infrastructure as
// the static finders — servers holding standing latency rows to every
// member — but the querier's measurements are real pings over the runtime
// and the servers' answers are RPCs that can be lost, delayed, or time out
// when a beacon churns away. The estimation math stays on the servers
// (gsBest, bandMembers — the same helpers the static finders call), so at
// 0% loss the wire query probes the identical candidate list and returns
// the identical peer; under faults the cost of centralisation becomes
// visible: a dead beacon takes its whole latency row out of the estimate.

package beacon

import (
	"math"
	"sort"

	"nearestpeer/internal/p2p"
)

// Message types of the beacon wire protocols.
const (
	// MsgGSBest carries the querier's measured beacon latencies to the
	// estimation server (beacon 0), which owns every beacon's standing row
	// and answers with the least-Hotz-estimate member (gsBestMsg/gsBestOK).
	MsgGSBest   = "b_gsbest"
	MsgGSBestOK = "b_gsbest_ok"
	// MsgBand asks one beacon for the members inside the tolerance band
	// around the querier's measured latency (bandMsg/bandOK).
	MsgBand   = "b_band"
	MsgBandOK = "b_band_ok"
	// MsgEst asks one beacon for its standing latency to each listed
	// candidate, the inputs of the triangulation bound (estMsg/estOK).
	MsgEst   = "b_est"
	MsgEstOK = "b_est_ok"
)

type gsBestMsg struct{ ToBeacon []float64 }
type gsBestOK struct{ Best int }
type bandMsg struct{ ToBeacon float64 }
type bandOK struct{ IDs []int }
type estMsg struct{ IDs []int }
type estOK struct{ Lats []float64 } // aligned with estMsg.IDs; NaN = unknown

func init() {
	p2p.RegisterPayload(MsgGSBest, gsBestMsg{})
	p2p.RegisterPayload(MsgGSBestOK, gsBestOK{})
	p2p.RegisterPayload(MsgBand, bandMsg{})
	p2p.RegisterPayload(MsgBandOK, bandOK{})
	p2p.RegisterPayload(MsgEst, estMsg{})
	p2p.RegisterPayload(MsgEstOK, estOK{})
}

// Wire is a deployed message-level beacon service. Member indices are
// runtime NodeIDs (the infrastructure is built over the runtime's latency
// matrix). The Wire owns its Infrastructure instance: handlers installed on
// beacon nodes serve from its rows, the degenerate-fallback draw consumes
// its stream — build it with the same seed as a static leg's and the two
// stay in lock-step.
type Wire struct {
	inf *Infrastructure
	rt  p2p.Transport
	// beaconIdx maps a beacon node to its index in inf.beacons.
	beaconIdx map[p2p.NodeID]int
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, inf *Infrastructure) *Wire {
	w := &Wire{inf: inf, rt: rt, beaconIdx: make(map[p2p.NodeID]int, len(inf.beacons))}
	for i, b := range inf.beacons {
		w.beaconIdx[p2p.NodeID(b)] = i
	}
	return w
}

// Join brings a member up on the runtime; beacon members get the server
// handlers installed.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	bi, isBeacon := w.beaconIdx[id]
	if !isBeacon {
		return
	}
	n.Handle(MsgBand, func(n *p2p.Node, env p2p.Envelope) {
		bm := env.Payload.(bandMsg)
		n.Reply(env, MsgBandOK, bandOK{IDs: w.inf.bandMembers(bi, bm.ToBeacon, int(env.From))})
	})
	n.Handle(MsgEst, func(n *p2p.Node, env p2p.Envelope) {
		em := env.Payload.(estMsg)
		lats := make([]float64, len(em.IDs))
		for i, id := range em.IDs {
			if l, ok := w.inf.lat[bi][id]; ok {
				lats[i] = l
			} else {
				lats[i] = math.NaN()
			}
		}
		n.Reply(env, MsgEstOK, estOK{Lats: lats})
	})
	if bi == 0 {
		n.Handle(MsgGSBest, func(n *p2p.Node, env p2p.Envelope) {
			gm := env.Payload.(gsBestMsg)
			n.Reply(env, MsgGSBestOK, gsBestOK{Best: w.inf.gsBest(gm.ToBeacon, int(env.From))})
		})
	}
}

// pingBeacons measures the querier's latency to every beacon sequentially
// (NaN marks a beacon that never answered), then hands the vector on.
func (w *Wire) pingBeacons(q *p2p.Query, done func(toBeacon []float64)) {
	toBeacon := make([]float64, len(w.inf.beacons))
	var step func(i int)
	step = func(i int) {
		if i >= len(toBeacon) {
			done(toBeacon)
			return
		}
		q.Ping(p2p.NodeID(w.inf.beacons[i]), func(rtt float64, ok bool) {
			if !ok {
				toBeacon[i] = math.NaN()
			} else {
				toBeacon[i] = rtt
			}
			step(i + 1)
		})
	}
	step(0)
}

// FindNearestGS runs the Guyton–Schwartz query over the wire: ping every
// beacon, send the vector to the estimation server, verify its answer with
// one probe. done fires exactly once unless the client dies mid-query.
func (w *Wire) FindNearestGS(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "guyton", 0)
	w.pingBeacons(q, func(toBeacon []float64) {
		q.Call(p2p.NodeID(w.inf.beacons[0]), MsgGSBest, gsBestMsg{ToBeacon: toBeacon},
			func(env p2p.Envelope) {
				best := env.Payload.(gsBestOK).Best
				if best < 0 {
					done(q.Res)
					return
				}
				q.Sweep([]p2p.NodeID{p2p.NodeID(best)}, func(p2p.NodeID, float64, bool) { done(q.Res) })
			},
			func() { done(q.Res) })
	})
}

// FindNearestBeaconing runs the ICNP 2001 query over the wire: ping every
// beacon, collect each live beacon's band (votes), fetch the triangulation
// inputs for the union, rank exactly as the static finder does, and sweep-
// ping the top candidates. done fires exactly once unless the client dies
// mid-query.
func (w *Wire) FindNearestBeaconing(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "beaconing", 0)
	w.pingBeacons(q, func(toBeacon []float64) {
		votes := make(map[int]int)
		var bands func(i int)
		bands = func(i int) {
			if i >= len(w.inf.beacons) {
				w.estimate(q, toBeacon, votes, done)
				return
			}
			if math.IsNaN(toBeacon[i]) {
				bands(i + 1) // beacon unreachable: no band, no est row either
				return
			}
			q.Call(p2p.NodeID(w.inf.beacons[i]), MsgBand, bandMsg{ToBeacon: toBeacon[i]},
				func(env p2p.Envelope) {
					for _, m := range env.Payload.(bandOK).IDs {
						votes[m]++
					}
					bands(i + 1)
				},
				func() { bands(i + 1) })
		}
		bands(0)
	})
}

// estimate is the second phase of the Beaconing query: fetch each beacon's
// standing latency to the vote union, compute the triangulation lower
// bounds, rank, and probe.
func (w *Wire) estimate(q *p2p.Query, toBeacon []float64, votes map[int]int, done func(p2p.FindResult)) {
	if len(votes) == 0 {
		// Degenerate: fall back to probing a random member — the same draw
		// the static finder makes from the shared structure stream.
		m := w.inf.members[w.inf.src.Intn(len(w.inf.members))]
		q.Sweep([]p2p.NodeID{p2p.NodeID(m)}, func(p2p.NodeID, float64, bool) { done(q.Res) })
		return
	}
	cands := make([]int, 0, len(votes))
	for m := range votes {
		cands = append(cands, m)
	}
	sort.Ints(cands)
	// lats[i][j] is beacon i's standing latency to cands[j] (NaN unknown,
	// whole row NaN when the beacon was unreachable).
	lats := make([][]float64, len(w.inf.beacons))
	var fetch func(i int)
	fetch = func(i int) {
		if i >= len(w.inf.beacons) {
			lower := func(m int) float64 {
				var lo float64
				j := sort.SearchInts(cands, m)
				for i := range lats {
					if lats[i] == nil || math.IsNaN(lats[i][j]) {
						continue
					}
					if d := math.Abs(lats[i][j] - toBeacon[i]); d > lo {
						lo = d
					}
				}
				return lo
			}
			ranked := rankBand(votes, lower, w.inf.cfg.MaxCandidates)
			ids := make([]p2p.NodeID, len(ranked))
			for i, m := range ranked {
				ids[i] = p2p.NodeID(m)
			}
			q.Sweep(ids, func(p2p.NodeID, float64, bool) { done(q.Res) })
			return
		}
		if math.IsNaN(toBeacon[i]) {
			fetch(i + 1)
			return
		}
		q.Call(p2p.NodeID(w.inf.beacons[i]), MsgEst, estMsg{IDs: cands},
			func(env p2p.Envelope) {
				lats[i] = env.Payload.(estOK).Lats
				fetch(i + 1)
			},
			func() { fetch(i + 1) })
	}
	fetch(0)
}
