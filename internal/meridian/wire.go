// Wire deployment of the Meridian closest-node walk: each member serves
// the ring entries at about the target's distance as one RPC, and the
// walk's probes are real pings from the searcher over the runtime. At 0%
// loss the walk visits the identical nodes, probes the identical
// candidates and returns the identical peer: the wire owns a same-seed
// Overlay, so the start draw comes from the same stream. (A ping measures
// the matrix entry to the nanosecond, so on a matrix whose entries are not
// whole nanoseconds a ring entry lying exactly on a band edge may fall the
// other way.) Under faults a dead candidate costs a dead probe, and a walk
// node whose ring fetch fails is passed over for the next reporter that
// clears the β test.

package meridian

import (
	"math"
	"sort"
	"time"

	"nearestpeer/internal/p2p"
)

// Message types of the Meridian wire protocol.
const (
	// MsgRings asks a member for its ring entries whose latency, as the
	// member measured it, lies within β of the walk's distance to the
	// target (ringsMsg/ringsOK).
	MsgRings   = "m_rings"
	MsgRingsOK = "m_rings_ok"
)

// ringsMsg carries the walk's current distance to the target; a negative
// D means there is no estimate yet and asks for every entry.
type ringsMsg struct{ D float64 }
type ringsOK struct{ IDs []int }

func init() {
	p2p.RegisterPayload(MsgRings, ringsMsg{})
	p2p.RegisterPayload(MsgRingsOK, ringsOK{})
}

// Wire is a deployed message-level Meridian service. Member indices are
// runtime NodeIDs (the overlay is built over the runtime's latency
// matrix). The Wire owns its Overlay instance; build it with the same seed
// as a static leg's and the two walk identical paths at 0% loss.
type Wire struct {
	base *Overlay
	rt   p2p.Transport
	// table is the member role's dispatch table, served by every member.
	table *p2p.Table
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Overlay) *Wire {
	w := &Wire{base: base, rt: rt}
	w.table = p2p.NewTable().With(MsgRings, w.handleRings)
	return w
}

// Join brings a member up on the runtime, serving the ring handler.
func (w *Wire) Join(id p2p.NodeID) {
	w.rt.AddNode(id).Serve(w.table)
}

// handleRings answers with the member's in-band ring entries, in ring
// order — the candidates the static walk collects at that node. A request
// it cannot read, or one that reaches a node outside the overlay, gets an
// empty reply.
func (w *Wire) handleRings(n *p2p.Node, env p2p.Envelope) {
	var out ringsOK
	o := w.base
	rm, ok := env.Payload.(ringsMsg)
	if ok && o.slot[n.ID] >= 0 {
		lo, hi := (1-o.cfg.Beta)*rm.D, (1+o.cfg.Beta)*rm.D
		off := o.ringOffsets(int(n.ID))
		for _, e := range o.rings[off[0]:off[len(off)-1]] {
			if rm.D < 0 || (e.lat >= lo && e.lat <= hi) {
				out.IDs = append(out.IDs, e.id)
			}
		}
	}
	n.Reply(env, MsgRingsOK, out)
}

// walk is one in-flight query's client-side state.
type walk struct {
	*p2p.Query
	w       *Wire
	visited map[int]bool
	started time.Duration
	done    func(p2p.FindResult)
}

// report is one answered candidate ping of a probe phase.
type report struct {
	id  int
	rtt float64
}

// FindNearest runs the Meridian walk over the wire for the peer nearest
// client: the static findFrom with the ring reads and the probes on the
// wire. done fires exactly once, also when the client stops mid-query (its
// requests fail at the stop, and the walk ends there).
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	o := w.base
	q := &walk{
		Query:   p2p.NewQuery(w.rt.AddNode(client), "meridian", 0),
		w:       w,
		visited: map[int]bool{int(client): true},
		started: w.rt.Now(client),
		done:    done,
	}
	start := o.members[o.src.Intn(len(o.members))]
	q.visited[start] = true
	// The walk can start at the searcher itself: its rings still steer the
	// first hop, but it is no candidate and costs no probe.
	if start == int(client) {
		q.visit(start, math.Inf(1), q.finish)
		return
	}
	q.Sweep([]p2p.NodeID{p2p.NodeID(start)}, func(s p2p.Swept) {
		if !s.Found {
			q.finish() // the chosen start is dead: nothing to walk
			return
		}
		q.visit(start, s.RTTms, q.finish)
	})
}

// visit fetches cur's ring entries at about distance d, pings the
// candidates among them concurrently, and advances on the answers;
// onFail runs instead when the fetch fails.
func (q *walk) visit(cur int, d float64, onFail func()) {
	req := ringsMsg{D: d}
	if math.IsInf(d, 1) {
		req.D = -1
	}
	q.Call(p2p.NodeID(cur), MsgRings, req,
		func(env p2p.Envelope) {
			rep, _ := env.Payload.(ringsOK)
			var cands []int
			for _, c := range rep.IDs {
				if !q.visited[c] && !q.Node().Suspect(p2p.NodeID(c)) {
					cands = append(cands, c)
				}
			}
			if len(cands) == 0 {
				q.finish()
				return
			}
			sort.Ints(cands) // the static walk's probe order
			ids := make([]p2p.NodeID, len(cands))
			for i, c := range cands {
				ids[i] = p2p.NodeID(c)
			}
			// The sweep folds in probe order, so ties keep the earlier
			// candidate as the static walk's strict < does.
			q.Sweep(ids, func(s p2p.Swept) {
				var reports []report
				for i, c := range cands {
					if !math.IsInf(s.RTTs[i], 1) {
						reports = append(reports, report{c, s.RTTs[i]})
					}
				}
				sort.SliceStable(reports, func(a, b int) bool { return reports[a].rtt < reports[b].rtt })
				q.advance(reports, d)
			})
		},
		onFail)
}

// advance forwards the walk to the nearest reporter if it beats β·d; if
// that node's ring fetch fails, the next reporter that passes the same
// test is tried. With none left, or at the hop cap, the walk ends with its
// best.
func (q *walk) advance(reports []report, d float64) {
	o := q.w.base
	if len(reports) == 0 || reports[0].rtt > o.cfg.Beta*d {
		q.finish()
		return
	}
	next := reports[0]
	q.visited[next.id] = true
	q.Res.Hops++
	if q.Res.Hops >= o.maxHops {
		q.finish() // the static loop stops here too, before the ring read
		return
	}
	q.visit(next.id, next.rtt, func() {
		q.Res.Hops-- // a handoff that failed is no hop
		q.advance(reports[1:], d)
	})
}

// finish reports the walk's best.
func (q *walk) finish() {
	q.Res.Elapsed = q.w.rt.Now(q.Node().ID) - q.started
	q.done(q.Res)
}
