// Wire deployment of PIC: placement probes become real pings, and each
// greedy-walk hop becomes an RPC to the current node, which picks the next
// hop from its own neighbour list and its stored neighbour coordinates —
// the state a PIC member actually holds. Endpoint verification is a ping
// sweep. At 0% loss the walks follow the static finder's paths (the wire
// owns a same-seed Finder, so the walk-start draws come from the same
// stream); under faults a dead node is a wall the walk stops at.

package pic

import (
	"sort"

	"nearestpeer/internal/p2p"
	"nearestpeer/internal/vivaldi"
)

// Message types of the PIC wire protocol.
const (
	// MsgStep asks a member for the greedy next hop toward a target
	// coordinate (stepMsg/stepOK).
	MsgStep   = "pic_step"
	MsgStepOK = "pic_step_ok"
)

type stepMsg struct {
	Vec    []float64
	Height float64
}
type stepOK struct{ Next int } // -1: local minimum, the walk ends here

func init() {
	p2p.RegisterPayload(MsgStep, stepMsg{})
	p2p.RegisterPayload(MsgStepOK, stepOK{})
}

// Wire is a deployed message-level PIC service. Member indices are runtime
// NodeIDs (the underlying Vivaldi system is built over the runtime's
// latency matrix). The Wire owns its Finder instance; build it with the
// same seeds as a static leg's and the two walk identical paths at 0% loss.
// The coordinate-recomputation variant is not wired (its per-hop
// re-placement would need the walk to carry a probe budget); NewWire
// rejects it.
type Wire struct {
	base *Finder
	rt   p2p.Transport
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Finder) *Wire {
	if base.cfg.Recompute {
		panic("pic: the recompute variant is not wired")
	}
	return &Wire{base: base, rt: rt}
}

// Join brings a member up on the runtime and installs its next-hop handler.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	n.Handle(MsgStep, func(n *p2p.Node, env p2p.Envelope) {
		sm := env.Payload.(stepMsg)
		tc := &vivaldi.Coord{Vec: sm.Vec, Height: sm.Height}
		cur := int(n.ID)
		curDist := tc.DistanceMs(w.base.sys.CoordOf(cur))
		next, nextDist := -1, curDist
		for _, nb := range w.base.neighbors[cur] {
			if d := tc.DistanceMs(w.base.sys.CoordOf(nb)); d < nextDist {
				next, nextDist = nb, d
			}
		}
		n.Reply(env, MsgStepOK, stepOK{Next: next})
	})
}

// FindNearest runs the PIC query over the wire from client: ping the
// placement sample, embed locally, run the greedy walks as per-hop RPCs,
// sweep-ping the walk endpoints. done fires exactly once unless the client
// dies mid-query.
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "pic", 0)
	sample := w.base.sys.SamplePlacement(int(client), w.base.cfg.Landmarks)
	var obs []vivaldi.PlacementObservation

	var place func(i int)
	place = func(i int) {
		if i >= len(sample) {
			tc := w.base.sys.PlaceObservations(obs)
			w.walk(q, tc, 0, nil, done)
			return
		}
		q.Ping(p2p.NodeID(sample[i]), func(rtt float64, ok bool) {
			if ok { // a dead landmark contributes no observation
				obs = append(obs, vivaldi.PlacementObservation{Coord: w.base.sys.CoordOf(sample[i]), RTTms: rtt})
			}
			place(i + 1)
		})
	}
	place(0)
}

// walk runs greedy walk number wi, then the next, accumulating endpoints;
// after the last it sweeps the endpoint set.
func (w *Wire) walk(q *p2p.Query, tc *vivaldi.Coord, wi int, endpoints []int, done func(p2p.FindResult)) {
	if wi >= w.base.cfg.Walks {
		w.verify(q, endpoints, done)
		return
	}
	members := w.base.sys.Members()
	cur := members[w.base.src.Intn(len(members))]
	var hop func(cur, h int)
	hop = func(cur, h int) {
		if h >= w.base.cfg.MaxHops {
			w.walk(q, tc, wi+1, appendUnique(endpoints, cur), done)
			return
		}
		q.Call(p2p.NodeID(cur), MsgStep, stepMsg{Vec: tc.Vec, Height: tc.Height},
			func(env p2p.Envelope) {
				next := env.Payload.(stepOK).Next
				if next < 0 {
					w.walk(q, tc, wi+1, appendUnique(endpoints, cur), done)
					return
				}
				q.Res.Hops++
				hop(next, h+1)
			},
			// The current node is dead: the walk ends where it stands.
			func() { w.walk(q, tc, wi+1, appendUnique(endpoints, cur), done) })
	}
	hop(cur, 0)
}

// verify sweep-pings the walk endpoints (sorted, the searcher excluded).
func (w *Wire) verify(q *p2p.Query, endpoints []int, done func(p2p.FindResult)) {
	sort.Ints(endpoints)
	ids := make([]p2p.NodeID, 0, len(endpoints))
	for _, id := range endpoints {
		if p2p.NodeID(id) != q.Node().ID {
			ids = append(ids, p2p.NodeID(id))
		}
	}
	q.Sweep(ids, func(p2p.NodeID, float64, bool) { done(q.Res) })
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
