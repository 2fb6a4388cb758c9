// Wire deployment of the Karger–Ruhl walk: each member serves its own
// distance-scale ball samples as an RPC and the walk's candidate probing is
// real pings over the runtime. At 0% loss the walk visits the identical
// candidates and returns the identical peer (the wire owns a same-seed
// Overlay, so the walk-start draw comes from the same stream); under
// faults a dead walk node ends the walk where it stands.

package kargerruhl

import (
	"math"
	"sort"

	"nearestpeer/internal/p2p"
)

// Message types of the Karger–Ruhl wire protocol.
const (
	// MsgBalls asks a member for its ball samples at a scale and the next
	// one up — the pair the walk inspects per hop (ballsMsg/ballsOK).
	MsgBalls   = "kr_balls"
	MsgBallsOK = "kr_balls_ok"
)

type ballsMsg struct{ Scale int }
type ballsOK struct {
	At   []int // balls[scale]
	Next []int // balls[scale+1], empty at the top scale
}

func init() {
	p2p.RegisterPayload(MsgBalls, ballsMsg{})
	p2p.RegisterPayload(MsgBallsOK, ballsOK{})
}

// Wire is a deployed message-level Karger–Ruhl service. Member indices are
// runtime NodeIDs (the overlay is built over the runtime's latency
// matrix). The Wire owns its Overlay instance; build it with the same seed
// as a static leg's and the two walk identical paths at 0% loss.
type Wire struct {
	base *Overlay
	rt   p2p.Transport
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Overlay) *Wire {
	return &Wire{base: base, rt: rt}
}

// Join brings a member up on the runtime and installs its ball handler.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	n.Handle(MsgBalls, func(n *p2p.Node, env p2p.Envelope) {
		bm := env.Payload.(ballsMsg)
		node := w.base.nodes[int(n.ID)]
		out := ballsOK{}
		if bm.Scale >= 0 && bm.Scale < w.base.cfg.Scales {
			out.At = node.balls[bm.Scale]
			if bm.Scale+1 < w.base.cfg.Scales {
				out.Next = node.balls[bm.Scale+1]
			}
		}
		n.Reply(env, MsgBallsOK, out)
	})
}

// FindNearest runs the Karger–Ruhl walk over the wire from client. done
// fires exactly once unless the client dies mid-query.
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "kargerruhl", 0)
	members := w.base.members
	cur := members[w.base.src.Intn(len(members))]
	visited := map[int]bool{cur: true, int(client): true}

	var step func(cur int, d float64)
	step = func(cur int, d float64) {
		if q.Res.Hops >= w.base.cfg.MaxHops {
			done(q.Res)
			return
		}
		q.Call(p2p.NodeID(cur), MsgBalls, ballsMsg{Scale: w.base.scaleFor(d)},
			func(env p2p.Envelope) {
				bo := env.Payload.(ballsOK)
				cands := make([]int, 0, len(bo.At)+len(bo.Next))
				for _, c := range bo.At {
					if !visited[c] {
						cands = append(cands, c)
					}
				}
				for _, c := range bo.Next {
					if !visited[c] {
						cands = append(cands, c)
					}
				}
				if len(cands) == 0 {
					done(q.Res)
					return
				}
				sort.Ints(cands)
				ids := make([]p2p.NodeID, len(cands))
				for i, c := range cands {
					ids[i] = p2p.NodeID(c)
					visited[c] = true
				}
				q.Sweep(ids, func(best p2p.NodeID, rtt float64, ok bool) {
					if !ok || rtt >= d {
						done(q.Res) // no progress: done, as in the static walk
						return
					}
					q.Res.Hops++
					step(int(best), rtt)
				})
			},
			// The walk node is dead: the walk ends where it stands.
			func() { done(q.Res) })
	}

	// The walk can start at the searcher itself: no initial probe, widest
	// scale — exactly the static walk's degenerate start.
	if cur == int(client) {
		step(cur, math.Inf(1))
		return
	}
	q.Sweep([]p2p.NodeID{p2p.NodeID(cur)}, func(_ p2p.NodeID, rtt float64, ok bool) {
		if !ok {
			done(q.Res) // the chosen start is dead: nothing to walk
			return
		}
		step(cur, rtt)
	})
}
