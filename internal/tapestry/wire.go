// Wire deployment of the Tapestry nearest-neighbour walk: each member
// serves its own per-level neighbour lists as RPCs, and the searcher's
// probes become real pings memoised client-side, exactly as the static
// walk memoises them. At 0% loss the descent visits the identical contact
// sets and returns the identical peer (the wire owns a same-seed Overlay,
// so the gateway draw comes from the same stream); under faults a dead
// contact contributes no neighbours and the walk narrows around it.

package tapestry

import (
	"math"
	"sort"

	"nearestpeer/internal/p2p"
)

// Message types of the Tapestry wire protocol.
const (
	// MsgLevels asks a member for its neighbour list at one routing level
	// (levelsMsg/levelsOK).
	MsgLevels   = "tap_levels"
	MsgLevelsOK = "tap_levels_ok"
)

type levelsMsg struct{ Level int }
type levelsOK struct{ IDs []int }

func init() {
	p2p.RegisterPayload(MsgLevels, levelsMsg{})
	p2p.RegisterPayload(MsgLevelsOK, levelsOK{})
}

// Wire is a deployed message-level Tapestry service. Member indices are
// runtime NodeIDs (the overlay is built over the runtime's latency
// matrix). The Wire owns its Overlay instance; build it with the same seed
// as a static leg's and the two walk identical descents at 0% loss.
type Wire struct {
	base *Overlay
	rt   p2p.Transport
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Overlay) *Wire {
	return &Wire{base: base, rt: rt}
}

// Join brings a member up on the runtime and installs its level handler.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	n.Handle(MsgLevels, func(n *p2p.Node, env p2p.Envelope) {
		lm := env.Payload.(levelsMsg)
		var ids []int
		if lm.Level >= 0 && lm.Level < len(w.base.nodes[int(n.ID)].levels) {
			ids = w.base.nodes[int(n.ID)].levels[lm.Level]
		}
		n.Reply(env, MsgLevelsOK, levelsOK{IDs: ids})
	})
}

// wireQuery carries one in-flight query's client-side state.
type wireQuery struct {
	*p2p.Query
	w      *Wire
	probed map[int]float64
	done   func(p2p.FindResult)
}

// probe memoises a wire ping the way the static walk memoises a Probe call
// (the searcher itself is never pinged and scores +Inf; a dead candidate
// scores +Inf too, so it can never be returned).
func (q *wireQuery) probe(id int, then func(float64)) {
	if l, ok := q.probed[id]; ok {
		then(l)
		return
	}
	if id == int(q.Node().ID) {
		q.probed[id] = math.Inf(1)
		then(math.Inf(1))
		return
	}
	q.Ping(p2p.NodeID(id), func(rtt float64, ok bool) {
		if !ok {
			rtt = math.Inf(1)
		}
		q.probed[id] = rtt
		then(rtt)
	})
}

// probeAll probes a sorted candidate list sequentially through the memo.
func (q *wireQuery) probeAll(ids []int, then func()) {
	var step func(i int)
	step = func(i int) {
		if i >= len(ids) {
			then()
			return
		}
		q.probe(ids[i], func(float64) { step(i + 1) })
	}
	step(0)
}

// fetchLevels collects the union of the contacts' neighbour lists at one
// level, one RPC per contact (a dead contact contributes nothing).
func (q *wireQuery) fetchLevels(contacts []int, level int, then func(union []int)) {
	seen := map[int]bool{}
	var union []int
	var step func(i int)
	step = func(i int) {
		if i >= len(contacts) {
			then(union)
			return
		}
		q.Call(p2p.NodeID(contacts[i]), MsgLevels, levelsMsg{Level: level},
			func(env p2p.Envelope) {
				for _, nb := range env.Payload.(levelsOK).IDs {
					if !seen[nb] {
						seen[nb] = true
						union = append(union, nb)
					}
				}
				step(i + 1)
			},
			func() { step(i + 1) })
	}
	step(0)
}

// FindNearest runs the Tapestry walk over the wire from client. done fires
// exactly once unless the client dies mid-query.
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := &wireQuery{
		Query:  p2p.NewQuery(w.rt.AddNode(client), "tapestry", 0),
		w:      w,
		probed: map[int]float64{},
		done:   done,
	}
	gateway := w.base.members[w.base.src.Intn(len(w.base.members))]
	q.probe(gateway, func(float64) {
		q.descend([]int{gateway}, w.base.cfg.Digits)
	})
}

// descend runs one level of the walk, keeping the closest few probed
// candidates as the next contact set — the static FindNearest loop with
// probes and neighbour reads on the wire.
func (q *wireQuery) descend(contacts []int, lvl int) {
	if lvl < 0 || q.Res.Hops >= q.w.base.cfg.MaxHops {
		q.refine(contacts)
		return
	}
	q.fetchLevels(contacts, lvl, func(cands []int) {
		if len(cands) == 0 {
			q.descend(contacts, lvl-1) // sparse high level
			return
		}
		sort.Ints(cands)
		q.probeAll(cands, func() {
			// The same input order and comparator as the static walk's
			// (unstable) sort, so ties keep the identical contact set.
			type scored struct {
				id int
				l  float64
			}
			scoredCands := make([]scored, 0, len(cands))
			for _, c := range cands {
				scoredCands = append(scoredCands, scored{id: c, l: q.probed[c]})
			}
			sort.Slice(scoredCands, func(i, j int) bool { return scoredCands[i].l < scoredCands[j].l })
			k := 3
			if k > len(scoredCands) {
				k = len(scoredCands)
			}
			next := make([]int, k)
			for i := 0; i < k; i++ {
				next[i] = scoredCands[i].id
			}
			q.Res.Hops++
			q.descend(next, lvl-1)
		})
	})
}

// refine is the level-0 expansion loop of the static walk.
func (q *wireQuery) refine(contacts []int) {
	if q.Res.Hops >= q.w.base.cfg.MaxHops {
		q.finish()
		return
	}
	improvedFrom := bestOf(q.probed)
	q.fetchLevels(contacts, 0, func(union []int) {
		var cands []int
		for _, nb := range union {
			if _, done := q.probed[nb]; !done {
				cands = append(cands, nb)
			}
		}
		if len(cands) == 0 {
			q.finish()
			return
		}
		sort.Ints(cands)
		q.probeAll(cands, func() {
			q.Res.Hops++
			nowBest := bestOf(q.probed)
			// Same comparison as the static walk, missing-key zeros and all:
			// with nothing responsive probed yet, both sides stop here.
			if q.probed[nowBest] >= q.probed[improvedFrom] {
				q.finish()
				return
			}
			q.refine([]int{nowBest})
		})
	})
}

// finish reports the closest probed candidate.
func (q *wireQuery) finish() {
	best := bestOf(q.probed)
	if best >= 0 && !math.IsInf(q.probed[best], 1) {
		q.Res.Peer, q.Res.RTTms, q.Res.Found = p2p.NodeID(best), q.probed[best], true
	}
	q.done(q.Res)
}
