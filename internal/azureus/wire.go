// Wire deployment of the tracker-sample baseline: the tracker is a real
// node (the first member) serving announce RPCs, and the client's probing
// of each returned peer list is a ping sweep over the runtime. The tracker
// is the scheme's single point of failure — when it churns away every
// announce times out and the client finds nothing, which is the honest
// version of what the static baseline can never show.

package azureus

import "nearestpeer/internal/p2p"

// Message types of the tracker wire protocol.
const (
	// MsgAnnounce asks the tracker for one peer-list sample
	// (no request payload / announceOK).
	MsgAnnounce   = "az_announce"
	MsgAnnounceOK = "az_announce_ok"
)

type announceOK struct{ IDs []int }

func init() {
	p2p.RegisterPayload(MsgAnnounceOK, announceOK{})
}

// Wire is a deployed message-level tracker service. Member indices are
// runtime NodeIDs. The Wire owns its Finder instance — the sample stream
// lives with the tracker, so a Wire built with the same seed as a static
// leg's Finder serves the identical samples in the identical order.
type Wire struct {
	base *Finder
	rt   p2p.Transport
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Finder) *Wire {
	return &Wire{base: base, rt: rt}
}

// Tracker returns the tracker's node id (the first member).
func (w *Wire) Tracker() p2p.NodeID { return p2p.NodeID(w.base.members[0]) }

// Join brings a member up on the runtime; the tracker member gets the
// announce handler installed.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	if id != w.Tracker() {
		return
	}
	n.Handle(MsgAnnounce, func(n *p2p.Node, env p2p.Envelope) {
		n.Reply(env, MsgAnnounceOK, announceOK{IDs: w.base.sample(int(env.From))})
	})
}

// FindNearest runs the baseline over the wire from client: announce to the
// tracker, sweep-ping the returned sample, repeat for the configured number
// of rounds. done fires exactly once unless the client dies mid-query.
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "azureus", 0)
	var round func(r int)
	round = func(r int) {
		if r >= w.base.cfg.Rounds {
			done(q.Res)
			return
		}
		q.Call(w.Tracker(), MsgAnnounce, nil,
			func(env p2p.Envelope) {
				sample := env.Payload.(announceOK).IDs
				ids := make([]p2p.NodeID, len(sample))
				for i, m := range sample {
					ids[i] = p2p.NodeID(m)
				}
				q.Sweep(ids, func(p2p.NodeID, float64, bool) {
					q.Res.Hops++
					round(r + 1)
				})
			},
			// The tracker is down: this round finds nobody.
			func() { round(r + 1) })
	}
	round(0)
}
