// Wire deployment of the rendezvous directory: each end network's server
// is a real node (the lowest-indexed member of the EN), registration is an
// RPC every member sends its own server during bring-up (and again on
// rejoin after churn), and a query is one directory read plus a ping sweep
// of the returned list. A dead server takes its whole end network's
// directory offline; a churned-out registrant lingers as a stale entry the
// sweep pays a dead probe for.

package rendezvous

import (
	"sort"

	"nearestpeer/internal/p2p"
)

// Message types of the rendezvous wire protocol.
const (
	// MsgRegister records the sender in its end network's directory
	// (no payload / ack with no payload).
	MsgRegister   = "rv_register"
	MsgRegisterOK = "rv_register_ok"
	// MsgList fetches the sender's end-network registration list
	// (no payload / listOK).
	MsgList   = "rv_list"
	MsgListOK = "rv_list_ok"
)

type listOK struct{ IDs []int }

func init() {
	p2p.RegisterPayload(MsgListOK, listOK{})
}

// Wire is a deployed message-level rendezvous service. Member indices are
// runtime NodeIDs. The Wire derives the server placement from its
// Directory (well-known, like a DNS record per end network); the
// registration lists themselves live only on the servers and are filled by
// Register RPCs.
type Wire struct {
	base *Directory
	rt   p2p.Transport
	// serverOf maps an end-network id to its server member.
	serverOf map[int]int
	// registered[server] is the server's registration set.
	registered map[int]map[int]bool
}

// NewWire creates the wire deployment over an existing runtime.
func NewWire(rt p2p.Transport, base *Directory) *Wire {
	w := &Wire{base: base, rt: rt, serverOf: make(map[int]int, len(base.byEN)), registered: make(map[int]map[int]bool)}
	for en, list := range base.byEN {
		w.serverOf[en] = list[0] // sorted: the lowest-indexed member serves
	}
	return w
}

// ServerOf returns the directory server of a member's end network.
func (w *Wire) ServerOf(m p2p.NodeID) p2p.NodeID {
	return p2p.NodeID(w.serverOf[w.base.enOf[int(m)]])
}

// Join brings a member up on the runtime; servers get the directory
// handlers installed.
func (w *Wire) Join(id p2p.NodeID) {
	n := w.rt.AddNode(id)
	if w.ServerOf(id) != id {
		return
	}
	set := w.registered[int(id)]
	if set == nil {
		set = make(map[int]bool)
		w.registered[int(id)] = set
	}
	n.Handle(MsgRegister, func(n *p2p.Node, env p2p.Envelope) {
		set[int(env.From)] = true
		n.Reply(env, MsgRegisterOK, nil)
	})
	n.Handle(MsgList, func(n *p2p.Node, env p2p.Envelope) {
		ids := make([]int, 0, len(set))
		for m := range set {
			if m != int(env.From) {
				ids = append(ids, m)
			}
		}
		sort.Ints(ids)
		n.Reply(env, MsgListOK, listOK{IDs: ids})
	})
}

// Register records a member in its end network's directory. done (optional)
// reports whether the server acknowledged.
func (w *Wire) Register(id p2p.NodeID, done func(ok bool)) {
	n := w.rt.AddNode(id)
	n.Request(w.ServerOf(id), MsgRegister, nil, 0,
		func(p2p.Envelope) {
			if done != nil {
				done(true)
			}
		},
		func() {
			if done != nil {
				done(false)
			}
		})
}

// FindNearest runs the rendezvous query over the wire from client: one
// directory read at the client's own server, then a ping sweep of the
// list. done fires exactly once unless the client dies mid-query.
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "rendezvous", 0)
	q.Call(w.ServerOf(client), MsgList, nil,
		func(env p2p.Envelope) {
			list := env.Payload.(listOK).IDs
			ids := make([]p2p.NodeID, len(list))
			for i, m := range list {
				ids[i] = p2p.NodeID(m)
			}
			q.Sweep(ids, func(p2p.NodeID, float64, bool) { done(q.Res) })
		},
		// The end network's server is down: its directory is offline.
		func() { done(q.Res) })
}
