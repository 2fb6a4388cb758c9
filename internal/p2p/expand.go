package p2p

import (
	"fmt"
	"time"

	"nearestpeer/internal/sim"
)

// This file ports the Section 5 expanding multicast search to the message
// runtime: peers subscribe to a well-known group, a searcher multicasts
// find-requests with a latency scope that grows per round (standing in for
// TTL scope), and subscribed peers answer with a one-way found-report. The
// earliest report of the first answered round wins — over a real wire that
// is exactly the closest responsive peer, unless loss ate its report.

// Expanding-search wire message types.
const (
	// MsgFind is the scoped multicast query.
	MsgFind = "x_find"
	// MsgFound is a responder's one-way answer.
	MsgFound = "x_found"
)

// ExpandGroup is the well-known multicast group the search uses.
const ExpandGroup = "nearest-peer"

// The expanding search's scopes: round r reaches RTT ExpandRadius(r),
// starting at expandInitialRadiusMs and quadrupling for ExpandRounds rounds
// (1, 4, 16, 64, 256 ms).
const (
	expandInitialRadiusMs float64 = 1
	expandRadiusMult      float64 = 4
	// ExpandRounds bounds the expansion.
	ExpandRounds int = 5
)

// ExpandRadius is a round's latency scope: expandInitialRadiusMs grown
// expandRadiusMult-fold per earlier round.
func ExpandRadius(round int) float64 {
	radius := expandInitialRadiusMs
	for i := 0; i < round; i++ {
		radius *= expandRadiusMult
	}
	return radius
}

// ExpandConfig tunes the expanding search.
type ExpandConfig struct {
	// RoundTimeout is how long the searcher waits out each round; it must
	// exceed the largest scope or answers arrive after the round closed
	// (they still count — a late answer resolves the search when it lands).
	RoundTimeout time.Duration
}

// DefaultExpandConfig waits 400 ms per round.
func DefaultExpandConfig() ExpandConfig {
	return ExpandConfig{RoundTimeout: 400 * time.Millisecond}
}

// ExpandRing is the expanding-ring rule as function calls, the one every
// static expanding search runs (the registry's function-call leg, the
// composite service's in-network stage). Round r sends one copy to each of
// the candidates 0..n-1 that reach admits, at the RTT reach prices it; the
// first round that reaches anyone ends the search, and its answer is the
// reached candidate with the smallest RTT — the earliest responder, as on
// the wire whenever answers land inside their round (ties go to the lower
// index). Peer is a candidate index, Probes the copies sent, Hops the rounds
// run.
func ExpandRing(rounds, n int, reach func(round, j int) (rttMs float64, ok bool)) FindResult {
	r := FindResult{Peer: NoNode}
	for round := 0; round < rounds && !r.Found; round++ {
		r.Hops++
		for j := 0; j < n; j++ {
			d, ok := reach(round, j)
			if !ok {
				continue
			}
			r.Probes++
			if !r.Found || d < r.RTTms {
				r.Peer, r.RTTms, r.Found = NodeID(j), d, true
			}
		}
	}
	return r
}

// findMsg is the multicast query payload. Round is the expansion round
// that sent this copy; responders echo it so the searcher can
// measure a late answer against the round that actually asked, not
// whatever round happens to be open when the answer lands.
type findMsg struct {
	SID   uint64
	From  NodeID
	Round int
}

// foundMsg is the answer payload, echoing the round it answers.
type foundMsg struct {
	SID   uint64
	Round int
}

// expandSearch is one in-flight search at its searcher.
type expandSearch struct {
	sid      uint64
	client   NodeID
	round    int
	started  time.Duration
	sentAt   []time.Duration // sentAt[r] = virtual time round r's multicast went out
	messages int
	done     func(FindResult)
}

// expandSlot is a client's search state: the active search (nil when idle —
// a client runs at most one search at a time) and the client-local SID
// counter. Keeping both per client is what lets searches on different
// kernel shards proceed with no shared map or counter: every touch happens
// in an event at the client, on the client's home shard.
type expandSlot struct {
	active  *expandSearch
	nextSID uint64
}

// Expanding runs expanding-ring searches over a Runtime. Members must
// Register; the searcher itself need not be a member. It is simulator-only:
// a multicast scoped by a latency radius needs the simulator's link oracle.
type Expanding struct {
	rt       *Runtime
	cfg      ExpandConfig
	byClient []expandSlot // indexed by NodeID

	// The dispatch tables of the responder and the client role. A node
	// holding both serves their union (see Node.Serve).
	responder, client *Table
	// roundH is the round timer (roundDue).
	roundH sim.HandlerID
}

// NewExpanding creates the protocol instance.
func NewExpanding(rt *Runtime, cfg ExpandConfig) *Expanding {
	if cfg.RoundTimeout <= 0 {
		panic(fmt.Sprintf("p2p: expand round timeout %v must be positive", cfg.RoundTimeout))
	}
	e := &Expanding{rt: rt, cfg: cfg, byClient: make([]expandSlot, rt.Population())}
	e.responder = NewTable().With(MsgFind, handleExpandFind)
	e.client = NewTable().With(MsgFound, e.handleFound)
	e.roundH = rt.RegisterHandler(TimerFunc(e.roundDue))
	return e
}

// Register subscribes a node to the search group and serves it the
// responder table.
func (e *Expanding) Register(id NodeID) {
	n := e.rt.AddNode(id)
	e.rt.JoinGroup(ExpandGroup, id)
	n.Serve(e.responder)
}

// handleExpandFind answers a scoped find with a one-way report.
func handleExpandFind(n *Node, env Envelope) {
	fm := env.Payload.(findMsg)
	n.Send(env.From, MsgFound, foundMsg{SID: fm.SID, Round: fm.Round})
}

// handleFound resolves the client's active search with the first report
// that answers it.
func (e *Expanding) handleFound(n *Node, env Envelope) {
	fm := env.Payload.(foundMsg)
	sr := e.byClient[n.ID].active
	if sr == nil || sr.sid != fm.SID {
		return // already resolved; later (= farther) answers lose
	}
	e.byClient[n.ID].active = nil
	now := e.rt.Now(n.ID)
	// Measure against the round that sent the find this answers — a
	// late answer (allowed: "they still count") must not be timed
	// against a newer round's start, which would under-report the RTT.
	sr.done(FindResult{
		Peer:    env.From,
		RTTms:   msOf(now - sr.sentAt[fm.Round]),
		Hops:    sr.round, // round counts multicasts already sent
		Probes:  sr.messages,
		Elapsed: now - sr.started,
		Found:   true,
	})
}

// Deregister unsubscribes a node (graceful leave; a crashed node is simply
// never delivered to, but still counts as a sent copy, like a dead host
// in a real multicast group).
func (e *Expanding) Deregister(id NodeID) { e.rt.LeaveGroup(ExpandGroup, id) }

// Search runs the expanding search from client. done fires exactly once:
// with the earliest responder, unfound after the last round times out, or
// unfound at the first round boundary after the client stops.
// The result's Probes counts the multicast copies sent and Hops the rounds
// that ran before the answer arrived; RTTms is request plus report travel.
// Must run as an event at the client (or setup code): a client's slot is
// home-shard state.
func (e *Expanding) Search(client NodeID, done func(FindResult)) {
	n := e.rt.AddNode(client)
	slot := &e.byClient[client]
	slot.nextSID++
	s := &expandSearch{sid: slot.nextSID, client: client, started: e.rt.Now(client), done: done}
	slot.active = s
	n.Serve(e.client)
	e.runRound(s)
}

// runRound multicasts one round's scope and schedules the next. A search
// whose client has stopped sends nothing more: it ends, unfound, at the
// round it reaches.
func (e *Expanding) runRound(s *expandSearch) {
	if e.byClient[s.client].active != s {
		return
	}
	if s.round >= ExpandRounds || !e.rt.Alive(s.client) {
		e.byClient[s.client].active = nil
		s.done(FindResult{Peer: NoNode, Hops: s.round, Probes: s.messages, Elapsed: e.rt.Now(s.client) - s.started})
		return
	}
	radius := ExpandRadius(s.round)
	s.sentAt = append(s.sentAt, e.rt.Now(s.client))
	s.messages += e.rt.Multicast(s.client, ExpandGroup, MsgFind, findMsg{SID: s.sid, From: s.client, Round: s.round}, radius)
	s.round++
	e.armRound(s)
}

// armRound schedules the search's next round boundary: a typed timer at
// the client naming the search (TickArg of its SID).
func (e *Expanding) armRound(s *expandSearch) {
	e.rt.After(s.client, e.cfg.RoundTimeout, e.roundH, TickArg(uint32(s.sid), s.client))
}

// roundDue is the round timer: the next round of the search it names, if
// that search is still the client's active one.
func (e *Expanding) roundDue(arg uint64) {
	client := TickNode(arg)
	if s := e.byClient[client].active; s != nil && TickArg(uint32(s.sid), client) == arg {
		e.runRound(s)
	}
}
