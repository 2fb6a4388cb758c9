// Wire deployment of Vivaldi: the same spring-relaxation coordinates as the
// static System, but run as a gossip protocol over the message-level
// runtime (internal/p2p). Each member keeps a bounded neighbor set and
// periodically gossips with one random neighbor: a one-way request whose
// one-way answer carries the neighbor's coordinate snapshot, with the
// round-trip virtual time as the RTT sample — so every sample can be lost,
// delayed, or go unanswered by a churned-out peer, and the embedding has to
// survive it. On top of the coordinates sits a coordinate-guided
// nearest-peer search: a greedy walk over the members' advertised
// coordinates with an RTT-verified final candidate set, the classic
// coordinate alternative to the paper's Section 5 hint schemes.
//
// The gossip hot path follows the runtime's allocation discipline: requests
// and replies are one-way sends correlated by echoed MsgID (no inflight
// closures), coordinate snapshots park in a free-list slab of reusable
// buffers reclaimed by typed kernel events, ticks are typed kernel events
// carrying a packed (epoch, node) word, and the spring update itself keeps
// its scratch on the stack — zero allocations per gossip round in steady
// state, enforced by TestWireGossipZeroAlloc.
//
// Knowledge discipline matches the Chord port: members learn coordinates
// only from messages. The out-of-band channel is bootstrap choice — a
// joining (or neighbor-starved) member is handed random live members to
// gossip with, standing in for the rendezvous every deployed system needs;
// everything else (coordinates, neighbor discovery) travels on the wire.

package vivaldi

import (
	"fmt"
	"slices"
	"time"

	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// Vivaldi wire message types.
const (
	// MsgGossip is the periodic coordinate-exchange request (one-way, no
	// payload); MsgGossipOK is the one-way answer carrying the responder's
	// coordinate snapshot with the request's MsgID echoed for correlation.
	MsgGossip   = "v_gossip"
	MsgGossipOK = "v_gossip_ok"
	// MsgProbe is a query-time request for a member's coordinate; the
	// round-trip time doubles as the RTT measurement (a ping that also
	// returns a coordinate). MsgProbeOK answers.
	MsgProbe   = "v_probe"
	MsgProbeOK = "v_probe_ok"
	// MsgWalk asks a member for the best next hop toward a target
	// coordinate: the member answers with whichever of itself and its
	// cached neighbor coordinates predicts closest. MsgWalkOK answers.
	MsgWalk   = "v_walk"
	MsgWalkOK = "v_walk_ok"
)

// init registers the wire payloads with the UDP codec so the gossip and
// walk messages survive a trip through real datagrams.
func init() {
	p2p.RegisterPayload("v_snap", &gossipSnap{})
	p2p.RegisterPayload("v_walk", walkMsg{})
	p2p.RegisterPayload("v_walk_ok", walkOKMsg{})
}

// nbrFailLimit evicts a neighbor after this many consecutive unanswered
// gossips. One miss must not evict — under packet loss a healthy neighbor
// misses ~2·loss of its exchanges — but two in a row is overwhelmingly a
// dead peer, mirroring the Chord port's suspicion rule.
const nbrFailLimit = 2

// The wire search's fixed parameters (placement and verification reuse the
// static Finder's budgets, placementProbes and verifyTop).
const (
	// neighbors bounds the per-member neighbor set.
	neighbors = 16
	// maxWalkHops caps the greedy walk, a loop backstop.
	maxWalkHops = 16
)

// WireConfig parameterises the gossip protocol and the coordinate-guided
// search.
type WireConfig struct {
	// GossipEvery is the per-member gossip period; each member adds up to
	// 25% per-tick jitter so rounds do not run in lockstep.
	GossipEvery time.Duration
	// SnapshotTTL is how long a coordinate snapshot buffer stays parked
	// before its slot is reclaimed. It must exceed the largest one-way
	// delay; a too-small TTL cannot corrupt memory, but a recycled slot's
	// stale echo makes the late reply drop (counted in Metrics.Late).
	SnapshotTTL time.Duration
	// RPCTimeout bounds each query-time probe and walk RPC; 0 uses the
	// runtime default.
	RPCTimeout time.Duration
	// Horizon, when > 0, stops scheduling gossip ticks past this virtual
	// time so a test kernel's queue can drain. 0 gossips forever — drive
	// the kernel with RunUntil or Stop in that case.
	Horizon time.Duration
}

// DefaultWireConfig returns the wire protocol defaults: a 2 s gossip
// period (240 samples per member over the studies' 8-minute warm-up,
// matching the static build's 60×4 sample budget).
func DefaultWireConfig() WireConfig {
	return WireConfig{
		GossipEvery: 2 * time.Second,
		SnapshotTTL: 2 * time.Second,
		RPCTimeout:  500 * time.Millisecond,
	}
}

// WireMetrics aggregates protocol-level counters (wire- and probe-level
// costs live in the runtime's Metrics).
type WireMetrics struct {
	// Gossips counts gossip requests issued; Samples the coordinate
	// updates applied (answered gossips).
	Gossips, Samples int64
	// Late counts gossip answers dropped because a newer gossip was
	// already outstanding (the echoed MsgID no longer matched).
	Late int64
	// Evictions counts neighbors dropped after consecutive unanswered
	// gossips.
	Evictions int64
}

// gossipSnap is one coordinate snapshot in flight: the responder's
// coordinate copied at answer time, plus the request MsgID echoed for
// correlation and one of the responder's neighbors for discovery. Snapshots
// are pooled — the Vec buffer is allocated once per slab slot and reused,
// and a typed kernel event returns the slot after SnapshotTTL, by which
// time the envelope has been delivered or dropped.
type gossipSnap struct {
	Echo        uint64
	Vec         []float64
	Height, Err float64
	Sample      p2p.NodeID
}

// wireNeighbor is one entry of a member's bounded neighbor set: the peer
// and the last coordinate heard from it (the advertised coordinate the
// greedy walk routes on).
type wireNeighbor struct {
	id    p2p.NodeID
	coord Coord
	known bool // coord has been heard at least once
	fails int  // consecutive unanswered gossips
}

// wireState is one member incarnation's protocol state. Neighbor slots are
// allocated once at Join (including their coordinate buffers) and reused by
// eviction/discovery, so steady-state membership maintenance never
// allocates.
type wireState struct {
	epoch uint32
	coord Coord
	src   *rng.Source
	nbrs  []wireNeighbor // fixed length neighbors; first nNbrs in use
	nNbrs int
	// pendingMsgID correlates the one outstanding gossip (0 = none).
	pendingMsgID uint64
	pendingTo    p2p.NodeID
	sentAt       time.Duration
}

// Wire runs the Vivaldi gossip protocol and the coordinate-guided search
// over a p2p.Runtime.
type Wire struct {
	rt  p2p.Transport
	cfg WireConfig
	src *rng.Source
	// qsrc drives query-time randomness (placement member picks), split
	// from the protocol stream so queries never perturb the gossip draws.
	qsrc    *rng.Source
	states  []*wireState // dense by NodeID; nil = not a member
	epochs  []uint32     // per-node incarnation counter
	members []p2p.NodeID // sorted live member list (the bootstrap handout)

	tickH    sim.HandlerID
	reclaimH sim.HandlerID
	snaps    []*gossipSnap
	snapFree []uint32

	// scratch receives a reply's snapshot before the spring update reads
	// it (the kernel is single-threaded, so one buffer serves all members).
	scratch Coord
	// table is the member role's dispatch table, served by every member.
	table *p2p.Table

	metrics WireMetrics
}

// NewWire creates the protocol instance (with no members yet).
func NewWire(rt p2p.Transport, cfg WireConfig, seed int64) *Wire {
	if cfg.GossipEvery <= 0 || cfg.SnapshotTTL <= 0 {
		panic(fmt.Sprintf("vivaldi: invalid wire config %+v", cfg))
	}
	n := rt.Population()
	w := &Wire{
		rt:      rt,
		cfg:     cfg,
		src:     rng.New(seed).Split("vivaldi"),
		states:  make([]*wireState, n),
		epochs:  make([]uint32, n),
		scratch: Coord{Vec: make([]float64, dimensions)},
	}
	w.qsrc = w.src.Split("query")
	w.tickH = rt.RegisterHandler(p2p.TimerFunc(w.tick))
	w.reclaimH = rt.RegisterHandler(p2p.TimerFunc(w.reclaimSnap))
	w.table = p2p.NewTable().
		With(MsgGossip, w.handleGossip).
		With(MsgGossipOK, w.handleGossipOK).
		With(MsgProbe, w.handleProbe).
		With(MsgWalk, w.handleWalk)
	return w
}

// Transport returns the transport the protocol runs on.
func (w *Wire) Transport() p2p.Transport { return w.rt }

// Metrics returns the protocol counters.
func (w *Wire) Metrics() WireMetrics { return w.metrics }

// state returns the member state for id, or nil.
func (w *Wire) state(id p2p.NodeID) *wireState {
	if int(id) < 0 || int(id) >= len(w.states) {
		return nil
	}
	return w.states[id]
}

// CoordOf returns a member's live coordinate (nil for non-members). The
// returned coordinate is the protocol's working state: callers must treat
// it as read-only, and experiments use it only as the measurement oracle.
func (w *Wire) CoordOf(id p2p.NodeID) *Coord {
	st := w.state(id)
	if st == nil {
		return nil
	}
	return &st.coord
}

// NumMembers returns the live member count.
func (w *Wire) NumMembers() int { return len(w.members) }

// LiveMembers returns the current membership (sorted, a copy).
func (w *Wire) LiveMembers() []p2p.NodeID {
	return append([]p2p.NodeID(nil), w.members...)
}

// Join brings a node up as a coordinate-system member: a fresh origin
// coordinate, a bootstrap sample of current members as its neighbor set,
// and a gossip tick chain for this incarnation. Idempotent for a live
// member; a previously stopped node is restarted (the explicit protocol
// re-entry, as with Chord.Join).
func (w *Wire) Join(id p2p.NodeID) {
	if w.state(id) != nil {
		return
	}
	n := w.rt.AddNode(id)
	if !n.Alive() {
		n.Restart()
	}
	w.epochs[id]++
	st := &wireState{
		epoch:     w.epochs[id],
		coord:     Coord{Vec: make([]float64, dimensions), Err: 1},
		src:       w.src.SplitN("member", int(id)),
		nbrs:      make([]wireNeighbor, neighbors),
		pendingTo: p2p.NoNode,
	}
	for i := range st.nbrs {
		st.nbrs[i].coord = Coord{Vec: make([]float64, dimensions), Err: 1}
	}
	// Bootstrap handout: a random sample of current members to start
	// gossiping with. Discovery (the Sample field of gossip answers) and
	// the per-tick top-up keep the set filled from here on.
	for tries := 0; tries < 4*neighbors && st.nNbrs < neighbors && len(w.members) > 0; tries++ {
		m := w.members[st.src.Intn(len(w.members))]
		if m != id && st.findNbr(m) < 0 {
			st.addNbr(m)
		}
	}
	w.states[id] = st
	w.insertMember(id)
	n.Serve(w.table)
	w.scheduleTick(id, st)
}

// Leave takes a member down. Coordinates are soft state refreshed by
// gossip, so graceful and crash departures look the same on the wire: the
// node just goes silent and its neighbors evict it by unanswered gossips.
func (w *Wire) Leave(id p2p.NodeID, graceful bool) {
	_ = graceful
	st := w.state(id)
	if st == nil {
		return
	}
	w.states[id] = nil
	w.removeMember(id)
	if n := w.rt.Node(id); n != nil {
		n.Stop()
	}
}

func (w *Wire) insertMember(id p2p.NodeID) {
	if i, ok := slices.BinarySearch(w.members, id); !ok {
		w.members = slices.Insert(w.members, i, id)
	}
}

func (w *Wire) removeMember(id p2p.NodeID) {
	if i, ok := slices.BinarySearch(w.members, id); ok {
		w.members = slices.Delete(w.members, i, i+1)
	}
}

// ---- neighbor-set bookkeeping (fixed slots, no steady-state allocation) ----

// findNbr returns the index of id in the in-use neighbor slots, or -1. The
// set is bounded (≤ neighbors = 16), so a linear scan beats any
// index structure and allocates nothing.
func (st *wireState) findNbr(id p2p.NodeID) int {
	for i := 0; i < st.nNbrs; i++ {
		if st.nbrs[i].id == id {
			return i
		}
	}
	return -1
}

// addNbr takes over the next free slot for id (caller guarantees room and
// no duplicate). The slot's coordinate buffer is reused; known=false marks
// the cached coordinate as not-yet-heard.
func (st *wireState) addNbr(id p2p.NodeID) {
	nb := &st.nbrs[st.nNbrs]
	nb.id = id
	nb.known = false
	nb.fails = 0
	nb.coord.Height, nb.coord.Err = 0, 1
	for i := range nb.coord.Vec {
		nb.coord.Vec[i] = 0
	}
	st.nNbrs++
}

// evictNbr removes slot i by swapping the last in-use slot in (the
// wireNeighbor structs swap wholesale, carrying their coordinate buffers
// with them).
func (st *wireState) evictNbr(i int) {
	st.nNbrs--
	if i != st.nNbrs {
		st.nbrs[i], st.nbrs[st.nNbrs] = st.nbrs[st.nNbrs], st.nbrs[i]
	}
}

// sampleNbr returns a uniformly random in-use neighbor for discovery
// gossip, or NoNode when the set is empty.
func (st *wireState) sampleNbr() p2p.NodeID {
	if st.nNbrs == 0 {
		return p2p.NoNode
	}
	return st.nbrs[st.src.Intn(st.nNbrs)].id
}

// ---- gossip: ticks, requests, answers ----

// scheduleTick schedules the member's next gossip as a typed kernel event —
// no closure per tick. The chain dies with the incarnation (epoch check in
// tick) and at the configured horizon.
func (w *Wire) scheduleTick(id p2p.NodeID, st *wireState) {
	d := w.cfg.GossipEvery + time.Duration(st.src.Int63n(int64(w.cfg.GossipEvery)/4+1))
	if h := w.cfg.Horizon; h > 0 && w.rt.Now(id)+d > h {
		return
	}
	w.rt.After(id, d, w.tickH, p2p.TickArg(st.epoch, id))
}

// tick is the registered gossip-tick handler: one gossip for the member if
// it is up, then the next tick. A tick whose incarnation has been replaced
// (leave, or leave+rejoin) is a dead chain and simply stops; a member that
// is down without having left (a crash the protocol has not observed)
// pauses but keeps its chain.
func (w *Wire) tick(arg uint64) {
	id := p2p.TickNode(arg)
	st := w.state(id)
	if st == nil || p2p.TickArg(st.epoch, id) != arg {
		return
	}
	if w.rt.Alive(id) {
		w.gossipOnce(id, st)
	}
	w.scheduleTick(id, st)
}

// gossipOnce issues one gossip: charge the previous unanswered exchange to
// its neighbor (evicting after nbrFailLimit consecutive misses), top the
// neighbor set up from the membership when it has thinned, then send a
// coordinate-exchange request to one random neighbor. The request is a
// one-way nil-payload send; the answer correlates by echoed MsgID.
func (w *Wire) gossipOnce(id p2p.NodeID, st *wireState) {
	if st.pendingMsgID != 0 {
		if i := st.findNbr(st.pendingTo); i >= 0 {
			st.nbrs[i].fails++
			if st.nbrs[i].fails >= nbrFailLimit {
				st.evictNbr(i)
				w.metrics.Evictions++
			}
		}
		st.pendingMsgID = 0
	}
	if st.nNbrs < (len(st.nbrs)+1)/2 && len(w.members) > 1 {
		// Re-bootstrap: one random member per tick (the rendezvous
		// handout, as at Join). Discovery fills the rest.
		m := w.members[st.src.Intn(len(w.members))]
		if m != id && st.findNbr(m) < 0 && st.nNbrs < len(st.nbrs) {
			st.addNbr(m)
		}
	}
	if st.nNbrs == 0 {
		return // alone in the overlay
	}
	to := st.nbrs[st.src.Intn(st.nNbrs)].id
	n := w.rt.Node(id)
	n.Metrics().MaintProbes++ // a gossip is a maintenance RTT measurement
	st.pendingMsgID = n.Send(to, MsgGossip, nil)
	st.pendingTo = to
	st.sentAt = w.rt.Now(id)
	w.metrics.Gossips++
}

// snapGet pops a snapshot buffer from the pool (allocating a new slot only
// until the pool reaches the workload's high-water mark) and schedules its
// reclaim as a typed timer at member id, the snapshot's sender.
func (w *Wire) snapGet(id p2p.NodeID) *gossipSnap {
	var slot uint32
	if n := len(w.snapFree); n > 0 {
		slot = w.snapFree[n-1]
		w.snapFree = w.snapFree[:n-1]
	} else {
		w.snaps = append(w.snaps, &gossipSnap{Vec: make([]float64, dimensions)})
		slot = uint32(len(w.snaps) - 1)
	}
	w.rt.After(id, w.cfg.SnapshotTTL, w.reclaimH, uint64(slot))
	return w.snaps[slot]
}

// reclaimSnap is the registered handler returning a snapshot slot to the
// pool. By reclaim time the snapshot's envelope has been delivered or
// dropped (SnapshotTTL exceeds any one-way delay), so the buffer is free.
func (w *Wire) reclaimSnap(arg uint64) {
	w.snapFree = append(w.snapFree, uint32(arg))
}

// fillSnap copies member id's current coordinate into a pooled snapshot.
func (w *Wire) fillSnap(id p2p.NodeID, st *wireState, echo uint64) *gossipSnap {
	s := w.snapGet(id)
	s.Echo = echo
	copy(s.Vec, st.coord.Vec)
	s.Height, s.Err = st.coord.Height, st.coord.Err
	s.Sample = st.sampleNbr()
	return s
}

// handleGossip answers a coordinate-exchange request with a one-way
// snapshot. A node that is no longer a member stays silent, so the asker
// charges the miss to it and eventually evicts it.
func (w *Wire) handleGossip(n *p2p.Node, env p2p.Envelope) {
	st := w.state(n.ID)
	if st == nil {
		return
	}
	n.Send(env.From, MsgGossipOK, w.fillSnap(n.ID, st, env.MsgID))
}

// handleGossipOK applies a gossip answer: correlate by echoed MsgID (a
// stale echo means a newer gossip superseded this one — the sample is
// dropped because its send time is no longer known), measure the RTT as
// round-trip virtual time, cache the neighbor's advertised coordinate, run
// the spring update, and adopt the discovery sample when there is room.
func (w *Wire) handleGossipOK(n *p2p.Node, env p2p.Envelope) {
	st := w.state(n.ID)
	if st == nil {
		return
	}
	s, ok := env.Payload.(*gossipSnap)
	if !ok {
		return
	}
	if st.pendingMsgID == 0 || s.Echo != st.pendingMsgID || env.From != st.pendingTo {
		w.metrics.Late++
		return
	}
	st.pendingMsgID = 0
	rtt := float64(w.rt.Now(n.ID)-st.sentAt) / float64(time.Millisecond)
	copy(w.scratch.Vec, s.Vec)
	w.scratch.Height, w.scratch.Err = s.Height, s.Err
	st.coord.Update(&w.scratch, rtt, st.src)
	w.metrics.Samples++
	if i := st.findNbr(env.From); i >= 0 {
		nb := &st.nbrs[i]
		nb.fails = 0
		nb.known = true
		copy(nb.coord.Vec, s.Vec)
		nb.coord.Height, nb.coord.Err = s.Height, s.Err
	}
	if s.Sample != p2p.NoNode && s.Sample != n.ID && st.nNbrs < len(st.nbrs) && st.findNbr(s.Sample) < 0 {
		st.addNbr(s.Sample)
	}
}

// ---- query path: probe, greedy walk, RTT verification ----

// walkMsg carries the target coordinate a walk step routes toward.
type walkMsg struct {
	Vec    []float64
	Height float64
}

// walkOKMsg answers a walk step: the best predicted candidate among the
// answering member and its cached neighbor coordinates, a few runner-up
// alternates (they feed the walker's verification pool, as Chord's Alts
// feed its retry frontier), plus the member's own prediction (so the
// walker can keep the answerer as a candidate too).
type walkOKMsg struct {
	Best     p2p.NodeID
	BestPred float64
	SelfPred float64
	Alts     []p2p.NodeID
	AltPreds []float64
}

// walkAlts is how many runner-up candidates a walk answer carries.
const walkAlts = 3

// handleProbe answers a query-time coordinate probe (the round trip is the
// caller's RTT measurement). Replies reuse the snapshot pool; the Echo
// field is unused on this correlated path.
func (w *Wire) handleProbe(n *p2p.Node, env p2p.Envelope) {
	st := w.state(n.ID)
	if st == nil {
		return
	}
	n.Reply(env, MsgProbeOK, w.fillSnap(n.ID, st, 0))
}

// handleWalk answers one greedy-walk step against the member's local view:
// its own coordinate and the advertised coordinates it has cached for its
// neighbors. The asker (env.From — always the querying client, since walk
// RPCs are issued by the client directly) is never a valid answer: the
// query wants its nearest other peer, and a member client walking from
// itself would otherwise terminate immediately on "me". Ties break toward
// the lower node ID so the walk is deterministic.
func (w *Wire) handleWalk(n *p2p.Node, env p2p.Envelope) {
	st := w.state(n.ID)
	if st == nil {
		return
	}
	m := env.Payload.(walkMsg)
	target := Coord{Vec: m.Vec, Height: m.Height}
	selfPred := st.coord.DistanceMs(&target)
	cands := make([]walkCand, 0, st.nNbrs+1)
	if n.ID != env.From {
		cands = append(cands, walkCand{id: n.ID, pred: selfPred})
	}
	for i := 0; i < st.nNbrs; i++ {
		nb := &st.nbrs[i]
		if nb.known && nb.id != env.From {
			cands = append(cands, walkCand{id: nb.id, pred: nb.coord.DistanceMs(&target)})
		}
	}
	sortWalkCands(cands)
	if len(cands) > 1+walkAlts {
		cands = cands[:1+walkAlts]
	}
	reply := walkOKMsg{Best: p2p.NoNode, SelfPred: selfPred}
	if len(cands) > 0 {
		reply.Best, reply.BestPred = cands[0].id, cands[0].pred
		for _, c := range cands[1:] {
			reply.Alts = append(reply.Alts, c.id)
			reply.AltPreds = append(reply.AltPreds, c.pred)
		}
	}
	n.Reply(env, MsgWalkOK, reply)
}

// sortWalkCands orders candidates by (predicted distance, id) ascending —
// the deterministic walk order. Candidate sets are neighbor-set sized, so
// an insertion sort suffices.
func sortWalkCands(cands []walkCand) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].pred > c.pred || (cands[j].pred == c.pred && cands[j].id > c.id)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}

// walkCand is one candidate the greedy walk collected.
type walkCand struct {
	id   p2p.NodeID
	pred float64
}

// FindNearest runs the coordinate-guided search from client: place the
// client in coordinate space (members use their own live coordinate;
// non-members probe placementProbes random members and iterate the update
// rule over the answers, as the static PlaceTarget does), greedy-walk over
// advertised coordinates toward the client's coordinate, then RTT-verify
// the verifyTop best candidates with real pings and return the closest
// responder. Probes counts query-time RTT measurements (placement probes
// plus verification pings), RPCs the walk handoffs (RPCFails the ones
// that went unanswered), Hops the greedy-walk steps taken. done fires
// exactly once, also when the client stops mid-query (its requests fail at
// the stop, and the query runs down there).
func (w *Wire) FindNearest(client p2p.NodeID, done func(p2p.FindResult)) {
	q := p2p.NewQuery(w.rt.AddNode(client), "vivaldi", w.cfg.RPCTimeout)
	if st := w.state(client); st != nil {
		// A member already has a coordinate; walk from itself.
		tc := st.coord.Clone()
		w.walk(q, tc, client, done)
		return
	}
	w.place(q, done)
}

// place positions a non-member: sequential coordinate probes against
// random members, then the static placement iteration over the collected
// (coordinate, RTT) observations.
func (w *Wire) place(q *p2p.Query, done func(p2p.FindResult)) {
	client := q.Node().ID
	type placeObs struct {
		from  p2p.NodeID
		coord *Coord
		rtt   float64
	}
	var targets []p2p.NodeID
	for tries := 0; tries < 4*placementProbes && len(targets) < placementProbes && len(w.members) > 0; tries++ {
		m := w.members[w.qsrc.Intn(len(w.members))]
		if m == client || containsID(targets, m) {
			continue
		}
		targets = append(targets, m)
	}
	var observations []placeObs
	var step func(i int)
	step = func(i int) {
		if i >= len(targets) {
			if len(observations) == 0 {
				done(q.Res)
				return
			}
			tc := NewCoord(dimensions)
			psrc := w.qsrc.Split("place")
			for iter := 0; iter < 30; iter++ {
				for _, o := range observations {
					tc.Update(o.coord, o.rtt, psrc)
				}
			}
			// Walk from the closest-measured responder.
			best := observations[0]
			for _, o := range observations[1:] {
				if o.rtt < best.rtt {
					best = o
				}
			}
			w.walk(q, tc, best.from, done)
			return
		}
		q.Probe(targets[i], MsgProbe, func(env p2p.Envelope, rtt float64, answered bool) {
			if s, ok := env.Payload.(*gossipSnap); answered && ok {
				c := &Coord{Vec: append([]float64(nil), s.Vec...), Height: s.Height, Err: s.Err}
				observations = append(observations, placeObs{from: targets[i], coord: c, rtt: rtt})
			}
			step(i + 1)
		})
	}
	step(0)
}

// containsID reports whether list contains id.
func containsID(list []p2p.NodeID, id p2p.NodeID) bool {
	for _, x := range list {
		if x == id {
			return true
		}
	}
	return false
}

// walk runs the greedy descent from start toward the target coordinate tc,
// collecting every answered candidate, then hands off to verification.
func (w *Wire) walk(q *p2p.Query, tc *Coord, start p2p.NodeID, done func(p2p.FindResult)) {
	client := q.Node().ID
	var cands []walkCand
	addCand := func(id p2p.NodeID, pred float64) {
		if id == client || id == p2p.NoNode {
			return
		}
		for i := range cands {
			if cands[i].id == id {
				if pred < cands[i].pred {
					cands[i].pred = pred
				}
				return
			}
		}
		cands = append(cands, walkCand{id: id, pred: pred})
	}
	visited := map[p2p.NodeID]bool{}
	payload := walkMsg{Vec: tc.Vec, Height: tc.Height}
	cur := start
	var step func()
	step = func() {
		if q.Res.Hops >= maxWalkHops || visited[cur] {
			w.verify(q, cands, done)
			return
		}
		visited[cur] = true
		q.Call(cur, MsgWalk, payload,
			func(env p2p.Envelope) {
				ok := env.Payload.(walkOKMsg)
				addCand(env.From, ok.SelfPred)
				addCand(ok.Best, ok.BestPred)
				for i, alt := range ok.Alts {
					addCand(alt, ok.AltPreds[i])
				}
				if ok.Best == env.From || ok.Best == client || ok.Best == p2p.NoNode || visited[ok.Best] {
					w.verify(q, cands, done)
					return
				}
				q.Res.Hops++
				cur = ok.Best
				step()
			},
			func() {
				// Dead or lost hop: verify what the walk has so far.
				w.verify(q, cands, done)
			})
	}
	step()
}

// verify ranks the walk's candidates by predicted distance, RTT-verifies
// the verifyTop best with real pings, and answers with the closest
// responder.
func (w *Wire) verify(q *p2p.Query, cands []walkCand, done func(p2p.FindResult)) {
	n := q.Node()
	if len(cands) == 0 && n.Retrying() && len(w.members) > 0 {
		w.ringFallback(q, done)
		return
	}
	sortWalkCands(cands)
	// Suspect candidates (repeated exhausted retries) verify last, so the
	// ping budget goes to peers that have been answering. A no-op with
	// retries disabled: Suspect is then always false.
	if n.Retrying() && len(cands) > 1 {
		ordered := make([]walkCand, 0, len(cands))
		for _, c := range cands {
			if !n.Suspect(c.id) {
				ordered = append(ordered, c)
			}
		}
		for _, c := range cands {
			if n.Suspect(c.id) {
				ordered = append(ordered, c)
			}
		}
		cands = ordered
	}
	if len(cands) > verifyTop {
		cands = cands[:verifyTop]
	}
	ids := make([]p2p.NodeID, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	q.Sweep(ids, func(p2p.Swept) { done(q.Res) })
}

// ringFallback is the search's graceful degradation: when the greedy walk
// exhausted every alternate without collecting one live candidate, sweep-
// ping a random sample of known members so the query still answers with
// the best reachable peer instead of failing outright. Reached only with
// the transport's retry policy enabled; the probe budget is twice verifyTop.
func (w *Wire) ringFallback(q *p2p.Query, done func(p2p.FindResult)) {
	n := q.Node()
	const budget = 2 * verifyTop
	var targets []p2p.NodeID
	for tries := 0; tries < 4*budget && len(targets) < budget; tries++ {
		m := w.members[w.qsrc.Intn(len(w.members))]
		if m == n.ID || containsID(targets, m) || n.Suspect(m) {
			continue
		}
		targets = append(targets, m)
	}
	q.Sweep(targets, func(p2p.Swept) { done(q.Res) })
}
