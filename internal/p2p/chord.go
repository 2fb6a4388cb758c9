package p2p

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// This file ports the Chord DHT (internal/dht) from a synchronous ring over
// a node map to a protocol over messages: the key-value substrate the
// paper's Section 5 hint mitigations (UCLs, IP-prefix publishing) assume
// the peers can host themselves. The structure is the same — a 64-bit
// identifier ring (reusing internal/dht's hashing and interval arithmetic),
// successor lists, finger-style long-range routing, iterative lookups — but
// every step is now an RPC with a per-hop timeout that can be lost or land
// on a crashed node, joins discover their successor by looking their own
// identifier up over the wire, and the ring is maintained by periodic
// stabilize/notify rounds instead of a global rebuild. A failed hop retries
// through the next-best known candidate (alternate fingers, then the
// successor list), which is what keeps lookups resolving under churn.
//
// Knowledge discipline: nodes learn about each other only through
// messages (lookup replies, state exchanges, notifies). The single
// out-of-band channel is bootstrap choice — a joining node is handed one
// random live member to start from, standing in for the rendezvous every
// deployed DHT needs. Predecessor liveness is inferred from notify
// freshness, not from global state.

// Chord wire message types.
const (
	// MsgChordFind is one iterative routing step: "who owns this key, or
	// who should I ask next?" MsgChordFindOK carries the answer.
	MsgChordFind   = "c_find"
	MsgChordFindOK = "c_find_ok"
	// MsgChordState asks a node for its predecessor and successor list
	// (the stabilize exchange); MsgChordStateOK answers.
	MsgChordState   = "c_state"
	MsgChordStateOK = "c_state_ok"
	// MsgChordNotify is a one-way "I believe I am your predecessor".
	MsgChordNotify = "c_notify"
	// MsgChordStore stores a value at the receiver, which replicates it to
	// its successors with one-way MsgChordStoreRep copies and acks with
	// MsgChordStoreOK.
	MsgChordStore    = "c_store"
	MsgChordStoreOK  = "c_store_ok"
	MsgChordStoreRep = "c_store_rep"
	// MsgChordFetch retrieves a key's values; MsgChordFetchOK answers.
	MsgChordFetch   = "c_fetch"
	MsgChordFetchOK = "c_fetch_ok"
	// MsgChordHandoff is a graceful leaver's one-way key transfer to its
	// successor.
	MsgChordHandoff = "c_handoff"
	// MsgChordMigrate is a joiner's pull of the keys it now owns from its
	// successor; MsgChordMigrateOK carries them over.
	MsgChordMigrate   = "c_migrate"
	MsgChordMigrateOK = "c_migrate_ok"
)

// NoNode is the nil NodeID (unknown predecessor, empty finger slot).
const NoNode NodeID = -1

// The protocol's fixed parameters.
const (
	// succListLen bounds the successor list (Chord's r; resilience to r-1
	// simultaneous failures).
	succListLen = 8
	// fingerEvery fixes one finger (a full iterative lookup) every
	// fingerEvery stabilize rounds; between repairs fingers are also
	// learned passively from replies.
	fingerEvery = 2
	// replicas is how many nodes hold each key: the owner plus
	// replicas-1 of its successors.
	replicas = 2
	// maxHops caps one iterative lookup, a routing-loop backstop.
	maxHops = 64
	// maxLookupTimeouts fails a lookup after this many hop timeouts:
	// under churn a frontier full of stale fingers would otherwise burn
	// maxHops sequential timeouts before giving up, and a fast failure
	// (retried by the operation layer, or reported) prices the outage
	// honestly instead of stalling the caller for a virtual minute.
	maxLookupTimeouts = 6
)

// ChordConfig parameterises the protocol.
type ChordConfig struct {
	// StabilizeEvery is the stabilize period; each node adds up to 25%
	// per-node jitter so rounds do not run in lockstep.
	StabilizeEvery time.Duration
	// RPCTimeout bounds each individual hop/store/fetch RPC.
	RPCTimeout time.Duration
	// Horizon, when > 0, stops scheduling stabilize rounds past this
	// virtual time so a test kernel's queue can drain. 0 stabilizes
	// forever — drive the kernel with RunUntil or Stop in that case.
	Horizon time.Duration
}

// DefaultChordConfig returns the protocol defaults.
func DefaultChordConfig() ChordConfig {
	return ChordConfig{
		StabilizeEvery: time.Second,
		RPCTimeout:     500 * time.Millisecond,
	}
}

// Validate reports a configuration NewChord cannot run, so a front end can
// turn a bad flag into a message instead of NewChord's panic.
func (c ChordConfig) Validate() error {
	switch {
	case c.StabilizeEvery <= 0:
		return fmt.Errorf("p2p: chord StabilizeEvery %v must be positive", c.StabilizeEvery)
	case c.RPCTimeout <= 0:
		return fmt.Errorf("p2p: chord RPCTimeout %v must be positive", c.RPCTimeout)
	}
	return nil
}

// chordState is one member's protocol state.
type chordState struct {
	ringID   uint64
	succs    []NodeID // clockwise successor list; never contains self
	pred     NodeID
	predSeen time.Duration // when pred last notified us
	fingerTable
	nextFin int
	round   int
	// suspect tallies consecutive RPC timeouts per peer and data holds the
	// stored values; both stay nil until first written (most members of a
	// lossless ring never suspect anyone, and only owners and replicas
	// store), and reading or deleting from a nil map is a no-op.
	suspect map[NodeID]int
	data    map[string][][]byte
	src     *rng.Source
	// cp is the member's home-shard scratch (see chordScratch).
	cp *chordScratch
}

// fingerTable is a member's 64 finger slots plus an index of their runs.
// fingers[i] ≈ successor(ringID + 2^i), NoNode unknown. A slot holds the
// NodeID as an int32 (NewChord refuses larger populations), halving the
// table to 256 bytes; readers convert back with NodeID(…). A settled ring of
// N members holds only about log₂ N distinct values in the 64 slots, in
// runs of equal neighbours, so runs marks where each run starts — bit i is
// set iff i == 0 or fingers[i] != fingers[i-1] — and the hot loops visit
// one slot per run instead of all 64. Every write goes through reset, set
// and fill, which keep runs exact.
type fingerTable struct {
	fingers [64]int32
	runs    uint64
}

// reset empties every slot: one run of NoNode.
func (t *fingerTable) reset() {
	for i := range t.fingers {
		t.fingers[i] = int32(NoNode)
	}
	t.runs = 1
}

// set writes one slot.
func (t *fingerTable) set(i int, id NodeID) { t.fill(i, i+1, id) }

// fill writes id into slots [lo, hi), hi > lo: the range becomes one run,
// and only the run boundaries at lo and hi need re-deciding.
func (t *fingerTable) fill(lo, hi int, id NodeID) {
	for i := lo; i < hi; i++ {
		t.fingers[i] = int32(id)
	}
	t.runs &^= (uint64(1)<<hi - 1) &^ (uint64(1)<<(lo+1) - 1) // bits lo+1 .. hi-1
	t.markBoundary(lo)
	if hi < len(t.fingers) {
		t.markBoundary(hi)
	}
}

// markBoundary re-decides whether a run starts at slot i.
func (t *fingerTable) markBoundary(i int) {
	if i == 0 || t.fingers[i] != t.fingers[i-1] {
		t.runs |= 1 << i
	} else {
		t.runs &^= 1 << i
	}
}

// runEnd returns the slot after the run that starts at i: the next run
// start, or 64. mask is the run index to read (the live one, or a snapshot
// taken before a loop that rewrites runs).
func runEnd(mask uint64, i int) int {
	rest := mask >> (i + 1) << (i + 1) // a shift by 64 clears every bit
	if rest == 0 {
		return 64
	}
	return bits.TrailingZeros64(rest)
}

// Chord runs the protocol over a Runtime.
//
// Node IDs are dense matrix indices, so the per-node protocol state and
// the ring-hash cache live in slices, not maps: RingIDOf and the state
// lookup run on every routed message, and at scale-study event counts the
// map hashing alone dominated whole cells (28% of the s1 smoke).
type Chord struct {
	rt Transport
	// sharded is rt when it is a sharded *Runtime, else nil: chord is the
	// one protocol that shards, and the sharding contract (home shards,
	// Handoff) is the simulator's alone.
	sharded *Runtime
	cfg     ChordConfig
	src     *rng.Source
	states  []*chordState // states[id]; nil = not a member
	epochs  []uint32      // epochs[id] counts id's joins: its incarnation
	order   []NodeID      // sorted live member list (bootstrap handout)
	// rings[id] caches id's ring hash; 0 means not hashed yet. A hash
	// that really is 0 is just recomputed on every call — the hash is
	// pure, so the cache is only ever an optimisation.
	rings []uint64

	// cp holds the routing steps' reusable scratch buffers, one set per
	// kernel shard (one on a serial runtime) so routing steps on different
	// shards never share a buffer.
	cp []chordScratch

	// table is the member role's dispatch table, served by every member.
	table *Table
	// stabilizeH is the stabilize timer (stabilizeTick).
	stabilizeH sim.HandlerID
}

// chordScratch is one shard's scratch: closestPreceding's candidate and
// distance buffers, adoptSuccessors' rebuild buffer, and the free list of
// finished lookups drive reuses. Every member points at its home shard's,
// and only events at the member touch it.
type chordScratch struct {
	out     []NodeID
	dist    []uint64
	succs   []NodeID
	lookups []*chordLookup
}

// NewChord creates the protocol instance (with no members yet). On a
// sharded runtime the ring-hash cache is pre-warmed for the whole
// population — the hash is pure, so warming changes nothing except that
// the lazy first-touch write (a data race once shards run concurrently)
// never happens. A population beyond math.MaxInt32 is refused: finger
// slots hold 32-bit node IDs.
func NewChord(rt Transport, cfg ChordConfig, seed int64) *Chord {
	n := rt.Population()
	err := cfg.Validate()
	if err == nil && n > math.MaxInt32 {
		err = fmt.Errorf("p2p: chord population %d exceeds the finger slots' int32 range", n)
	}
	if err != nil {
		panic(fmt.Sprintf("p2p: invalid chord config %+v: %v", cfg, err))
	}
	c := &Chord{
		rt:     rt,
		cfg:    cfg,
		src:    rng.New(seed).Split("chord"),
		states: make([]*chordState, n),
		epochs: make([]uint32, n),
		rings:  make([]uint64, n),
		cp:     make([]chordScratch, 1),
	}
	c.stabilizeH = rt.RegisterHandler(TimerFunc(c.stabilizeTick))
	c.table = NewTable().
		With(MsgChordFind, c.handleFind).
		With(MsgChordState, c.handleState).
		With(MsgChordNotify, c.handleNotify).
		With(MsgChordStore, c.handleStore).
		With(MsgChordStoreRep, c.handleStoreRep).
		With(MsgChordFetch, c.handleFetch).
		With(MsgChordHandoff, c.handleHandoff).
		With(MsgChordMigrate, c.handleMigrate)
	if r, ok := rt.(*Runtime); ok && r.Sharded() {
		c.sharded = r
		c.cp = make([]chordScratch, r.Shards())
		for id := 0; id < n; id++ {
			c.ringIDSlow(NodeID(id))
		}
	}
	return c
}

// scratch returns the scratch of id's home shard (the one set when not
// sharded).
func (c *Chord) scratch(id NodeID) *chordScratch {
	if c.sharded == nil {
		return &c.cp[0]
	}
	return &c.cp[c.sharded.ShardOf(id)]
}

// Transport returns the transport the protocol runs on.
func (c *Chord) Transport() Transport { return c.rt }

// Bootstrap seeds the membership handout with node IDs known out of band
// — the rendezvous a deployed ring needs. The IDs enter the bootstrap
// pool (randomMember draws from it) without protocol state: a live
// deployment (cmd/npnode) names its configured peers here so a joining
// node's own-identifier lookup has somewhere to start, exactly as the
// simulator's join ramp hands out a random live member.
func (c *Chord) Bootstrap(ids ...NodeID) {
	for _, id := range ids {
		if c.state(id) == nil {
			c.insertMember(id)
		}
	}
}

// RingIDOf maps a node onto the identifier ring, reusing the DHT package's
// consistent hashing (cached — the hash is pure). The hit path is small
// enough to inline at every routing-step call site; the first-touch hash
// lives in ringIDSlow to keep it that way.
func (c *Chord) RingIDOf(id NodeID) uint64 {
	if v := c.rings[id]; v != 0 {
		return v
	}
	return c.ringIDSlow(id)
}

func (c *Chord) ringIDSlow(id NodeID) uint64 {
	v := dht.HashKey(fmt.Sprintf("chord/%d", int(id)))
	c.rings[id] = v
	return v
}

// state returns the member state for id, or nil. Bounds-checked so that
// protocol messages from nodes outside the matrix population (impossible
// today — the runtime rejects them at AddNode) stay nil rather than
// panicking.
func (c *Chord) state(id NodeID) *chordState {
	if int(id) < 0 || int(id) >= len(c.states) {
		return nil
	}
	return c.states[id]
}

// NumMembers returns the live member count.
func (c *Chord) NumMembers() int { return len(c.order) }

// LiveMembers returns the current membership (sorted, a copy).
func (c *Chord) LiveMembers() []int {
	out := make([]int, len(c.order))
	for i, id := range c.order {
		out[i] = int(id)
	}
	return out
}

// SuccessorOf exposes a member's current successor pointer (tests).
func (c *Chord) SuccessorOf(id NodeID) (NodeID, bool) {
	st := c.state(id)
	if st == nil || len(st.succs) == 0 {
		return NoNode, false
	}
	return st.succs[0], true
}

// PredecessorOf exposes a member's current predecessor pointer (tests).
func (c *Chord) PredecessorOf(id NodeID) (NodeID, bool) {
	st := c.state(id)
	if st == nil || st.pred == NoNode {
		return NoNode, false
	}
	return st.pred, true
}

// StoredAt reports how many values a member holds under key (tests).
func (c *Chord) StoredAt(id NodeID, key string) int {
	if st := c.state(id); st != nil {
		return len(st.data[key])
	}
	return 0
}

// Join brings a node up as a ring member: it serves the member table,
// enters the membership, and looks its own identifier up through a
// bootstrap member to find its successor. The ring position is wrong until
// that lookup lands and stabilize rounds rectify predecessor pointers — a
// freshly joined node answers queries with whatever it knows so far, as a
// real node would.
func (c *Chord) Join(id NodeID) {
	if c.state(id) != nil {
		return
	}
	n := c.rt.AddNode(id)
	if !n.Alive() {
		// Join is an explicit protocol (re)entry: a previously stopped
		// node comes back up. (AddNode itself never resurrects — that is
		// Restart's job, and doing it implicitly would corrupt the churn
		// process's bookkeeping.)
		n.Restart()
	}
	st := &chordState{
		ringID: c.RingIDOf(id),
		succs:  make([]NodeID, 0, succListLen),
		pred:   NoNode,
		src:    c.src.SplitN("member", int(id)),
		cp:     c.scratch(id),
	}
	st.reset()
	boot := c.randomMember(id)
	c.states[id] = st
	c.epochs[id]++
	c.insertMember(id)
	n.Serve(c.table)
	if c.sharded == nil {
		if boot != NoNode {
			c.bootstrap(n, st, boot)
		}
		c.scheduleStabilize(id, st)
		return
	}
	// Sharded, Join runs on the driver shard (the join ramp is a driver
	// chain): the membership bookkeeping above is driver-side state, but
	// the bootstrap lookup and the stabilize chain are events at the node,
	// so they hop to its home shard, one lookahead window later (a topology
	// constant, identical at every shard count).
	c.sharded.Handoff(DriverShard, id, 0, func() {
		if c.state(id) != st {
			return
		}
		if boot != NoNode {
			c.bootstrap(n, st, boot)
		}
		c.scheduleStabilize(id, st)
	})
}

// Leave takes a member down. A graceful leaver hands its keys to its
// successor first (the message survives it on the wire); a crash just goes
// silent and the ring discovers the death by timeout.
func (c *Chord) Leave(id NodeID, graceful bool) {
	st := c.state(id)
	if st == nil {
		return
	}
	n := c.rt.Node(id)
	if graceful && n != nil && n.Alive() && len(st.succs) > 0 && len(st.data) > 0 {
		cp := make(map[string][][]byte, len(st.data))
		for k, vs := range st.data {
			cvs := make([][]byte, len(vs))
			for i, v := range vs {
				cvs[i] = append([]byte(nil), v...)
			}
			cp[k] = cvs
		}
		n.Send(st.succs[0], MsgChordHandoff, cHandoffMsg{Data: cp})
	}
	c.states[id] = nil
	c.removeMember(id)
	if n != nil {
		n.Stop()
	}
}

// bootstrap looks the node's own identifier up via boot to find its
// successor: the join entry step, and — re-run periodically from a random
// member — the cross-region repair that dissolves wedges the local
// successor chain cannot see (a region whose pointers skip it never learns
// about it through stabilize alone). A node with no successor adopts the
// answer outright; otherwise the answer and its replica set go through
// learn(), which only ever tightens the pointer. On failure (loss, dead
// bootstrap) the stabilize loop retries off another member.
func (c *Chord) bootstrap(n *Node, st *chordState, boot NodeID) {
	c.drive(n, nil, boot, st.ringID, func(r LookupResult) {
		if c.state(n.ID) != st {
			return
		}
		if !r.OK || r.Owner == NoNode || r.Owner == n.ID {
			return
		}
		var prevHead NodeID = NoNode
		if len(st.succs) > 0 {
			prevHead = st.succs[0]
		}
		if prevHead == NoNode {
			c.adoptSuccessors(st, n.ID, r.Owner, r.Reps)
		}
		c.learn(st, r.Owner)
		for _, s := range r.Reps {
			c.learn(st, s)
		}
		if len(st.succs) == 0 {
			return
		}
		head := st.succs[0]
		n.Send(head, MsgChordNotify, nil)
		if head == prevHead {
			return
		}
		// New successor: pull the keys this node now owns from it. A lost
		// request or reply just leaves them where replica fallback and the
		// next republish can still find them.
		n.Request(head, MsgChordMigrate, nil, c.cfg.RPCTimeout,
			func(env Envelope) {
				if c.state(n.ID) != st || !n.Alive() {
					return
				}
				if m, ok := env.Payload.(cHandoffMsg); ok {
					st.merge(m.Data)
				} else {
					c.dropDead(n)
				}
			}, nil)
	})
}

// adoptSuccessors rebuilds the successor list as [head] + tail, deduped,
// self-free, truncated. The rebuild runs in the home shard's scratch (tail
// may be st.succs itself) and is copied back over the member's own list,
// so a stabilize round's rebuild allocates nothing. Payloads and results
// that carry a successor list copy it; nothing else holds st.succs.
func (c *Chord) adoptSuccessors(st *chordState, self, head NodeID, tail []NodeID) {
	merged := append(st.cp.succs[:0], head)
	for _, s := range tail {
		if s != NoNode && s != self && !containsNode(merged, s) {
			merged = append(merged, s)
		}
	}
	if len(merged) > succListLen {
		merged = merged[:succListLen]
	}
	st.succs = append(st.succs[:0], merged...)
	st.cp.succs = merged // retain grown capacity
}

// pickBootstrap selects a re-bootstrap entry point for a member. Serial,
// that is a uniform draw from the global membership. Sharded, events at a
// node must not read the shared member list (the driver mutates it during
// the join ramp), so the draw comes from the member's own routing state —
// successors then fingers, via its private stream — which keeps the choice
// a pure function of node-local state, identical at every shard count.
// One slot per finger run is enough: the rest of a run repeats it.
func (c *Chord) pickBootstrap(id NodeID, st *chordState) NodeID {
	if c.sharded == nil {
		return c.randomMember(id)
	}
	var buf [80]NodeID
	cand := buf[:0]
	for _, s := range st.succs {
		if s != NoNode && s != id && !containsNode(cand, s) {
			cand = append(cand, s)
		}
	}
	for m := st.runs; m != 0; m &= m - 1 {
		if f := NodeID(st.fingers[bits.TrailingZeros64(m)]); f != NoNode && f != id && !containsNode(cand, f) {
			cand = append(cand, f)
		}
	}
	if len(cand) == 0 {
		return NoNode
	}
	return cand[st.src.Intn(len(cand))]
}

// randomMember picks a live member other than exclude, or NoNode. Reads
// the shared member list: driver-side only on a sharded runtime.
func (c *Chord) randomMember(exclude NodeID) NodeID {
	if len(c.order) == 0 {
		return NoNode
	}
	for tries := 0; tries < 4; tries++ {
		if m := c.order[c.src.Intn(len(c.order))]; m != exclude {
			return m
		}
	}
	for _, m := range c.order {
		if m != exclude {
			return m
		}
	}
	return NoNode
}

func (c *Chord) insertMember(id NodeID) {
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	if i < len(c.order) && c.order[i] == id {
		return
	}
	c.order = append(c.order, 0)
	copy(c.order[i+1:], c.order[i:])
	c.order[i] = id
}

func (c *Chord) removeMember(id NodeID) {
	i := sort.Search(len(c.order), func(i int) bool { return c.order[i] >= id })
	if i < len(c.order) && c.order[i] == id {
		c.order = append(c.order[:i:i], c.order[i+1:]...)
	}
}

func containsNode(list []NodeID, id NodeID) bool {
	for _, x := range list {
		if x == id {
			return true
		}
	}
	return false
}

// ---- maintenance: stabilize, notify, finger repair ----

// scheduleStabilize arms the next tick of one member incarnation's
// periodic maintenance chain: a typed timer whose argument is the
// incarnation (TickArg of its epoch).
func (c *Chord) scheduleStabilize(id NodeID, st *chordState) {
	d := c.cfg.StabilizeEvery + time.Duration(st.src.Int63n(int64(c.cfg.StabilizeEvery)/4+1))
	if h := c.cfg.Horizon; h > 0 && c.rt.Now(id)+d > h {
		return
	}
	c.rt.After(id, d, c.stabilizeH, TickArg(c.epochs[id], id))
}

// stabilizeTick is the stabilize timer: one maintenance round and the next
// tick. The chain dies when its incarnation is gone (the node left, or
// left and rejoined as a fresh incarnation) and pauses while the node is
// down without having left (a crash the protocol has not seen).
func (c *Chord) stabilizeTick(arg uint64) {
	id := TickNode(arg)
	st := c.state(id)
	if st == nil || TickArg(c.epochs[id], id) != arg {
		return
	}
	if c.rt.Alive(id) {
		c.stabilizeOnce(id, st)
	}
	c.scheduleStabilize(id, st)
}

// stabilizeOnce runs one maintenance round: verify the successor, notify
// it, and periodically fix one finger with a full lookup.
func (c *Chord) stabilizeOnce(id NodeID, st *chordState) {
	n := c.rt.Node(id)
	st.round++
	if len(st.succs) == 0 {
		// Alone, or the join lookup failed: retry off another member.
		if boot := c.pickBootstrap(id, st); boot != NoNode {
			c.bootstrap(n, st, boot)
		}
		return
	}
	c.stabilizeSucc(id, st, stabilizeBudget)
	if st.round%fingerEvery == 0 {
		c.fixFinger(n, st)
	}
	if st.round%selfLookupEvery == 0 {
		// Periodic cross-region repair: re-resolve our own successor from
		// a random entry point (see bootstrap).
		if boot := c.pickBootstrap(id, st); boot != NoNode {
			c.bootstrap(n, st, boot)
		}
	}
}

// selfLookupEvery re-runs the own-identifier lookup every this many
// stabilize rounds.
const selfLookupEvery = 8

// stabilizeBudget bounds one round's cascade: deep enough to walk a
// freshly joined region back several positions and to skip a dead
// successor-list prefix, small enough that a churn-degraded ring cannot
// burn unbounded maintenance traffic in a single round (the next round
// continues where this one stopped).
const stabilizeBudget = 16

// stabilizeSucc asks the current successor for its predecessor and
// successor list, adopts a closer successor if one slotted in, refreshes
// the list tail, and notifies. When a closer successor is adopted the walk
// CASCADES — it immediately re-runs against the new successor instead of
// waiting a full period, because the predecessor walk heals one ring
// position per exchange and a freshly joined region would otherwise take
// O(ring) periods to converge. budget bounds the cascade (each step
// strictly shrinks the (self, successor) arc).
func (c *Chord) stabilizeSucc(id NodeID, st *chordState, budget int) {
	if budget <= 0 || len(st.succs) == 0 {
		return
	}
	n := c.rt.Node(id)
	succ := st.succs[0]
	onTimeout := func() {
		if c.state(id) != st || !n.Alive() {
			return
		}
		// Possibly dead, possibly one lost exchange: evict only on the
		// second consecutive timeout, then retry against the next list
		// entry right away (successor-list repair).
		if c.suspectPeer(st, succ) {
			c.stabilizeSucc(id, st, budget-1)
		}
	}
	n.Request(succ, MsgChordState, nil, c.cfg.RPCTimeout,
		func(env Envelope) {
			if c.state(id) != st || !n.Alive() {
				return
			}
			sm, ok := env.Payload.(cStateOKMsg)
			if !ok || !c.validID(sm.Pred) || !c.validIDs(sm.Succs) {
				// A forged answer: dropped, and the exchange fails as if
				// it had been lost.
				c.dropDead(n)
				onTimeout()
				return
			}
			delete(st.suspect, succ)
			// learn() adopts whichever of these lands closest between us
			// and the current successor — the successor's predecessor (the
			// classic stabilize rectification) and its successor list.
			c.learn(st, succ)
			if sm.Pred != NoNode && sm.Pred != id {
				c.learn(st, sm.Pred)
			}
			for _, s := range sm.Succs {
				c.learn(st, s)
			}
			if len(st.succs) > 0 && st.succs[0] != succ {
				// A closer successor surfaced: notify it and keep walking
				// toward our true successor within this round.
				n.Send(st.succs[0], MsgChordNotify, nil)
				c.stabilizeSucc(id, st, budget-1)
				return
			}
			c.adoptSuccessors(st, id, succ, sm.Succs)
			n.Send(st.succs[0], MsgChordNotify, nil)
		},
		onTimeout)
}

// fixFinger repairs one finger slot with a full iterative lookup of its
// ring target; learn() slots the result in. Slots whose target falls
// within the successor arc are answered by the successor pointer for free
// and skipped, so the lookup budget cycles over the O(log n) long-range
// fingers that actually route — a 64-slot round-robin would leave them
// stale for longer than a churn session.
func (c *Chord) fixFinger(n *Node, st *chordState) {
	if len(st.succs) == 0 {
		return
	}
	i := c.nextFingerSlot(st)
	c.drive(n, st, NoNode, st.ringID+1<<uint(i), func(r LookupResult) {
		if c.state(n.ID) != st {
			return
		}
		if r.OK && r.Owner != NoNode && r.Owner != n.ID {
			c.repairFinger(st, i, r.Owner)
			c.learn(st, r.Owner)
		}
	})
}

// nextFingerSlot advances the repair cursor past the slots the successor
// answers (filling them with it) and returns the slot to look up. st must
// have a successor.
func (c *Chord) nextFingerSlot(st *chordState) int {
	succ := st.succs[0]
	succRing := c.RingIDOf(succ)
	i := st.nextFin
	for skipped := 0; skipped < len(st.fingers); skipped++ {
		if !dht.BetweenRightIncl(st.ringID+1<<uint(i), st.ringID, succRing) {
			break
		}
		st.set(i, succ)
		i = (i + 1) % len(st.fingers)
	}
	st.nextFin = (i + 1) % len(st.fingers)
	return i
}

// repairFinger installs a looked-up owner of slot i's target. The freshly
// resolved owner replaces whatever the slot held — a stale entry would
// otherwise survive as long as it looked "closer" than anything passively
// learned — provided it lies in the slot's range.
func (c *Chord) repairFinger(st *chordState, i int, owner NodeID) {
	target := st.ringID + 1<<uint(i)
	if dht.RingDist(target, c.RingIDOf(owner)) < dht.RingDist(target, st.ringID) {
		st.set(i, owner)
	}
}

// learn folds an observed peer into the routing state: it repairs the
// successor pointer when the peer falls between self and the current
// successor (without this, a mass join can freeze into a stable wrong
// ring — stabilize alone only ever inspects the successor's predecessor,
// which on a garbage pointer graph may never name anything closer), and it
// offers the peer to every finger slot it improves (finger[i] wants the
// first known node at or after ringID + 2^i, not wrapping past self).
func (c *Chord) learn(st *chordState, peer NodeID) {
	if peer == NoNode {
		return
	}
	pr := c.RingIDOf(peer)
	if pr == st.ringID {
		return
	}
	if len(st.succs) > 0 && peer != st.succs[0] && dht.Between(pr, st.ringID, c.RingIDOf(st.succs[0])) {
		// A closer successor, learned from any reply or notify. It is
		// unverified — if it is stale and dead, stabilize will suspect and
		// evict it within two rounds.
		c.adoptSuccessors(st, NoNode, peer, st.succs)
	}
	// Slot i covers peers at clockwise distance >= 2^i from self, so the
	// in-range slots are exactly 0..Len64(D)-1 for D = dist(self, peer).
	// Within a slot, every stored finger is itself in range (the only
	// assignments are here and in the lookup-repair path, both gated on
	// the range check), so "peer closer to 2^i than cur" reduces to
	// comparing plain clockwise distances from self: D < dist(self, cur).
	// This is the per-message hot loop — called for every reply and
	// notify — and the reduced form does one load and one compare per
	// run instead of three ring-distance computations per slot.
	// The replace decision depends only on the occupant, so it is made once
	// per run of equal slots (runs are read from a snapshot: replacing one
	// run may merge it with the next), and only a replaced run is written.
	// Stored fingers always have their ring hash cached (they were
	// RingIDOf'ed when learned), so c.rings is read directly.
	D := dht.RingDist(st.ringID, pr)
	maxI := bits.Len64(D)
	rings := c.rings
	runs := st.runs
	for m := runs & (uint64(1)<<maxI - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if cur := NodeID(st.fingers[i]); cur == NoNode || D < rings[cur]-st.ringID {
			st.fill(i, min(runEnd(runs, i), maxI), peer)
		}
	}
}

// suspectPeer records an RPC timeout against a peer and evicts it after
// two consecutive ones. A single timeout must not evict: under packet loss
// ~2·loss of all RPCs time out against perfectly live peers, and evicting
// the successor on one lost exchange makes the node claim its successor's
// keys until the next stabilize heals it — enough ring incoherence to make
// puts and gets resolve different owners. Two consecutive timeouts are
// overwhelmingly a dead peer. Reports whether the peer was evicted.
func (c *Chord) suspectPeer(st *chordState, peer NodeID) bool {
	if st.suspect == nil {
		st.suspect = make(map[NodeID]int)
	}
	st.suspect[peer]++
	if st.suspect[peer] < 2 {
		return false
	}
	delete(st.suspect, peer)
	c.evictPeer(st, peer)
	return true
}

// evictPeer drops a dead peer from a member's routing state.
func (c *Chord) evictPeer(st *chordState, peer NodeID) {
	for i, s := range st.succs {
		if s == peer {
			st.succs = append(st.succs[:i], st.succs[i+1:]...)
			break
		}
	}
	runs := st.runs
	for m := runs; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); NodeID(st.fingers[i]) == peer {
			st.fill(i, runEnd(runs, i), NoNode)
		}
	}
	if st.pred == peer {
		st.pred = NoNode
	}
}

// ---- wire payloads ----

// cFindMsg asks one routing step toward Key's owner.
type cFindMsg struct{ Key uint64 }

// cFindOKMsg answers a routing step: either the owner (with its likely
// replica set), or the next hop plus fallback candidates for when the next
// hop turns out dead.
type cFindOKMsg struct {
	Done  bool
	Owner NodeID
	Reps  []NodeID
	Next  NodeID
	Alts  []NodeID
}

// cStateOKMsg is the stabilize answer.
type cStateOKMsg struct {
	Pred  NodeID
	Succs []NodeID
}

// cStoreMsg stores Val under Key; Rep is how many successor replicas the
// receiver should fan out.
type cStoreMsg struct {
	Key string
	Val []byte
	Rep int
}

// cFetchMsg retrieves Key's values.
type cFetchMsg struct{ Key string }

// cFetchOKMsg carries them back.
type cFetchOKMsg struct{ Vals [][]byte }

// cHandoffMsg transfers a graceful leaver's keys.
type cHandoffMsg struct{ Data map[string][][]byte }

// ---- handlers ----

// routeStep decides one routing step at a member: ownership if the key
// falls in (pred, self] or (self, successor], otherwise the closest
// preceding known candidate with fallbacks.
func (c *Chord) routeStep(self NodeID, st *chordState, key uint64) cFindOKMsg {
	if len(st.succs) == 0 {
		return cFindOKMsg{Done: true, Owner: self, Next: NoNode}
	}
	if st.pred != NoNode && dht.BetweenRightIncl(key, c.RingIDOf(st.pred), st.ringID) {
		return cFindOKMsg{Done: true, Owner: self, Reps: append([]NodeID(nil), st.succs...), Next: NoNode}
	}
	succ := st.succs[0]
	if dht.BetweenRightIncl(key, st.ringID, c.RingIDOf(succ)) {
		return cFindOKMsg{Done: true, Owner: succ, Reps: append([]NodeID(nil), st.succs[1:]...), Next: NoNode}
	}
	cands := c.closestPreceding(st, self, key)
	if len(cands) == 0 {
		return cFindOKMsg{Next: succ, Alts: append([]NodeID(nil), st.succs[1:]...)}
	}
	alts := cands[1:]
	if len(alts) > 3 {
		alts = alts[:3]
	}
	return cFindOKMsg{Next: cands[0], Alts: append([]NodeID(nil), alts...)}
}

// closestPreceding returns the known candidates strictly between self and
// the key, closest-to-the-key first. The returned slice is the member's
// home-shard scratch buffer, valid until the next call — the one caller
// (routeStep) copies what it keeps. Candidate sets are small (≤ fingers +
// successors, with heavy duplication), so dedup is a linear scan over the
// accepted list and the ordering is an insertion sort on precomputed
// distances — no map, no sort.Slice closure, no per-call allocation. The
// fingers are read one slot per run (the run index): the rest of a run
// would be rejected by the same dedup or range test as its first slot.
func (c *Chord) closestPreceding(st *chordState, self NodeID, key uint64) []NodeID {
	cp := st.cp
	out := cp.out[:0]
	dist := cp.dist[:0]
	for m := st.runs; m != 0; m &= m - 1 {
		out, dist = c.offerCandidate(st, self, key, NodeID(st.fingers[bits.TrailingZeros64(m)]), out, dist)
	}
	for _, id := range st.succs {
		out, dist = c.offerCandidate(st, self, key, id, out, dist)
	}
	// Insertion sort by (distance-to-key, id): the same strict total order
	// the previous sort.Slice used, so the result is identical.
	for i := 1; i < len(out); i++ {
		d, id := dist[i], out[i]
		j := i - 1
		for j >= 0 && (dist[j] > d || (dist[j] == d && out[j] > id)) {
			dist[j+1], out[j+1] = dist[j], out[j]
			j--
		}
		dist[j+1], out[j+1] = d, id
	}
	cp.out, cp.dist = out, dist // retain grown capacity
	return out
}

// offerCandidate appends id and its distance to the key when id is a real
// node other than self, not yet accepted, and strictly between self and
// the key.
func (c *Chord) offerCandidate(st *chordState, self NodeID, key uint64, id NodeID, out []NodeID, dist []uint64) ([]NodeID, []uint64) {
	if id == NoNode || id == self || containsNode(out, id) {
		return out, dist
	}
	if r := c.RingIDOf(id); dht.Between(r, st.ringID, key) {
		out = append(out, id)
		dist = append(dist, dht.RingDist(r, key))
	}
	return out, dist
}

// handleFind answers one routing step. A node that is no longer a member
// stays silent, so the asker's per-hop timeout fires and it retries via its
// fallback candidates.
func (c *Chord) handleFind(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	m, ok := env.Payload.(cFindMsg)
	if !ok {
		c.dropDead(n)
		return
	}
	n.Reply(env, MsgChordFindOK, c.routeStep(n.ID, st, m.Key))
}

// recv is every handler's boundary check: it returns the receiving
// member's state, or nil when the node is not a member (silence, as a
// departed node) or the sender lies outside the population — a forged
// datagram, dropped and counted dead before any ring arithmetic indexes
// by it.
func (c *Chord) recv(n *Node, env Envelope) *chordState {
	st := c.state(n.ID)
	if st == nil {
		return nil
	}
	if env.From < 0 || int(env.From) >= len(c.states) {
		c.dropDead(n)
		return nil
	}
	return st
}

// validID reports whether a NodeID carried in a payload is NoNode or
// inside the population; validIDs checks a whole list.
func (c *Chord) validID(id NodeID) bool {
	return id == NoNode || (id >= 0 && int(id) < len(c.states))
}

func (c *Chord) validIDs(ids []NodeID) bool {
	for _, id := range ids {
		if !c.validID(id) {
			return false
		}
	}
	return true
}

// validFindOK checks every NodeID a routing answer carries.
func (c *Chord) validFindOK(m cFindOKMsg) bool {
	return c.validID(m.Owner) && c.validID(m.Next) && c.validIDs(m.Reps) && c.validIDs(m.Alts)
}

// dropDead drops a malformed message (wrong payload type, or a NodeID
// outside the population) at n. The transport counted it delivered when
// it reached the node; the protocol could not take it, so it moves to the
// dead count, where an undecodable frame goes, and the accounting
// identity (sent = delivered + lost + dead) still holds.
func (c *Chord) dropDead(n *Node) {
	m := n.Metrics()
	m.MsgsDelivered--
	m.MsgsDead++
}

func (c *Chord) handleState(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	n.Reply(env, MsgChordStateOK, cStateOKMsg{Pred: st.pred, Succs: append([]NodeID(nil), st.succs...)})
}

// handleNotify rectifies the predecessor pointer. Liveness of the old
// predecessor is inferred from notify freshness (a live predecessor
// re-notifies every stabilize round), keeping the protocol free of global
// aliveness peeks.
func (c *Chord) handleNotify(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil || env.From == n.ID {
		return
	}
	p := env.From
	now := c.rt.Now(n.ID)
	stale := st.pred == NoNode || now-st.predSeen > 3*c.cfg.StabilizeEvery
	if st.pred == p || stale || dht.Between(c.RingIDOf(p), c.RingIDOf(st.pred), st.ringID) {
		st.pred = p
		st.predSeen = now
	}
	if len(st.succs) == 0 {
		// Two-node bootstrap: the first node hears of the second only by
		// this notify, which makes the notifier its successor too.
		st.succs = append(st.succs, p)
	}
	c.learn(st, p)
}

func (c *Chord) handleStore(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	sm, ok := env.Payload.(cStoreMsg)
	if !ok {
		c.dropDead(n)
		return
	}
	st.store(sm.Key, sm.Val)
	reps := sm.Rep
	for _, s := range st.succs {
		if reps <= 0 {
			break
		}
		n.Send(s, MsgChordStoreRep, cStoreMsg{Key: sm.Key, Val: sm.Val})
		reps--
	}
	n.Reply(env, MsgChordStoreOK, nil)
}

func (c *Chord) handleStoreRep(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	sm, ok := env.Payload.(cStoreMsg)
	if !ok {
		c.dropDead(n)
		return
	}
	st.store(sm.Key, sm.Val)
}

// store appends a value under key unless an identical value is already
// there: hints are soft state refreshed by republish, and without the
// duplicate check every rejoin's republish would grow the key's value set
// (and every fetch reply) forever. The data map is made on first store.
func (st *chordState) store(key string, val []byte) {
	for _, v := range st.data[key] {
		if string(v) == string(val) {
			return
		}
	}
	if st.data == nil {
		st.data = make(map[string][][]byte)
	}
	st.data[key] = append(st.data[key], append([]byte(nil), val...))
}

func (c *Chord) handleFetch(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	m, ok := env.Payload.(cFetchMsg)
	if !ok {
		c.dropDead(n)
		return
	}
	vals := st.data[m.Key]
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = append([]byte(nil), v...)
	}
	n.Reply(env, MsgChordFetchOK, cFetchOKMsg{Vals: out})
}

func (c *Chord) handleHandoff(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	m, ok := env.Payload.(cHandoffMsg)
	if !ok {
		c.dropDead(n)
		return
	}
	st.merge(m.Data)
}

// handleMigrate hands a new predecessor the keys it now owns: everything
// this node holds whose hash no longer falls in its own ownership range
// (joiner, self]. Without this, every join would strand previously stored
// keys at the old owner while lookups resolve to the new one. The copies
// stay here too — deleting before the (lossy) reply is confirmed would
// orphan the keys, and keeping them just demotes this node to a replica
// for them; duplicate-skipping merges keep repeated migrations from
// inflating anything.
func (c *Chord) handleMigrate(n *Node, env Envelope) {
	st := c.recv(n, env)
	if st == nil {
		return
	}
	joiner := c.RingIDOf(env.From)
	moved := make(map[string][][]byte)
	for k, vs := range st.data {
		if !dht.BetweenRightIncl(dht.HashKey(k), joiner, st.ringID) {
			cvs := make([][]byte, len(vs))
			for i, v := range vs {
				cvs[i] = append([]byte(nil), v...)
			}
			moved[k] = cvs
		}
	}
	n.Reply(env, MsgChordMigrateOK, cHandoffMsg{Data: moved})
}

// merge folds src into the member's data, skipping values already present
// under their key, so repeated migrations and handoffs stay idempotent.
func (st *chordState) merge(src map[string][][]byte) {
	for k, vs := range src {
		for _, v := range vs {
			st.store(k, v)
		}
	}
}

// ---- client operations: iterative lookup, put, get ----

// LookupResult reports one iterative lookup.
type LookupResult struct {
	// Owner is the resolved key owner (NoNode on failure).
	Owner NodeID
	// Reps are the owner's likely successors — where replicas live.
	Reps []NodeID
	// Hops counts routing RPCs issued (including retried ones).
	Hops int
	// Retries counts hops that timed out and were re-routed.
	Retries int
	// OK reports whether the lookup resolved.
	OK bool
}

// OpResult reports one Put or Get.
type OpResult struct {
	OK bool
	// Vals carries the fetched values (Get only).
	Vals [][]byte
	// Hops, Retries and LookupFails aggregate over every lookup attempt
	// the operation made.
	Hops        int
	Retries     int
	LookupFails int
}

// Lookup resolves a key's owner iteratively from the given node. A member
// starts from its own routing state (free); a non-member starts from a
// random live member (the bootstrap handout). done fires exactly once: on
// resolution, when the frontier or a budget runs out, or — OK false — when
// the issuing node stops mid-lookup (at the stop instant) or is down when
// the lookup starts.
func (c *Chord) Lookup(from NodeID, key string, done func(LookupResult)) {
	n := c.rt.AddNode(from)
	c.drive(n, c.state(from), NoNode, dht.HashKey(key), done)
}

// chordLookup is one iterative lookup in flight: a best-first frontier of
// candidates ordered by remaining ring distance, asked one at a time. A
// lookup has exactly one hop outstanding, so the hop's identity (cur,
// hopStart, wasRetry) lives here rather than in per-hop closures, and the
// reply and timeout callbacks are bound once per struct. A finished lookup
// goes back to its issuer's home-shard free list before done runs: no
// callback of it is parked any more (its one hop was just answered or
// expired, or failed by the issuer's stop), so the next lookup on the shard
// reuses it with no allocation. A lookup whose issuer stops mid-flight
// finishes, unresolved, when its outstanding hop fails at the stop instant.
type chordLookup struct {
	c    *Chord
	n    *Node
	st   *chordState // member state to learn into; nil for none
	cp   *chordScratch
	key  uint64
	res  LookupResult
	done func(LookupResult)

	// seen lists every candidate ever pushed, in push order, with n itself
	// first; the frontier is the entries not yet asked. Lookups touch a few
	// dozen candidates, so dedup is a linear scan and the best pick a scan
	// of cached distances.
	seen []lookupCand

	rec  *obs.Recorder
	lseq uint64
	// afterTimeout marks the next hop as a re-route after a timeout.
	afterTimeout bool

	cur      NodeID
	hopStart time.Duration
	wasRetry bool

	onReply   func(Envelope)
	onTimeout func()
}

// lookupCand is one candidate a lookup has learned of: its clockwise
// distance to the key and whether it has been asked (or is the issuer).
// The id is narrowed to 32 bits to keep a candidate at 16 bytes.
type lookupCand struct {
	dist  uint64
	id    int32
	asked bool
}

// drive runs one iterative lookup of key from n, folding each answer's
// alternates into the frontier and retrying through it when a hop times
// out. st is n's member state (nil: seed from start, or a random member).
func (c *Chord) drive(n *Node, st *chordState, start NodeID, key uint64, done func(LookupResult)) {
	cp := c.scratch(n.ID)
	var l *chordLookup
	if k := len(cp.lookups); k > 0 {
		l = cp.lookups[k-1]
		cp.lookups = cp.lookups[:k-1]
	} else {
		l = &chordLookup{c: c, cp: cp}
		l.onReply, l.onTimeout = l.reply, l.timeout
	}
	l.n, l.key, l.res, l.done = n, key, LookupResult{Owner: NoNode}, done
	if !n.alive {
		l.finish() // a stopped issuer resolves nothing and sends nothing
		return
	}
	l.seen = append(l.seen[:0], lookupCand{id: int32(n.ID), asked: true})
	ost := st
	if st != nil && len(st.succs) == 0 && (c.sharded != nil || len(c.order) > 1) {
		// A member that has not (re)discovered its successor yet would
		// answer every key with itself — route via the membership instead,
		// like a non-member, until stabilize re-anchors it. (Sharded, the
		// shared member list is driver-side state; the own-state bootstrap
		// pick below covers the same repair, and a genuinely alone member
		// simply fails the lookup.)
		st = nil
	}
	l.st = st
	if st != nil {
		step := c.routeStep(n.ID, st, key)
		if step.Done {
			l.res.OK, l.res.Owner, l.res.Reps = true, step.Owner, step.Reps
			l.finish()
			return
		}
		l.push(step.Next)
		l.push(step.Alts...)
	} else {
		if start == NoNode {
			if c.sharded != nil {
				if ost != nil {
					start = c.pickBootstrap(n.ID, ost)
				}
			} else {
				start = c.randomMember(n.ID)
			}
		}
		l.push(start)
	}
	// Flight recorder: one trace record per hop request, tagged with a
	// recorder-unique lookup ID. afterTimeout distinguishes a first-choice
	// hop (HopOK) from one re-routed after a timeout (HopRetry).
	l.afterTimeout = false
	if l.rec = c.rt.recorder(); l.rec != nil {
		l.lseq = l.rec.Begin()
	}
	l.next()
}

// finish releases the lookup to the free list, then reports its result.
func (l *chordLookup) finish() {
	res, done := l.res, l.done
	l.n, l.st, l.res, l.done = nil, nil, LookupResult{}, nil
	l.cp.lookups = append(l.cp.lookups, l)
	done(res)
}

// push adds candidates the lookup has not seen yet.
func (l *chordLookup) push(ids ...NodeID) {
next:
	for _, id := range ids {
		if id == NoNode {
			continue
		}
		for i := range l.seen {
			if NodeID(l.seen[i].id) == id {
				continue next
			}
		}
		l.seen = append(l.seen, lookupCand{id: int32(id), dist: dht.RingDist(l.c.RingIDOf(id), l.key)})
	}
}

// memberState is the state replies teach: the issuer's, while it is still
// the same member incarnation.
func (l *chordLookup) memberState() *chordState {
	if l.st != nil && l.c.state(l.n.ID) == l.st {
		return l.st
	}
	return nil
}

// next asks the closest unasked candidate (the first in push order among
// equals), or finishes the lookup when the frontier or a budget runs out.
func (l *chordLookup) next() {
	c := l.c
	best := -1
	for i := range l.seen {
		if !l.seen[i].asked && (best < 0 || l.seen[i].dist < l.seen[best].dist) {
			best = i
		}
	}
	if best < 0 || l.res.Hops >= maxHops || l.res.Retries >= maxLookupTimeouts {
		l.finish()
		return
	}
	l.seen[best].asked = true
	l.cur = NodeID(l.seen[best].id)
	l.res.Hops++
	l.hopStart = c.rt.Now(l.n.ID)
	l.wasRetry = l.afterTimeout
	l.afterTimeout = false
	l.n.RequestPolicy(l.cur, MsgChordFind, cFindMsg{Key: l.key}, c.cfg.RPCTimeout, l.onReply, l.onTimeout)
}

// reply folds one routing answer in: learn from it, finish on ownership,
// otherwise widen the frontier and ask the next candidate.
func (l *chordLookup) reply(env Envelope) {
	c, n := l.c, l.n
	ok, valid := env.Payload.(cFindOKMsg)
	if !valid || !c.validFindOK(ok) {
		// A forged answer: dropped, and the hop fails as if it had been
		// lost.
		c.dropDead(n)
		l.timeout()
		return
	}
	if l.rec != nil {
		out := obs.HopOK
		if l.wasRetry {
			out = obs.HopRetry
		}
		l.rec.Record(obs.Hop{Lookup: l.lseq, Scheme: "chord", Type: MsgChordFind,
			From: int(n.ID), To: int(l.cur), At: l.hopStart,
			RTTms: msOf(c.rt.Now(n.ID) - l.hopStart), Outcome: out})
	}
	if ms := l.memberState(); ms != nil {
		delete(ms.suspect, l.cur)
		c.learn(ms, l.cur)
		c.learn(ms, ok.Owner)
		c.learn(ms, ok.Next)
	}
	if ok.Done {
		l.res.OK, l.res.Owner, l.res.Reps = true, ok.Owner, ok.Reps
		l.finish()
		return
	}
	l.push(ok.Next)
	l.push(ok.Alts...)
	l.next()
}

// timeout charges a hop that went unanswered to its peer and re-routes,
// or — the hop failed by the issuer's stop — finishes the lookup
// unresolved.
func (l *chordLookup) timeout() {
	if l.rec != nil {
		l.rec.Record(obs.Hop{Lookup: l.lseq, Scheme: "chord", Type: MsgChordFind,
			From: int(l.n.ID), To: int(l.cur), At: l.hopStart, Outcome: obs.HopTimeout})
	}
	if !l.n.alive {
		l.finish()
		return
	}
	l.res.Retries++
	l.afterTimeout = true
	if ms := l.memberState(); ms != nil {
		l.c.suspectPeer(ms, l.cur)
	}
	l.next()
}

// Put stores value under key from the given node: an iterative lookup,
// then a store RPC to the owner (which replicates server-side), falling
// back through the owner's successors and finally a fresh lookup when
// stores time out. Stores are idempotent — an identical value already
// present is not duplicated — so hint schemes can republish freely.
func (c *Chord) Put(from NodeID, key string, val []byte, done func(OpResult)) {
	res := &OpResult{}
	c.opAttempt(c.rt.AddNode(from), key, res, 2,
		MsgChordStore, cStoreMsg{Key: key, Val: val, Rep: replicas - 1},
		func(Envelope) bool {
			res.OK = true
			return true
		},
		done)
}

// Get retrieves a key's values from the given node: an iterative lookup,
// a fetch from the owner, and fallback fetches from its replicas when the
// owner has gone dark.
func (c *Chord) Get(from NodeID, key string, done func(OpResult)) {
	res := &OpResult{}
	c.opAttempt(c.rt.AddNode(from), key, res, 2,
		MsgChordFetch, cFetchMsg{Key: key},
		func(env Envelope) bool {
			m, ok := env.Payload.(cFetchOKMsg)
			if ok {
				res.OK, res.Vals = true, m.Vals
			}
			return ok
		},
		done)
}

// opAttempt is the shared skeleton of Put and Get: resolve the key's
// owner, issue the operation RPC against the owner and then each replica
// in turn when targets time out, and re-run the whole attempt (fresh
// lookup included) when every target is exhausted, up to the attempt
// budget. onOK consumes the first successful reply before done fires; a
// reply it rejects as malformed is dropped, counted dead, and fails its
// target as a timeout would. An issuer that stops ends the operation with
// what it has (OK false, unless a reply already made it) and no further
// attempt or target.
func (c *Chord) opAttempt(n *Node, key string, res *OpResult, attempts int, typ string, payload any, onOK func(Envelope) bool, done func(OpResult)) {
	if attempts <= 0 || !n.alive {
		done(*res)
		return
	}
	c.drive(n, c.state(n.ID), NoNode, dht.HashKey(key), func(r LookupResult) {
		res.Hops += r.Hops
		res.Retries += r.Retries
		if !r.OK {
			res.LookupFails++
			c.opAttempt(n, key, res, attempts-1, typ, payload, onOK, done)
			return
		}
		targets := append([]NodeID{r.Owner}, r.Reps...)
		var tryNext func(ts []NodeID)
		tryNext = func(ts []NodeID) {
			for len(ts) > 0 && ts[0] == NoNode {
				ts = ts[1:]
			}
			if len(ts) == 0 {
				c.opAttempt(n, key, res, attempts-1, typ, payload, onOK, done)
				return
			}
			onTimeout := func() {
				if !n.alive {
					done(*res)
					return
				}
				res.Retries++
				tryNext(ts[1:])
			}
			n.RequestPolicy(ts[0], typ, payload, c.cfg.RPCTimeout,
				func(env Envelope) {
					if !onOK(env) {
						c.dropDead(n)
						onTimeout()
						return
					}
					done(*res)
				},
				onTimeout)
		}
		tryNext(targets)
	})
}
