package p2p

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/sim"
)

// Runtime is the message transport: it owns the kernel, the latency matrix
// that prices every link, the node registry, the global metrics and the
// fault plan, if any (loss included). A request leg travels ⌊durOf(RTT)/2⌋
// and a response leg the remaining durOf(RTT)-⌊durOf(RTT)/2⌋, so a
// request/response round trip measured in virtual time equals the matrix
// entry exactly (at nanosecond resolution) — which is what makes
// ping-over-messages interchangeable with the static simulator's Probe.
//
// The send path is allocation-free in steady state: an envelope in flight
// is parked by value in a free-list slab and delivery is scheduled as a
// typed kernel event (sim.AfterHandler) carrying the slot index — no
// closure, no boxing, no per-message allocation once the slab and the
// event queue have grown to the workload's high-water mark.
//
// A runtime is either serial (New: one kernel, one shard) or sharded
// (NewSharded: one sim.Sharded kernel, hosts partitioned across shards).
// All hot-path state — event clock, latency matrix + RTT cache, envelope
// and timeout slabs, metrics, multicast scratch, msg-id counter — lives
// per shard in a shardCtx, so the zero-alloc send discipline holds within
// each shard with no locks; a serial runtime is simply the one-shard case,
// and TotalMetrics sums the shards' accounts. Cross-shard
// sends park in per-(source, destination) mailboxes and are applied by the
// coordinator between windows in (virtual time, source shard, per-source
// order) — see send and drainCross.
type Runtime struct {
	// Kernel is the discrete-event clock all activity runs on — the only
	// kernel of a serial runtime, shard 0's kernel (the driver shard,
	// where setup and chain events run) of a sharded one.
	Kernel *sim.Sim

	// nodeCore holds the validated Config and Node's timers (see core).
	nodeCore

	m      latency.Matrix // shard 0's matrix; population/bounds authority
	nodes  []*Node        // dense: node IDs are matrix indices; nil = unregistered
	groups map[string]*group

	// sh is the per-shard hot-path state; length 1 for a serial runtime.
	sh []shardCtx
	// shardOf maps NodeID -> shard index; nil means everything on shard 0.
	shardOf []int32
	// shk/window are set iff the runtime is sharded.
	shk    *sim.Sharded
	window time.Duration
	// cross[src*K+dst] holds envelopes and routed closures crossing shards
	// this window; crossBuf note in drainCross.
	cross [][]crossMsg

	// obsReg/obsRec are the optional observability hooks. Both are nil by
	// default: a runtime without observability pays one nil compare per
	// message, and with them attached every hook is a preallocated counter
	// or ring write — the send path stays allocation-free either way.
	obsReg *obs.Registry
	obsRec *obs.Recorder

	// flt is the optional fault plan (InstallFaults). Like the obs
	// hooks it is nil by default and costs one nil compare per message, so
	// a runtime without faults reproduces the unfaulted figures bit for
	// bit. Decisions are stateless hashes of (src, dst, window or the
	// sender's send ordinal), so they are identical at every shard count.
	flt *faults.Plan

	// liveCount tracks the live node population for the health sampler.
	liveCount int
}

// shardCtx is one shard's private hot-path state. Only events executing on
// the shard (and the coordinator, between windows) touch it.
type shardCtx struct {
	sim *sim.Sim
	// metrics is the shard's private account (TotalMetrics sums them), so
	// the hot path increments it with no lock.
	metrics *Metrics
	// m is the shard's own matrix view. Matrices with an RTT cache are not
	// safe for concurrent use; each shard pricing through its own cache is
	// what keeps the cache while shards run concurrently. (Which goroutine
	// runs a shard changes from window to window — the kernel's barrier
	// orders one window's run before the next, so the cache, like all
	// shard state, is only ever touched by one goroutine at a time.)
	m latency.Matrix

	// deliverH + the slab implement the zero-alloc send path.
	deliverH sim.HandlerID
	slab     []Envelope
	slabFree []uint32

	// timeoutH + timeouts do the same for request expiries.
	timeoutH sim.HandlerID
	timeouts expirySlab

	// mcScratch is Multicast's reusable recipient buffer.
	mcScratch []NodeID

	// nextMsgID allocates correlation IDs; idBrand (shard index in the top
	// 16 bits, zero on shard 0) keeps them runtime-unique without a shared
	// counter.
	nextMsgID uint64
	idBrand   uint64
}

// crossMsg is one cross-shard handoff: an envelope to deliver (fn nil) or
// a routed closure (Handoff). at is absolute virtual time, already
// validated against the lookahead window.
type crossMsg struct {
	at  time.Duration
	env Envelope
	fn  func()
}

// timeoutRec is one pending request expiry parked in the timeout slab.
type timeoutRec struct {
	node  NodeID
	msgID uint64
}

// expirySlab parks pending request expiries by value on a free list; the
// slot index rides the expiry's typed kernel event, so scheduling an
// expiry allocates nothing. Each simulator shard owns one.
type expirySlab struct {
	recs []timeoutRec
	free []uint32
}

// put parks (node, msgID) and returns its slot.
func (t *expirySlab) put(node NodeID, msgID uint64) uint64 {
	rec := timeoutRec{node: node, msgID: msgID}
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.recs[slot] = rec
		return uint64(slot)
	}
	t.recs = append(t.recs, rec)
	return uint64(len(t.recs) - 1)
}

// take returns the record in slot and frees the slot.
func (t *expirySlab) take(slot uint64) timeoutRec {
	t.free = append(t.free, uint32(slot))
	return t.recs[slot]
}

// pending is the number of parked expiries.
func (t *expirySlab) pending() int { return len(t.recs) - len(t.free) }

// initShard wires one shardCtx to its kernel: per-shard handler IDs over
// per-shard slabs. Registration order is fixed (deliver, then timeout) on
// every shard.
func (r *Runtime) initShard(s int, kernel *sim.Sim, m latency.Matrix, met *Metrics) {
	sc := &r.sh[s]
	sc.sim = kernel
	sc.m = m
	sc.metrics = met
	sc.idBrand = uint64(s) << 48
	shard := s
	sc.deliverH = kernel.RegisterHandler(func(arg uint64) { r.deliverSlot(shard, arg) })
	sc.timeoutH = kernel.RegisterFIFOHandler(func(arg uint64) { r.expireSlot(shard, arg) })
}

// New creates a serial runtime over a latency matrix. seed is unused: loss
// is a fault-plan rule (InstallFaults), and protocol randomness comes from
// the protocols' own streams.
func New(kernel *sim.Sim, m latency.Matrix, cfg Config, seed int64) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultConfig().RPCTimeout
	}
	r := &Runtime{
		Kernel: kernel,
		m:      m,
		nodes:  make([]*Node, m.N()),
		groups: make(map[string]*group),
		sh:     make([]shardCtx, 1),
	}
	r.initShard(0, kernel, m, new(Metrics))
	r.initCore(r, cfg)
	return r
}

// NewSharded creates a runtime over a sharded kernel: hosts are
// partitioned across shk's shards by shardOf (a PoP-aligned assignment
// from netmodel.Topology.ShardByPoP), each shard prices through its own
// matrix view ms[s] (so no RTT cache is shared between running shards), and
// shk's window must be the matching cross-partition latency floor. seed is
// unused, as in New. Observability hooks (EnableObs, AttachRecorder,
// StartHealthSampler) are serial-only.
func NewSharded(shk *sim.Sharded, ms []latency.Matrix, cfg Config, seed int64, shardOf []int32) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = DefaultConfig().RPCTimeout
	}
	k := shk.K()
	if len(ms) != k {
		panic(fmt.Sprintf("p2p: %d shard matrices for %d shards", len(ms), k))
	}
	n := ms[0].N()
	for _, m := range ms {
		if m.N() != n {
			panic("p2p: shard matrices disagree on population")
		}
	}
	if len(shardOf) != n {
		panic(fmt.Sprintf("p2p: shard assignment covers %d of %d nodes", len(shardOf), n))
	}
	for id, s := range shardOf {
		if s < 0 || int(s) >= k {
			panic(fmt.Sprintf("p2p: node %d assigned to shard %d of %d", id, s, k))
		}
	}
	r := &Runtime{
		Kernel:  shk.Shard(0),
		m:       ms[0],
		nodes:   make([]*Node, n),
		groups:  make(map[string]*group),
		sh:      make([]shardCtx, k),
		shardOf: shardOf,
		shk:     shk,
		window:  shk.Window(),
		cross:   make([][]crossMsg, k*k),
	}
	mets := make([]Metrics, k)
	for s := 0; s < k; s++ {
		r.initShard(s, shk.Shard(s), ms[s], &mets[s])
	}
	r.initCore(r, cfg)
	shk.OnDrain(r.drainCross)
	return r
}

// Sharded reports whether the runtime runs over a sharded kernel.
func (r *Runtime) Sharded() bool { return r.shk != nil }

// Shards returns the shard count (1 for a serial runtime).
func (r *Runtime) Shards() int { return len(r.sh) }

// ShardOf returns a node's home shard. Every event that touches a node's
// protocol state executes on its home shard; that is the sharding
// convention all protocols follow.
func (r *Runtime) ShardOf(id NodeID) int { return r.shardIdx(id) }

func (r *Runtime) shardIdx(id NodeID) int {
	if r.shardOf == nil {
		return 0
	}
	return int(r.shardOf[id])
}

// Now returns the virtual time at a node's home shard. Valid from events
// executing on that shard (where it equals the event's own time — exactly
// what Kernel.Now returns on a serial runtime) and from setup code before
// the run starts.
func (r *Runtime) Now(id NodeID) time.Duration { return r.sh[r.shardIdx(id)].sim.Now() }

// After schedules the registered timer h with arg on a node's home shard
// after d of that shard's virtual time: a typed kernel event, so it
// allocates nothing. It must be called from the node's home context (an
// event executing on the same shard — every protocol callback at the node
// is); for cross-shard routing use Handoff.
func (r *Runtime) After(id NodeID, d time.Duration, h sim.HandlerID, arg uint64) {
	r.sh[r.shardIdx(id)].sim.AfterHandler(d, h, arg)
}

// Handoff schedules fn on node to's home shard at the source shard's
// now+d, where from is the shard the caller is executing on (a node's
// home shard, or DriverShard for setup/chain events). On a serial runtime
// it is Kernel.After. Sharded, a d below the kernel's lookahead window is
// raised to the window — the least delay at which a cross-shard insert is
// legal mid-window — and the entry joins the same deterministic mailbox
// order as cross-shard envelopes. The window is a topology constant, never
// a function of the shard count, so a chain that hops with Handoff has
// the same virtual times at every K: the determinism contract's keystone.
func (r *Runtime) Handoff(from int, to NodeID, d time.Duration, fn func()) {
	sc := &r.sh[from]
	if r.shk == nil {
		sc.sim.After(d, fn)
		return
	}
	at := sc.sim.Now() + max(d, r.window)
	ds := r.shardIdx(to)
	if ds == from {
		sc.sim.At(at, fn)
		return
	}
	r.cross[from*len(r.sh)+ds] = append(r.cross[from*len(r.sh)+ds], crossMsg{at: at, fn: fn})
}

// DriverShard is where setup and sequential-driver chain events execute:
// shard 0. Join ramps, churn scripts and op sequencers schedule there and
// hop to a node's home shard via Handoff.
const DriverShard = 0

// timeoutAt schedules a request expiry as a typed kernel event: the
// (node, msgID) pair parks in the home shard's timeout slab and the slot
// index rides the event — no closure per request. Expiries are always
// shard-local: the request was issued by an event at the node. timeoutH is
// a FIFO handler, so an expiry at now plus the usual RPC timeout parks in
// the kernel's FIFO lane rather than the heap.
func (r *Runtime) timeoutAt(d time.Duration, n *Node, msgID uint64) {
	sc := &r.sh[r.shardIdx(n.ID)]
	sc.metrics.ExpiriesScheduled++
	sc.sim.AfterHandler(d, sc.timeoutH, sc.timeouts.put(n.ID, msgID))
}

// expireSlot is the registered handler completing a timeout: the node
// decides whether the request is still outstanding (a response that
// arrived first removed the inflight entry and wins the race).
func (r *Runtime) expireSlot(shard int, arg uint64) {
	sc := &r.sh[shard]
	sc.metrics.ExpiriesFired++
	rec := sc.timeouts.take(arg)
	if n := r.node(rec.node); n != nil {
		n.expire(rec.msgID)
	}
}

// RTTms returns the true link RTT between two nodes in milliseconds,
// priced through the first node's home-shard matrix (all shard matrices
// price identically; the home cache is the one the calling event owns).
func (r *Runtime) RTTms(a, b NodeID) float64 {
	return r.sh[r.shardIdx(a)].m.LatencyMs(int(a), int(b))
}

// Population returns the matrix population: node IDs live in [0, Population).
// Protocol packages outside p2p size their dense per-node state with it.
func (r *Runtime) Population() int { return r.m.N() }

// AddNode registers the node for a matrix index, bringing a NEW node up
// alive. An already-registered node is returned as-is: in particular a
// stopped node stays stopped. Resurrection is Restart's job — AddNode
// silently reviving a churn-downed node would remove it from the churn
// process (the pending rejoin would find it alive and stop driving it).
// Every node serves the ping table (see NewTable) until its protocol
// serves its own, and charges its home shard's metrics account.
func (r *Runtime) AddNode(id NodeID) *Node {
	if int(id) < 0 || int(id) >= r.m.N() {
		panic(fmt.Sprintf("p2p: node %d outside matrix population %d", id, r.m.N()))
	}
	if n := r.nodes[id]; n != nil {
		return n
	}
	n := newNode(id, r, r.sh[r.shardIdx(id)].metrics)
	r.nodes[id] = n
	r.liveCount++
	return n
}

// node is the bounds-checked registry lookup: ids outside the matrix
// population are simply unregistered, as they were with the map registry.
func (r *Runtime) node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(r.nodes) {
		return nil
	}
	return r.nodes[id]
}

// Node returns the registered node for id, or nil.
func (r *Runtime) Node(id NodeID) *Node { return r.node(id) }

// Alive reports whether id is registered and up.
func (r *Runtime) Alive(id NodeID) bool {
	n := r.node(id)
	return n != nil && n.alive
}

// group is one multicast group: the membership, sorted ascending by
// NodeID (the stable delivery order the wire studies replay against), and
// per-sender latency indexes built lazily the first time a sender
// multicasts (see senderIndex).
type group struct {
	members []NodeID
	senders map[NodeID]*senderIndex
}

// senderIndex orders one sender's view of a group by (RTT, NodeID)
// ascending, so an expanding-ring round with radius r is a binary-searched
// prefix instead of an O(members) rescan pricing every link again. The
// index is maintained incrementally on join/leave; node aliveness is
// checked at send time, so churn that only toggles liveness never touches
// it.
type senderIndex struct {
	rtts []float64
	ids  []NodeID
}

// maxSenderIndexes bounds the per-group index cache. Each index is
// O(members) memory; every study multicasts from a bounded target set
// (≤ ~100), so the cap exists only to keep a pathological many-sender
// workload from holding senders × members floats. Senders beyond the cap
// fall back to the linear scan — same copies, same order, same figures.
const maxSenderIndexes = 256

// searchPair returns the insertion position of (rtt, id) in the index's
// (RTT, NodeID)-ascending order. Hand-rolled binary search: sort.Search
// would force the bounds into a closure on every call.
func (x *senderIndex) searchPair(rtt float64, id NodeID) int {
	lo, hi := 0, len(x.rtts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.rtts[mid] < rtt || (x.rtts[mid] == rtt && x.ids[mid] < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefixLen returns how many leading index entries have RTT <= radius.
func (x *senderIndex) prefixLen(radius float64) int {
	lo, hi := 0, len(x.rtts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.rtts[mid] <= radius {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds (rtt, id) keeping the (RTT, NodeID) order.
func (x *senderIndex) insert(rtt float64, id NodeID) {
	i := x.searchPair(rtt, id)
	x.rtts = slices.Insert(x.rtts, i, rtt)
	x.ids = slices.Insert(x.ids, i, id)
}

// remove deletes (rtt, id) if present.
func (x *senderIndex) remove(rtt float64, id NodeID) {
	i := x.searchPair(rtt, id)
	if i < len(x.ids) && x.ids[i] == id && x.rtts[i] == rtt {
		x.rtts = slices.Delete(x.rtts, i, i+1)
		x.ids = slices.Delete(x.ids, i, i+1)
	}
}

// JoinGroup subscribes a node to a named multicast group (the well-known
// group of the Section 5 expanding search). Idempotent. Membership is kept
// sorted by NodeID with a binary-search insert — O(log n) lookup, O(n)
// insert — so registering a 100k-host population never re-sorts the whole
// slice per join, and Multicast's delivery order stays stable (ascending
// NodeID) no matter the join order. Existing sender indexes are patched
// incrementally rather than rebuilt.
func (r *Runtime) JoinGroup(gname string, id NodeID) {
	g := r.groups[gname]
	if g == nil {
		g = &group{}
		r.groups[gname] = g
	}
	i, ok := slices.BinarySearch(g.members, id)
	if ok {
		return
	}
	g.members = slices.Insert(g.members, i, id)
	for from, idx := range g.senders {
		idx.insert(r.RTTms(from, id), id)
	}
}

// LeaveGroup removes a node from a multicast group. The last member's
// leave deletes the group entry outright — under churn, groups come and
// go by name, and empty member slices (plus their sender indexes) would
// otherwise accumulate in the map forever.
func (r *Runtime) LeaveGroup(gname string, id NodeID) {
	g := r.groups[gname]
	if g == nil {
		return
	}
	i, ok := slices.BinarySearch(g.members, id)
	if !ok {
		return
	}
	// The kernel is single-threaded and Multicast never runs user code
	// mid-iteration, so deleting in place cannot disturb a delivery.
	g.members = slices.Delete(g.members, i, i+1)
	if len(g.members) == 0 {
		delete(r.groups, gname)
		return
	}
	// Drop the leaver's own sender index too: a churned-out member that
	// had multicast would otherwise pin two O(members) slices — and one
	// of the capped sender slots — forever. A rejoin rebuilds the index
	// with identical values on its next multicast.
	delete(g.senders, id)
	for from, idx := range g.senders {
		idx.remove(r.RTTms(from, id), id)
	}
}

// senderIdx returns the sender's latency index over the group, building
// it on first use. Returns nil when the sender cache is full — the caller
// falls back to the linear scan.
func (g *group) senderIdx(r *Runtime, from NodeID) *senderIndex {
	if idx, ok := g.senders[from]; ok {
		return idx
	}
	if len(g.senders) >= maxSenderIndexes {
		return nil
	}
	if g.senders == nil {
		g.senders = make(map[NodeID]*senderIndex)
	}
	idx := &senderIndex{
		rtts: make([]float64, len(g.members)),
		ids:  make([]NodeID, len(g.members)),
	}
	for i, m := range g.members {
		idx.rtts[i] = r.RTTms(from, m)
		idx.ids[i] = m
	}
	sort.Sort((*senderIndexSort)(idx))
	g.senders[from] = idx
	return idx
}

// senderIndexSort sorts a senderIndex by (RTT, NodeID) ascending.
type senderIndexSort senderIndex

func (s *senderIndexSort) Len() int { return len(s.ids) }
func (s *senderIndexSort) Less(i, j int) bool {
	if s.rtts[i] != s.rtts[j] {
		return s.rtts[i] < s.rtts[j]
	}
	return s.ids[i] < s.ids[j]
}
func (s *senderIndexSort) Swap(i, j int) {
	s.rtts[i], s.rtts[j] = s.rtts[j], s.rtts[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// Multicast sends one-way copies of a message to every live group member
// within radiusMs of the sender (a latency-scoped delivery standing in for
// TTL-scoped IP multicast). Each copy is priced and faulted like a unicast.
// It returns the number of copies handed to the transport.
//
// The recipient set comes from the sender's latency index: a binary-
// searched RTT prefix, re-sorted ascending by NodeID into a reusable
// scratch buffer. That recovers exactly the linear scan's recipient set
// AND its send order, so the sender's send ordinals — and with them its
// loss draws and every figure byte — are unchanged; each expanding-ring
// round just stops pricing the 99% of a 100k-host population its radius
// can never reach.
func (r *Runtime) Multicast(from NodeID, gname, typ string, payload any, radiusMs float64) int {
	g := r.groups[gname]
	if g == nil {
		return 0
	}
	sc := &r.sh[r.shardIdx(from)]
	// Sharded, the lazy index build would write the shared senders map from
	// a worker goroutine; senders the driver pre-warmed (WarmSenderIndex)
	// are read-only lookups, anyone else takes the linear scan.
	var idx *senderIndex
	if r.shk == nil {
		idx = g.senderIdx(r, from)
	} else {
		idx = g.senders[from]
	}
	sc.mcScratch = sc.mcScratch[:0]
	if idx != nil {
		sc.mcScratch = append(sc.mcScratch, idx.ids[:idx.prefixLen(radiusMs)]...)
		slices.Sort(sc.mcScratch)
	} else {
		for _, m := range g.members {
			if r.RTTms(from, m) <= radiusMs {
				sc.mcScratch = append(sc.mcScratch, m)
			}
		}
	}
	sent := 0
	for _, m := range sc.mcScratch {
		if m == from || !r.Alive(m) {
			continue
		}
		r.send(Envelope{Type: typ, From: from, To: m, MsgID: r.allocMsgIDFor(from), Payload: payload})
		sent++
	}
	sc.metrics.MsgsMulticast += int64(sent)
	return sent
}

// WarmSenderIndex builds a sender's latency index over a group ahead of the
// run. Sharded drivers call it at setup for every node that will multicast:
// the build mutates shared group state, which only the single-threaded setup
// phase may do.
func (r *Runtime) WarmSenderIndex(gname string, from NodeID) {
	if g := r.groups[gname]; g != nil {
		g.senderIdx(r, from)
	}
}

// EnableObs attaches a metrics registry. Every send and delivery from now
// on is noted in it; pass nil to detach. Attaching a registry never
// perturbs the simulation — it draws no randomness and schedules no events.
// Serial-only: the registry's counters are not sharded.
func (r *Runtime) EnableObs(reg *obs.Registry) {
	if r.shk != nil && reg != nil {
		panic("p2p: observability registry is serial-only")
	}
	r.obsReg = reg
}

// AttachRecorder attaches a lookup flight recorder. Every Query (so every
// nearest-peer scheme's wire search) and chord's lookup driver record
// per-hop traces into it; pass nil to detach. Like the registry, a
// recorder is purely passive.
// Serial-only: the recorder's ring is a single-writer structure.
func (r *Runtime) AttachRecorder(rec *obs.Recorder) {
	if r.shk != nil && rec != nil {
		panic("p2p: flight recorder is serial-only")
	}
	r.obsRec = rec
}

// recorder returns the attached flight recorder, or nil.
func (r *Runtime) recorder() *obs.Recorder { return r.obsRec }

// LiveNodes returns the number of registered nodes currently up.
func (r *Runtime) LiveNodes() int { return r.liveCount }

// InflightEnvelopes returns the number of envelopes currently in flight
// (occupied send-slab slots plus parked cross-shard envelopes) — the
// inflight term of the accounting identity
// MsgsSent == MsgsDelivered + MsgsLost + MsgsDead + inflight.
func (r *Runtime) InflightEnvelopes() int {
	n := 0
	for i := range r.sh {
		n += len(r.sh[i].slab) - len(r.sh[i].slabFree)
	}
	for _, box := range r.cross {
		for i := range box {
			if box[i].fn == nil {
				n++
			}
		}
	}
	return n
}

// PendingExpiries returns the number of request-expiry events still parked
// in the timeout slabs (ExpiriesScheduled - ExpiriesFired).
func (r *Runtime) PendingExpiries() int {
	n := 0
	for i := range r.sh {
		n += r.sh[i].timeouts.pending()
	}
	return n
}

// RegisterHandler registers t on every shard kernel (the one kernel of a
// serial runtime). The runtime registers its own handlers on every shard
// in the same order, so the kernels hand out the same ID and After may use
// it at any node; a typed handler registered on one shard kernel directly
// would break that lockstep, and is refused here.
func (r *Runtime) RegisterHandler(t Timer) sim.HandlerID {
	fn := t.Fire
	h := r.sh[0].sim.RegisterHandler(fn)
	for s := 1; s < len(r.sh); s++ {
		if r.sh[s].sim.RegisterHandler(fn) != h {
			panic(fmt.Sprintf("p2p: shard %d kernel's handlers are out of lockstep with shard 0's", s))
		}
	}
	return h
}

// core returns the validated Config and Node's timers.
func (r *Runtime) core() *nodeCore { return &r.nodeCore }

// noteLive adjusts the live-node count (Node.Stop/Restart bookkeeping).
func (r *Runtime) noteLive(delta int) { r.liveCount += delta }

// TotalMetrics sums the per-shard metrics. On a serial runtime it equals
// the Metrics field; figure code reads this so serial and sharded cells
// render through one accessor.
func (r *Runtime) TotalMetrics() Metrics {
	var t Metrics
	for i := range r.sh {
		t.Add(*r.sh[i].metrics)
	}
	return t
}

// ShardMetrics returns shard s's private metrics, for a study reading one
// shard's account from inside that shard's events.
func (r *Runtime) ShardMetrics(s int) *Metrics { return r.sh[s].metrics }

// StartHealthSampler starts a periodic obs.Sampler over this runtime's
// health: inflight envelope depth, kernel event-queue depth, and live
// population, every `every` of virtual time until horizon. The returned
// sampler is already started. Note the sampler's self-rescheduling tick
// keeps the kernel queue non-empty until horizon, so drain-style Run()
// loops only terminate once the horizon passes (or the kernel is stopped).
// Serial-only: the sampler ticks on one kernel and reads cross-shard state.
func (r *Runtime) StartHealthSampler(every, horizon time.Duration, capacity int) *obs.Sampler {
	if r.shk != nil {
		panic("p2p: health sampler is serial-only")
	}
	s := obs.NewSampler(r.Kernel, every, horizon, capacity, func() (int, int, int) {
		return r.InflightEnvelopes(), r.Kernel.Pending(), r.liveCount
	})
	s.Start()
	return s
}

// allocMsgIDFor hands out runtime-unique correlation IDs from the node's
// home-shard counter; the shard brand in the top bits keeps IDs unique
// without a shared counter (and leaves serial IDs — shard 0 — unchanged).
func (r *Runtime) allocMsgIDFor(id NodeID) uint64 {
	sc := &r.sh[r.shardIdx(id)]
	sc.nextMsgID++
	return sc.idBrand | sc.nextMsgID
}

// slabPut parks an in-flight envelope in a shard's slab and returns its slot.
func (r *Runtime) slabPut(shard int, env Envelope) uint32 {
	sc := &r.sh[shard]
	if n := len(sc.slabFree); n > 0 {
		slot := sc.slabFree[n-1]
		sc.slabFree = sc.slabFree[:n-1]
		sc.slab[slot] = env
		return slot
	}
	sc.slab = append(sc.slab, env)
	return uint32(len(sc.slab) - 1)
}

// deliverSlot is the registered kernel handler completing a send: it
// frees the slot first (handlers may send again, reusing it) and then
// dispatches to the destination's inbox. It runs on the destination's home
// shard — its slab parked the envelope, whether the send was local or
// crossed shards at a drain.
func (r *Runtime) deliverSlot(shard int, arg uint64) {
	sc := &r.sh[shard]
	slot := uint32(arg)
	env := sc.slab[slot]
	sc.slab[slot] = Envelope{} // release the payload for GC
	sc.slabFree = append(sc.slabFree, slot)
	dst := r.node(env.To)
	if dst == nil || !dst.alive {
		sc.metrics.MsgsDead++
		return
	}
	sc.metrics.MsgsDelivered++
	if r.obsReg != nil {
		r.obsReg.NoteRecv(int(env.To))
	}
	dst.deliver(env)
}

// send prices, maybe drops, and schedules delivery of one envelope. The
// fault plan decides at send time, at the sender's home shard, where the
// sender's send ordinal keys its Loss draw; aliveness of the destination is
// checked at delivery time, so a message in flight to a node that crashes
// meanwhile is silently swallowed — exactly the failure a timeout exists to
// cover.
//
// One-way delay splits the link RTT so the two legs of a request/response
// pair sum to durOf(RTT) exactly: requests (and plain one-way sends)
// travel the floor half, responses the remainder. Computing either leg as
// durOf(rtt/2) would truncate each leg independently and make a measured
// round trip fall short of the matrix entry by a nanosecond on odd-valued
// latencies.
//
// The sender's shard prices the link and pays for the send; a destination
// on the same shard gets its delivery scheduled directly into the shard
// kernel (the serial path, verbatim), a destination on another shard parks
// in the (src, dst) mailbox for the coordinator to apply between windows.
// Cross-shard pairs are cross-PoP by construction (ShardByPoP), so the
// one-way delay is at least the lookahead window — asserted here, the
// load-bearing inequality of the whole design.
func (r *Runtime) send(env Envelope) {
	ss := r.shardIdx(env.From)
	sc := &r.sh[ss]
	sc.metrics.MsgsSent++
	if r.obsReg != nil {
		r.obsReg.NoteSend(int(env.From), env.Type)
	}
	var fd faults.Decision
	if r.flt != nil {
		fd = r.flt.DecideSend(int(env.From), int(env.To), sc.sim.Now(), r.nodes[env.From].nextSend())
		if fd.Drop {
			sc.metrics.MsgsLost++
			return
		}
	}
	rtt := durOf(sc.m.LatencyMs(int(env.From), int(env.To)))
	oneWay := rtt / 2
	if env.Resp {
		oneWay = rtt - rtt/2
	}
	if fd.ExtraMs > 0 {
		// Extra fault delay only ever lengthens the one-way time, so the
		// cross-shard lookahead inequality below cannot be violated by it.
		oneWay += durOf(fd.ExtraMs)
		sc.metrics.FaultDelayed++
	}
	r.scheduleDelivery(ss, oneWay, env)
	if fd.Dup {
		sc.metrics.MsgsSent++
		sc.metrics.FaultDuplicated++
		if r.obsReg != nil {
			r.obsReg.NoteSend(int(env.From), env.Type)
		}
		r.scheduleDelivery(ss, oneWay, env)
	}
}

// scheduleDelivery prices nothing: it takes a final one-way delay and
// parks the envelope for delivery — directly into the sender's shard
// kernel when the destination is home, into the cross-shard mailbox
// otherwise. Split from send so the fault plane's duplicate copies go
// through the identical path as the original.
func (r *Runtime) scheduleDelivery(ss int, oneWay time.Duration, env Envelope) {
	sc := &r.sh[ss]
	ds := r.shardIdx(env.To)
	if ds == ss {
		sc.sim.AfterHandler(oneWay, sc.deliverH, uint64(r.slabPut(ss, env)))
		return
	}
	at := sc.sim.Now() + oneWay
	if end := r.shk.WindowEnd(); end > 0 && at < end {
		panic(fmt.Sprintf("p2p: cross-shard delivery at %v violates lookahead window ending %v (one-way %v < window %v)",
			at, end, oneWay, r.window))
	}
	r.cross[ss*len(r.sh)+ds] = append(r.cross[ss*len(r.sh)+ds], crossMsg{at: at, env: env})
}

// installFaults attaches a validated fault plan (see InstallFaults): link
// decisions hook the send path. Crash rules (crashes) are serial-only: the
// Stop/Restart bookkeeping touches the runtime-wide live count, which
// shard goroutines must not race on (link faults are per-shard pure and
// work at any shard count). Install before the run starts.
func (r *Runtime) installFaults(plan *faults.Plan, crashes bool) error {
	if r.flt != nil {
		return errSecondPlan
	}
	if crashes && r.shk != nil {
		return errors.New("p2p: fault-plan crash rules require a serial runtime")
	}
	r.flt = plan
	return nil
}

// drainCross is the sharded kernel's between-windows hook: it moves every
// parked cross-shard message into its destination shard — envelopes into
// the destination slab with a typed delivery event, routed closures as
// plain events. Iterating destinations then sources in index order makes
// the destination heap's (at, insertion-seq) tie-break exactly the
// (virtual time, source shard, per-source order) sequence the determinism
// contract specifies, with no sorting.
func (r *Runtime) drainCross() {
	k := len(r.sh)
	for dst := 0; dst < k; dst++ {
		dsc := &r.sh[dst]
		for src := 0; src < k; src++ {
			box := r.cross[src*k+dst]
			for i := range box {
				if box[i].fn != nil {
					dsc.sim.At(box[i].at, box[i].fn)
					box[i].fn = nil
				} else {
					dsc.sim.AtHandler(box[i].at, dsc.deliverH, uint64(r.slabPut(dst, box[i].env)))
					box[i].env = Envelope{} // release for GC; capacity is reused
				}
			}
			r.cross[src*k+dst] = box[:0]
		}
	}
}
