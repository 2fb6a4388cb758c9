package p2p

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nearestpeer/internal/obs"
	"nearestpeer/internal/rng"
)

// This file ports the Meridian closest-node search (internal/meridian) from
// a synchronous function over a latency matrix to a protocol over messages.
// The walk is the same — measure distance to the target, ask ring members
// at about that distance to probe it, hand the query to the best reporter
// when it improves by β — but every step is now an RPC that can be lost,
// time out, or land on a node that has since crashed, and ring membership
// is maintained incrementally as nodes join and leave.

// Meridian wire message types.
const (
	// MsgQuery hands a closest-node query to a member; the member acks
	// with MsgQueryAck, so a dead next hop is detected by timeout.
	MsgQuery    = "m_query"
	MsgQueryAck = "m_query_ack"
	// MsgProbe asks a ring member to measure its RTT to the target;
	// MsgProbeOK carries the measurement back.
	MsgProbe   = "m_probe"
	MsgProbeOK = "m_probe_ok"
	// MsgDone reports a finished query to its origin (one-way; the
	// origin's query deadline covers a lost report).
	MsgDone = "m_done"
	// MsgBye is a graceful leaver's goodbye to its ring members.
	MsgBye = "m_bye"
)

// MeridianConfig parameterises the protocol. Ring geometry and β follow
// the static implementation's paper defaults.
type MeridianConfig struct {
	// RingBase, RingMult, NumRings, RingSize define the concentric
	// latency rings, as in the static implementation.
	RingBase float64
	RingMult float64
	NumRings int
	RingSize int
	// Beta is the query reduction threshold β.
	Beta float64
	// CandidatesPerNode is how many live members a joining node pings to
	// fill its rings (its gossip budget).
	CandidatesPerNode int
	// RPCTimeout bounds each individual RPC (ping, probe, handoff).
	RPCTimeout time.Duration
	// QueryDeadline bounds a whole query at the origin; a query that has
	// not reported back by then fails.
	QueryDeadline time.Duration
	// MaxHops caps query forwarding, a loop backstop.
	MaxHops int
}

// DefaultMeridianConfig mirrors the static paper parameters plus runtime
// bounds.
func DefaultMeridianConfig() MeridianConfig {
	return MeridianConfig{
		RingBase:          1,
		RingMult:          2,
		NumRings:          9,
		RingSize:          16,
		Beta:              0.5,
		CandidatesPerNode: 192,
		RPCTimeout:        2 * time.Second,
		QueryDeadline:     30 * time.Second,
		MaxHops:           64,
	}
}

// Validate reports a configuration NewMeridian cannot run: the static
// implementation's ring geometry and β bounds (meridian.Config.Validate),
// plus the runtime bounds — a query deadline that fires before any reply
// can arrive, or a hop cap that stops every walk at its entry point.
func (c MeridianConfig) Validate() error {
	switch {
	case !(c.RingBase > 0):
		return fmt.Errorf("p2p: meridian RingBase %v must be positive", c.RingBase)
	case !(c.RingMult > 1):
		return fmt.Errorf("p2p: meridian RingMult %v must exceed 1", c.RingMult)
	case c.NumRings <= 0:
		return fmt.Errorf("p2p: meridian NumRings %d must be positive", c.NumRings)
	case c.RingSize <= 0:
		return fmt.Errorf("p2p: meridian RingSize %d must be positive", c.RingSize)
	case !(c.Beta > 0 && c.Beta < 1):
		return fmt.Errorf("p2p: meridian Beta %v outside (0, 1)", c.Beta)
	case c.CandidatesPerNode < 0:
		return fmt.Errorf("p2p: meridian CandidatesPerNode %d must not be negative", c.CandidatesPerNode)
	case c.QueryDeadline <= 0:
		return fmt.Errorf("p2p: meridian QueryDeadline %v must be positive", c.QueryDeadline)
	case c.MaxHops <= 0:
		return fmt.Errorf("p2p: meridian MaxHops %d must be positive", c.MaxHops)
	}
	return nil
}

// meridianState is one member's protocol state. Ring membership is a
// uniform reservoir sample of the candidates the node has measured —
// the static implementation's SelectRandom baseline, which is the honest
// choice here: under churn there is no stable candidate pool to run the
// hypervolume selection over, and under the clustering condition the
// diversity machinery is blind anyway (the static ablation shows it).
type meridianState struct {
	rings    [][]NodeID
	ringSeen []int // candidates ever offered to each ring, for reservoir sampling
	ringLat  map[NodeID]float64
	src      *rng.Source
}

// queryMsg is the state a walking query carries.
type queryMsg struct {
	QID     uint64
	Origin  NodeID
	Target  NodeID
	D       float64 // current node's measured distance to target; <0 = unmeasured
	BestID  NodeID
	BestLat float64
	Hops    int
	Visited []NodeID
}

// probeMsg asks the receiver to measure its RTT to Target.
type probeMsg struct{ Target NodeID }

// probeOKMsg reports the measurement (OK=false: the target ping timed out).
type probeOKMsg struct {
	RTTms float64
	OK    bool
}

// doneMsg reports a finished query to its origin.
type doneMsg struct {
	QID     uint64
	BestID  NodeID
	BestLat float64
	Hops    int
}

// pendingQuery is origin-side bookkeeping for one outstanding query: met
// is the origin's account, whose query-probe delta is the query's bill.
type pendingQuery struct {
	started       time.Duration
	met           *Metrics
	probesAtStart int64
	done          func(FindResult)
}

// Meridian runs the protocol over a Runtime: it tracks live membership,
// installs handlers on joining nodes, and originates queries.
type Meridian struct {
	rt      Transport
	cfg     MeridianConfig
	src     *rng.Source
	states  map[NodeID]*meridianState
	order   []NodeID // sorted live member list, for deterministic sampling
	queries map[uint64]*pendingQuery
	nextQID uint64
}

// NewMeridian creates the protocol instance (with no members yet).
func NewMeridian(rt Transport, cfg MeridianConfig, seed int64) *Meridian {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("p2p: invalid meridian config %+v: %v", cfg, err))
	}
	return &Meridian{
		rt:      rt,
		cfg:     cfg,
		src:     rng.New(seed).Split("meridian"),
		states:  make(map[NodeID]*meridianState),
		queries: make(map[uint64]*pendingQuery),
	}
}

// LiveMembers returns the current membership (sorted, a copy).
func (m *Meridian) LiveMembers() []int {
	out := make([]int, len(m.order))
	for i, id := range m.order {
		out[i] = int(id)
	}
	return out
}

// NumMembers returns the live member count.
func (m *Meridian) NumMembers() int { return len(m.order) }

// isLiveMember reports whether id is currently in the overlay.
func (m *Meridian) isLiveMember(id NodeID) bool { return m.states[id] != nil }

// RingsOf exposes a member's rings (tests).
func (m *Meridian) RingsOf(id NodeID) [][]NodeID {
	if st := m.states[id]; st != nil {
		return st.rings
	}
	return nil
}

// Join brings a node up as an overlay member: it registers handlers,
// enters the membership, and pings a gossip sample of existing members to
// fill its rings (maintenance probes; pongs install ring entries as they
// arrive, so a freshly joined node's rings are thin until the wire answers).
func (m *Meridian) Join(id NodeID) {
	if _, ok := m.states[id]; ok {
		return
	}
	n := m.rt.AddNode(id)
	if !n.Alive() {
		n.Restart() // explicit protocol (re)entry brings the node back up
	}
	st := &meridianState{
		rings:    make([][]NodeID, m.cfg.NumRings),
		ringSeen: make([]int, m.cfg.NumRings),
		ringLat:  make(map[NodeID]float64),
		src:      m.src.SplitN("member", int(id)),
	}
	sample := m.gossipSample(id)
	m.states[id] = st
	m.insertMember(id)
	n.Handle(MsgQuery, m.handleQuery)
	n.Handle(MsgProbe, m.handleProbe)
	n.Handle(MsgBye, m.handleBye)
	for _, c := range sample {
		c := c
		n.Ping(c, m.cfg.RPCTimeout, true, func(rtt float64, ok bool) {
			if ok && m.states[id] != nil {
				m.install(st, c, rtt)
			}
		})
	}
}

// Leave takes a member down. A graceful leaver says goodbye to its ring
// members first (the messages survive it on the wire); a crash just goes
// silent and its peers discover the death by timeout.
func (m *Meridian) Leave(id NodeID, graceful bool) {
	st := m.states[id]
	if st == nil {
		return
	}
	n := m.rt.Node(id)
	if graceful && n != nil && n.Alive() {
		for _, peer := range st.ringPeers() {
			n.Send(peer, MsgBye, nil)
		}
	}
	delete(m.states, id)
	m.removeMember(id)
	if n != nil {
		n.Stop()
	}
}

// insertMember keeps order sorted.
func (m *Meridian) insertMember(id NodeID) {
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
	if i < len(m.order) && m.order[i] == id {
		return
	}
	m.order = append(m.order, 0)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = id
}

func (m *Meridian) removeMember(id NodeID) {
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
	if i < len(m.order) && m.order[i] == id {
		m.order = append(m.order[:i:i], m.order[i+1:]...)
	}
}

// gossipSample picks the members a joiner measures, uniformly without
// replacement from the live membership.
func (m *Meridian) gossipSample(self NodeID) []NodeID {
	budget := m.cfg.CandidatesPerNode
	pool := make([]NodeID, 0, len(m.order))
	for _, c := range m.order {
		if c != self {
			pool = append(pool, c)
		}
	}
	if len(pool) <= budget {
		return pool
	}
	perm := m.src.Perm(len(pool))
	out := make([]NodeID, budget)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

// ringIndex maps a latency to its ring, as in the static implementation.
func (m *Meridian) ringIndex(ms float64) int {
	if ms < m.cfg.RingBase {
		return 0
	}
	i := 1 + int(math.Log(ms/m.cfg.RingBase)/math.Log(m.cfg.RingMult))
	if i >= m.cfg.NumRings {
		i = m.cfg.NumRings - 1
	}
	return i
}

// install offers a measured candidate to its ring, reservoir-sampling when
// the ring is full so membership stays a uniform sample of everything the
// node has seen.
func (m *Meridian) install(st *meridianState, c NodeID, rtt float64) {
	if _, ok := st.ringLat[c]; ok {
		st.ringLat[c] = rtt
		return
	}
	r := m.ringIndex(rtt)
	st.ringSeen[r]++
	if len(st.rings[r]) < m.cfg.RingSize {
		st.ringLat[c] = rtt
		st.rings[r] = append(st.rings[r], c)
		return
	}
	if k := st.src.Intn(st.ringSeen[r]); k < m.cfg.RingSize {
		delete(st.ringLat, st.rings[r][k])
		st.ringLat[c] = rtt
		st.rings[r][k] = c
	}
}

// evict drops a peer (found dead) from a member's rings.
func (st *meridianState) evict(peer NodeID) {
	if _, ok := st.ringLat[peer]; !ok {
		return
	}
	delete(st.ringLat, peer)
	for r, ring := range st.rings {
		for i, id := range ring {
			if id == peer {
				st.rings[r] = append(ring[:i:i], ring[i+1:]...)
				break
			}
		}
	}
}

// ringPeers returns all current ring members, sorted.
func (st *meridianState) ringPeers() []NodeID {
	out := make([]NodeID, 0, len(st.ringLat))
	for id := range st.ringLat {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// handleBye evicts a graceful leaver.
func (m *Meridian) handleBye(n *Node, env Envelope) {
	if st := m.states[n.ID]; st != nil {
		st.evict(env.From)
	}
}

// handleProbe measures the RTT to the requested target and reports it.
// The ping is a query-time probe: it exists only because some query asked.
func (m *Meridian) handleProbe(n *Node, env Envelope) {
	pm := env.Payload.(probeMsg)
	n.Ping(pm.Target, m.cfg.RPCTimeout, false, func(rtt float64, ok bool) {
		if n.Alive() {
			n.Reply(env, MsgProbeOK, probeOKMsg{RTTms: rtt, OK: ok})
		}
	})
}

// FindNearest originates a closest-node query for target from the client
// node (typically the target itself: "find the member closest to me").
// done fires exactly once, on report or deadline; a query whose deadline
// expired first, or whose walk met no member, reports Found false. Probes
// is the runtime query-probe counter's delta, so it is exact only while
// queries do not overlap in virtual time.
func (m *Meridian) FindNearest(client, target NodeID, done func(FindResult)) {
	n := m.rt.AddNode(client)
	n.Handle(MsgDone, m.handleDone)
	m.nextQID++
	qid := m.nextQID
	m.queries[qid] = &pendingQuery{
		started:       m.rt.Now(client),
		met:           n.Metrics(),
		probesAtStart: n.Metrics().QueryProbes,
		done:          done,
	}
	m.rt.After(client, m.cfg.QueryDeadline, func() {
		pq, ok := m.queries[qid]
		if !ok {
			return
		}
		delete(m.queries, qid)
		pq.done(FindResult{
			Peer:    NoNode,
			Probes:  int(pq.met.QueryProbes - pq.probesAtStart),
			Elapsed: m.rt.Now(client) - pq.started,
		})
	})
	q := queryMsg{QID: qid, Origin: client, Target: target, D: -1, BestID: -1, BestLat: math.Inf(1)}
	m.startQuery(n, q, 3)
}

// startQuery hands the query to a random live member, retrying a few
// times if the chosen entry point does not ack.
func (m *Meridian) startQuery(n *Node, q queryMsg, attempts int) {
	if _, ok := m.queries[q.QID]; !ok {
		return // deadline already fired
	}
	if attempts <= 0 || len(m.order) == 0 {
		m.reportDone(q.QID, doneMsg{QID: q.QID, BestID: q.BestID, BestLat: q.BestLat}, n.ID)
		return
	}
	start := m.order[m.src.Intn(len(m.order))]
	n.RequestPolicy(start, MsgQuery, q, m.cfg.RPCTimeout,
		func(Envelope) {},
		func() { m.startQuery(n, q, attempts-1) })
}

// handleDone resolves the origin-side pending query.
func (m *Meridian) handleDone(n *Node, env Envelope) {
	m.reportDone(env.Payload.(doneMsg).QID, env.Payload.(doneMsg), n.ID)
}

// reportDone resolves a pending query at its origin.
func (m *Meridian) reportDone(qid uint64, dm doneMsg, origin NodeID) {
	pq, ok := m.queries[qid]
	if !ok {
		return // deadline fired, or a duplicate report from a split walk
	}
	delete(m.queries, qid)
	res := FindResult{
		Peer:    NoNode,
		Probes:  int(pq.met.QueryProbes - pq.probesAtStart),
		Hops:    dm.Hops,
		Elapsed: m.rt.Now(origin) - pq.started,
	}
	if dm.BestID >= 0 {
		res.Peer, res.RTTms, res.Found = dm.BestID, dm.BestLat, true
	}
	pq.done(res)
}

// handleQuery runs one hop of the walk at a member.
func (m *Meridian) handleQuery(n *Node, env Envelope) {
	st := m.states[n.ID]
	if st == nil {
		return // no longer a member: no ack, the forwarder will time out
	}
	n.Reply(env, MsgQueryAck, nil)
	q := env.Payload.(queryMsg)
	q.Visited = append(append([]NodeID(nil), q.Visited...), n.ID)
	if q.D >= 0 {
		// Forwarded to us with our distance already measured by the
		// probe phase that chose us, as in the static walk.
		m.probePhase(n, st, q)
		return
	}
	if q.Target == n.ID {
		// The entry point is the searcher itself (the searcher can be a
		// member): it is not a candidate for its own query and has no
		// distance estimate yet, so every ring member is a first-hop
		// candidate.
		q.D = math.Inf(1)
		m.probePhase(n, st, q)
		return
	}
	pingAt := m.rt.Now(n.ID)
	n.Ping(q.Target, m.cfg.RPCTimeout, false, func(rtt float64, ok bool) {
		if rec := m.rt.FlightRecorder(); rec != nil {
			out := obs.HopOK
			if !ok {
				out = obs.HopTimeout
			}
			rec.Record(obs.Hop{Lookup: q.QID, Scheme: "meridian", Type: MsgPing,
				From: int(n.ID), To: int(q.Target), At: pingAt, RTTms: rtt, Outcome: out})
		}
		if !n.Alive() || m.states[n.ID] == nil {
			return
		}
		if !ok {
			m.finish(n, q)
			return
		}
		q.D = rtt
		if rtt < q.BestLat {
			q.BestID, q.BestLat = n.ID, rtt
		}
		m.probePhase(n, st, q)
	})
}

// probeReport is one candidate's answer in a probe phase.
type probeReport struct {
	id  NodeID
	rtt float64
}

// probePhase asks ring members at about the target's distance to probe it,
// then advances the walk on the best report.
func (m *Meridian) probePhase(n *Node, st *meridianState, q queryMsg) {
	lo, hi := (1-m.cfg.Beta)*q.D, (1+m.cfg.Beta)*q.D
	visited := make(map[NodeID]bool, len(q.Visited))
	for _, v := range q.Visited {
		visited[v] = true
	}
	var cands []NodeID
	for _, c := range st.ringPeers() {
		// Suspect peers (repeated exhausted retries) are demoted out of the
		// probe set, and the searcher is never a candidate for its own
		// query; with no distance estimate yet (q.D infinite) every ring
		// member is in band.
		if c == q.Target {
			continue
		}
		if l := st.ringLat[c]; (math.IsInf(q.D, 1) || (l >= lo && l <= hi)) && !visited[c] && !n.Suspect(c) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		m.finish(n, q)
		return
	}

	pending := len(cands)
	var reports []probeReport
	qq := q // shared across the per-candidate closures of this phase
	settle := func() {
		pending--
		if pending > 0 {
			return
		}
		if !n.Alive() || m.states[n.ID] == nil {
			return
		}
		sort.Slice(reports, func(i, j int) bool {
			if reports[i].rtt != reports[j].rtt {
				return reports[i].rtt < reports[j].rtt
			}
			return reports[i].id < reports[j].id
		})
		m.advance(n, qq, reports)
	}
	for _, c := range cands {
		c := c
		n.RequestPolicy(c, MsgProbe, probeMsg{Target: q.Target}, m.cfg.RPCTimeout,
			func(rep Envelope) {
				pm := rep.Payload.(probeOKMsg)
				if pm.OK {
					reports = append(reports, probeReport{id: c, rtt: pm.RTTms})
					if pm.RTTms < qq.BestLat {
						qq.BestID, qq.BestLat = c, pm.RTTms
					}
				}
				settle()
			},
			func() {
				st.evict(c) // dead or unreachable: drop from rings
				settle()
			})
	}
}

// advance forwards the query to the best reporter when it improves the
// distance by β, falling back through the sorted reports when a handoff
// times out; with no acceptable hop left the walk ends here.
func (m *Meridian) advance(n *Node, q queryMsg, reports []probeReport) {
	m.advanceFrom(n, q, reports, false)
}

// advanceFrom is advance with the fallback state threaded through:
// alternate marks a handoff attempted only because the preferred next hop
// timed out, which the flight recorder tags HopAlternate on success.
func (m *Meridian) advanceFrom(n *Node, q queryMsg, reports []probeReport, alternate bool) {
	if q.Hops >= m.cfg.MaxHops || len(reports) == 0 || reports[0].rtt > m.cfg.Beta*q.D {
		m.finish(n, q)
		return
	}
	next := reports[0]
	rest := reports[1:]
	fwd := q
	fwd.D = next.rtt
	fwd.Hops++
	hopStart := m.rt.Now(n.ID)
	n.RequestPolicy(next.id, MsgQuery, fwd, m.cfg.RPCTimeout,
		func(Envelope) {
			if rec := m.rt.FlightRecorder(); rec != nil {
				out := obs.HopOK
				if alternate {
					out = obs.HopAlternate
				}
				rec.Record(obs.Hop{Lookup: q.QID, Scheme: "meridian", Type: MsgQuery,
					From: int(n.ID), To: int(next.id), At: hopStart,
					RTTms: msOf(m.rt.Now(n.ID) - hopStart), Outcome: out})
			}
		},
		func() {
			if rec := m.rt.FlightRecorder(); rec != nil {
				rec.Record(obs.Hop{Lookup: q.QID, Scheme: "meridian", Type: MsgQuery,
					From: int(n.ID), To: int(next.id), At: hopStart, Outcome: obs.HopTimeout})
			}
			if st := m.states[n.ID]; st != nil {
				st.evict(next.id)
			}
			if !n.Alive() {
				return
			}
			m.advanceFrom(n, q, rest, true)
		})
}

// finish reports the walk's best to the origin (one-way; the origin's
// deadline covers a lost report). A member reporting about itself still
// goes over the wire — the origin is in general another host.
func (m *Meridian) finish(n *Node, q queryMsg) {
	n.Send(q.Origin, MsgDone, doneMsg{QID: q.QID, BestID: q.BestID, BestLat: q.BestLat, Hops: q.Hops})
}
