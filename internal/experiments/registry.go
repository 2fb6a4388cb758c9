package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nearestpeer/internal/azureus"
	"nearestpeer/internal/beacon"
	"nearestpeer/internal/dht"
	"nearestpeer/internal/ipprefix"
	"nearestpeer/internal/kargerruhl"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/pic"
	"nearestpeer/internal/rendezvous"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
	"nearestpeer/internal/tapestry"
	"nearestpeer/internal/tiers"
	"nearestpeer/internal/ucl"
	"nearestpeer/internal/vivaldi"
)

// This file is the scheme registry: the single dispatch point for every
// nearest-peer scheme the studies exercise. Each registered Scheme bundles
// up to four study legs — the c2 static baseline, the c2 wire deployment,
// the r1/o1 lookup bring-up, and the s1 scale cell — so the study files
// enumerate scheme NAMES and the registry owns the bring-up. The four
// copy-pasted scheme switches this replaced (mitigationstudy, faultstudy,
// obsstudy, scalestudy) each grew independently; a scheme added here is
// available to every study that asks for a leg it implements.

// Scheme is one registered nearest-peer scheme: a bundle of study legs,
// any of which may be nil when the scheme does not support that study.
type Scheme struct {
	// Static builds the function-call baseline for the c2 static harness
	// (runStaticFinderMitigation): the returned closure answers one query
	// from member idx, probes and hops priced, no wire.
	Static func(c *schemeCtx) func(idx int) p2p.FindResult
	// Wire builds the message-level deployment for the c2 wire harness
	// (runWireFinderMitigation): real RPCs over rt under loss/churn/faults.
	Wire func(c *schemeCtx, rt *p2p.Runtime) wireDeployment
	// Lookup stands the scheme up for the cadenced lookup studies (r1/o1):
	// bring-up on the cell's runtime, returning the query entry point.
	Lookup func(le *lookupEnv) lookupSetup
	// Scale runs one s1 cell over a (usually large) generated topology.
	Scale func(top *netmodel.Topology, queries int, seed int64) ScaleCell
}

// schemeFor resolves a scheme name, with the full roster in the error.
func schemeFor(name string) (Scheme, error) {
	s, ok := schemes[name]
	if !ok {
		return Scheme{}, fmt.Errorf("experiments: unknown scheme %q (schemes: %s)",
			name, strings.Join(SchemeNames(), ", "))
	}
	return s, nil
}

// SchemeNames lists every registered scheme, sorted.
func SchemeNames() []string {
	out := make([]string, 0, len(schemes))
	for name := range schemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookupEnv is the per-cell context the lookup studies (r1/o1) hand a
// scheme's Lookup leg: the cell's kernel and runtime, the member/target
// split in matrix-index space, the shared query-time RNG, and the cell's
// horizon and retry policy.
type lookupEnv struct {
	kernel  *sim.Sim
	rt      *p2p.Runtime
	ids     []p2p.NodeID
	targets []int
	src     *rng.Source
	horizon time.Duration
	retry   p2p.Policy
	// opLabel namespaces the DHT keys a lookup scheme writes ("r1", "o1").
	opLabel string
	seed    int64
}

// liveMember draws a member, redrawing up to 20 times while the draw is
// down (under heavy churn everyone may be down; the caller's op then fails
// honestly).
func (le *lookupEnv) liveMember() p2p.NodeID {
	id := le.ids[le.src.Intn(len(le.ids))]
	for tries := 0; tries < 20 && !le.rt.Alive(id); tries++ {
		id = le.ids[le.src.Intn(len(le.ids))]
	}
	return id
}

// lookupSetup is what a Lookup leg returns: when the cadenced stream may
// begin, how to issue one lookup (reporting success, the returned peer or
// -1, and the issuing origin or -1 for stretch scoring), and the churn
// hooks.
type lookupSetup struct {
	queryStart time.Duration
	issue      func(op int, done func(ok bool, peer int)) (origin int)
	onLeave    func(id p2p.NodeID, graceful bool)
	onJoin     func(id p2p.NodeID)
}

// meridianLookup is the r1/o1 bring-up of the message-level Meridian walk.
func meridianLookup(le *lookupEnv) lookupSetup {
	mcfg := p2p.DefaultMeridianConfig()
	mcfg.Retry = le.retry
	mer := p2p.NewMeridian(le.rt, mcfg, le.seed+1)
	for _, id := range le.ids {
		mer.Join(id)
	}
	for _, id := range le.targets {
		le.rt.AddNode(p2p.NodeID(id))
	}
	return lookupSetup{
		// Join traffic drains within virtual seconds; one minute is far
		// past overlay construction.
		queryStart: time.Minute,
		onLeave:    func(id p2p.NodeID, graceful bool) { mer.Leave(id, graceful) },
		onJoin:     func(id p2p.NodeID) { mer.Join(id) },
		issue: func(op int, done func(bool, int)) int {
			tgt := p2p.NodeID(le.targets[le.src.Intn(len(le.targets))])
			mer.FindNearest(tgt, tgt, func(res p2p.FindResult) {
				done(res.Found, int(res.Peer))
			})
			return int(tgt)
		},
	}
}

// chordLookup is the r1/o1 bring-up of the wire Chord ring: each op is one
// iterative lookup of a fresh key from a live member.
func chordLookup(le *lookupEnv) lookupSetup {
	ccfg := p2p.DefaultChordConfig()
	ccfg.Horizon = le.horizon
	ccfg.Retry = le.retry
	chord := p2p.NewChord(le.rt, ccfg, le.seed+1)
	joinEnd := chordJoinRamp(le.kernel, chord, le.ids, 0)
	return lookupSetup{
		queryStart: joinEnd + chordSettle,
		onLeave:    func(id p2p.NodeID, graceful bool) { chord.Leave(id, graceful) },
		onJoin:     func(id p2p.NodeID) { chord.Join(id) },
		issue: func(op int, done func(bool, int)) int {
			chord.Lookup(le.liveMember(), fmt.Sprintf("%s/%d", le.opLabel, op), func(res p2p.LookupResult) {
				done(res.OK, -1)
			})
			return -1
		},
	}
}

// vivaldiLookup is the r1/o1 bring-up of the gossip coordinate overlay.
func vivaldiLookup(le *lookupEnv) lookupSetup {
	wcfg := vivaldi.DefaultWireConfig()
	wcfg.Horizon = le.horizon
	wcfg.Retry = le.retry
	w := vivaldi.NewWire(le.rt, wcfg, le.seed+1)
	for _, id := range le.ids {
		w.Join(id)
	}
	for _, id := range le.targets {
		le.rt.AddNode(p2p.NodeID(id))
	}
	return lookupSetup{
		queryStart: vivaldiWarmup,
		onLeave:    func(id p2p.NodeID, graceful bool) { w.Leave(id, graceful) },
		onJoin:     func(id p2p.NodeID) { w.Join(id) },
		issue: func(op int, done func(bool, int)) int {
			tgt := p2p.NodeID(le.targets[le.src.Intn(len(le.targets))])
			w.FindNearest(tgt, func(r p2p.FindResult) {
				done(r.Found, int(r.Peer))
			})
			return int(tgt)
		},
	}
}

// schemeCtx is what the two c2 harnesses hand a scheme's Static and Wire
// constructors: the peer population in matrix-index space (member i, node
// id i, is peers[i]) and the row's seeds. Both legs of a scheme build from
// the same context fields, so they share structure and draws at 0% loss.
type schemeCtx struct {
	env   *Env
	peers []netmodel.HostID
	// m is the peers' latency matrix, net the noiseless probe-counting
	// overlay over it, members the identity index list 0..len(peers)-1.
	m       latency.Matrix
	net     *overlay.Network
	members []int
	// tools is the measurement toolkit the hint schemes draw probe noise
	// from.
	tools *measure.Tools
	// seed is the row's base seed: the harnesses keep seed (runtime), +2
	// (churn) and +3 (query draws); constructors derive +1 (protocol).
	seed int64
	// horizon caps the wire run's virtual time (0 on the static leg).
	horizon time.Duration
}

func newSchemeCtx(env *Env, tools *measure.Tools, peers []netmodel.HostID, m latency.Matrix, seed int64, horizon time.Duration) *schemeCtx {
	members := make([]int, len(peers))
	for i := range peers {
		members[i] = i
	}
	return &schemeCtx{env: env, peers: peers, m: m, net: overlay.NewNetwork(m), members: members,
		tools: tools, seed: seed, horizon: horizon}
}

// addrs returns the peers' IP addresses, the node names of a static
// dht.Ring.
func (c *schemeCtx) addrs() []string {
	addrs := make([]string, len(c.peers))
	for i, p := range c.peers {
		addrs[i] = c.env.Top.Host(p).IP.String()
	}
	return addrs
}

// runStaticFinderMitigation is the one static harness of the c2
// methodology: build constructs the scheme's function-call baseline over
// the mitigation peers, then one query per draw, scored against the
// close-peer threshold by the shared scorer. build must derive its
// sub-seeds from the context exactly as the scheme's Wire leg does, so the
// two legs share structure at 0% loss.
func runStaticFinderMitigation(env *Env, tools *measure.Tools, name string, peers []netmodel.HostID, queries int, seed int64,
	build func(c *schemeCtx) func(idx int) p2p.FindResult) MitigationRow {
	m := (&latency.TopologyMatrix{Top: env.Top, Hosts: peers}).EnableRTTCache(0)
	find := build(newSchemeCtx(env, tools, peers, m, seed, 0))
	src := rng.New(seed + 3)
	alive := func(int) bool { return true }
	sc := mitigationScorer{rttMs: env.Top.RTTms, peers: peers}
	for q := 0; q < queries; q++ {
		idx := src.Intn(len(peers))
		oracleMs := nearestLivePeerMs(env, peers, idx, alive)
		sc.issue(oracleMs)
		sc.result(idx, oracleMs, find(idx))
	}
	row := sc.row(queries, 0)
	row.Name = name + " static (function calls)"
	return row
}

// staticFinder adapts an overlay.Finder built over the context's members to
// the static harness's per-query closure.
func staticFinder(f overlay.Finder) func(idx int) p2p.FindResult {
	return func(idx int) p2p.FindResult {
		res := f.FindNearest(idx)
		return p2p.FindResult{Peer: p2p.NodeID(res.Peer), RTTms: res.LatencyMs, Found: res.Peer >= 0,
			Probes: int(res.Probes), Hops: res.Hops}
	}
}

// staticHintFind adapts a static DHT hint system (ucl.System,
// ipprefix.System) to the static harness: find runs one query for a host,
// and the ring's hop counter is read around it, so the per-query deltas sum
// to the ring's whole query-phase bill.
func staticHintFind(c *schemeCtx, ring *dht.Ring, find func(p netmodel.HostID) (peer netmodel.HostID, probes, lookups int)) func(idx int) p2p.FindResult {
	index := make(map[netmodel.HostID]p2p.NodeID, len(c.peers))
	for i, p := range c.peers {
		index[p] = p2p.NodeID(i)
	}
	return func(idx int) p2p.FindResult {
		hops := ring.Hops
		peer, probes, lookups := find(c.peers[idx])
		r := p2p.FindResult{Peer: p2p.NoNode, Probes: probes, RPCs: lookups, Hops: int(ring.Hops - hops)}
		if peer >= 0 {
			r.Peer, r.Found = index[peer], true
		}
		return r
	}
}

// wireFinderBringup is when the wire harness runs a deployment's
// registration chain and starts queries unless the deployment sets its own
// mark: joins all land at t=0 and their traffic drains within virtual
// seconds.
const wireFinderBringup = time.Minute

// wireDeployment is what a scheme's Wire constructor hands the wire
// harness.
type wireDeployment struct {
	// join brings one member up (required). The harness calls it for every
	// member in id order at t=0; a deployment that staggers its joins
	// schedules them from here. rejoin handles churn re-entry (nil: join
	// again); leave handles churn exit (nil: no protocol exit — the
	// member's soft state goes stale, as real directories do).
	join   func(id p2p.NodeID)
	rejoin func(id p2p.NodeID)
	leave  func(id p2p.NodeID, graceful bool)
	// mark is the virtual time bring-up ends: the registration chain runs
	// there, then churn starts and queries begin (0: wireFinderBringup).
	mark time.Duration
	// bringup runs the post-join registration chain (directory Registers,
	// tracker announces, hint publishes, ...) and must call done exactly
	// once; nil when the scheme has no standing state beyond what its joins
	// and timers build by the mark.
	bringup func(done func())
	// find runs one nearest-peer query from a member.
	find func(client p2p.NodeID, done func(p2p.FindResult))
}

// sequentialChain runs step(0), step(1), ... step(n-1), each starting when
// the previous one calls next, then done — the shape of every registration
// chain (one publisher at a time, so the bill is contention-free).
func sequentialChain(n int, step func(i int, next func()), done func()) {
	var run func(i int)
	run = func(i int) {
		if i >= n {
			done()
			return
		}
		step(i, func() { run(i + 1) })
	}
	run(0)
}

// runWireFinderMitigation is the one wire harness of the c2 methodology:
// deploy builds the scheme over the runtime, everyone joins at t=0, the
// registration chain runs at the bring-up mark and the standing state is
// billed to the publish column, then the sequential query stream — queries
// issued by the peers themselves — runs under the asked-for loss, churn and
// faults, scored by the shared scorer. The deploy builds the scheme's base
// structure from the context exactly as the static leg does, so the
// 0%-loss wire row mirrors the static row's structure and draws.
func runWireFinderMitigation(env *Env, peers []netmodel.HostID, opts MitigationOpts,
	deploy func(c *schemeCtx, rt *p2p.Runtime) wireDeployment) MitigationRow {
	if opts.Horizon <= 0 {
		opts.Horizon = 2 * time.Hour
	}
	tools := opts.Tools
	if tools == nil {
		tools = env.Tools
	}
	kernel := sim.New()
	// The run owns its matrix, so the RTT cache is private to this kernel;
	// chord stabilize re-prices the same successor pairs every round and
	// hits it almost always.
	m := (&latency.TopologyMatrix{Top: env.Top, Hosts: peers}).EnableRTTCache(0)
	rt := p2p.New(kernel, m, p2p.Config{LossProb: opts.Loss}, opts.Seed)
	if opts.Recorder != nil {
		rt.AttachRecorder(opts.Recorder)
	}
	if opts.Faults != nil {
		p2p.NewFaultTransport(rt, opts.Faults)
	}
	d := deploy(newSchemeCtx(env, tools, peers, m, opts.Seed, opts.Horizon), rt)

	ids := make([]p2p.NodeID, len(peers))
	for i := range peers {
		ids[i] = p2p.NodeID(i)
		d.join(ids[i])
	}

	var churn *p2p.Churn
	if opts.Churn {
		ccfg := opts.ChurnCfg
		if ccfg.MeanSession == 0 {
			ccfg = experimentChurnConfig()
		}
		ccfg.Horizon = opts.Horizon
		churn = p2p.NewChurn(rt, ccfg, opts.Seed+2)
		churn.OnLeave = d.leave
		churn.OnJoin = d.rejoin
		if churn.OnJoin == nil {
			churn.OnJoin = d.join
		}
	}

	src := rng.New(opts.Seed + 3)
	alive := func(i int) bool { return rt.Alive(ids[i]) }
	sc := mitigationScorer{rttMs: env.Top.RTTms, peers: peers}
	var pubMsgsPerPeer float64
	var queryMsgsStart int64

	startSeq, issued := sequenceOps(kernel, opts.Queries, func(_ int, _ func() bool, complete func(apply func())) {
		target := src.Intn(len(peers))
		for tries := 0; tries < 20 && !alive(target); tries++ {
			target = src.Intn(len(peers))
		}
		oracleMs := nearestLivePeerMs(env, peers, target, alive)
		sc.issue(oracleMs)
		d.find(ids[target], func(r p2p.FindResult) {
			complete(func() { sc.result(target, oracleMs, r) })
		})
	})

	startQueries := func() {
		queryMsgsStart = rt.Metrics.MsgsSent
		startSeq()
	}
	mark := d.mark
	if mark == 0 {
		mark = wireFinderBringup
	}
	kernel.At(mark, func() {
		// The publish column bills the scheme's standing state. With a
		// registration chain that is the chain's traffic (what ran before
		// the mark — a hint scheme's ring joins — is the substrate's);
		// without one it is everything sent since t=0, the joins and
		// whatever the scheme's timers built by the mark.
		var pubMsgsStart int64
		afterBringup := func() {
			pubMsgsPerPeer = float64(rt.Metrics.MsgsSent-pubMsgsStart) / float64(len(peers))
			if churn != nil {
				churn.Drive(ids)
				// Let the membership process bite before measuring queries.
				kernel.After(30*time.Second, startQueries)
				return
			}
			startQueries()
		}
		if d.bringup != nil {
			pubMsgsStart = rt.Metrics.MsgsSent
			d.bringup(afterBringup)
			return
		}
		afterBringup()
	})
	kernel.At(opts.Horizon, kernel.Stop) // watchdog against a stalled chain
	kernel.Run()

	// Normalise by the queries actually issued: if the watchdog fired
	// first, the unissued remainder must not be scored as failures.
	row := sc.row(*issued, rt.Metrics.MsgsSent-queryMsgsStart)
	row.PubMsgsPerPeer = pubMsgsPerPeer
	row.Timeouts = rt.Metrics.Timeouts
	if churn != nil {
		row.Leaves, row.Joins = churn.Leaves, churn.Joins
	}
	return row
}

// chordRing deploys the wire Chord ring that the substrate leg and both
// hint schemes stand on: joins staggered below the stabilize rate (the
// chordJoinRamp schedule), a settle window before the mark, and the ring's
// own leave/join as the churn hooks.
func chordRing(c *schemeCtx, rt *p2p.Runtime) (*p2p.Chord, wireDeployment) {
	ccfg := p2p.DefaultChordConfig()
	ccfg.Horizon = c.horizon
	chord := p2p.NewChord(rt, ccfg, c.seed+1)
	return chord, wireDeployment{
		join: func(id p2p.NodeID) {
			rt.After(id, time.Duration(id)*chordJoinSpacing, func() { chord.Join(id) })
		},
		rejoin: chord.Join,
		leave:  chord.Leave,
		mark:   time.Duration(len(c.peers))*chordJoinSpacing + chordSettle,
	}
}

// hintDeployment is the wire deployment of a DHT hint scheme: the Chord
// ring of all peers (chordRing's deployment), hint publishing as a
// sequential chain of wire Puts at the mark, then queries. Peers that churn back in republish their hints (soft
// state); hints of departed peers stay behind and cost dead probes.
func hintDeployment(c *schemeCtx, ring wireDeployment,
	publish func(h netmodel.HostID, done func()),
	find func(h netmodel.HostID, done func(p2p.FindResult))) wireDeployment {
	d := ring
	d.rejoin = func(id p2p.NodeID) {
		ring.rejoin(id)
		publish(c.peers[id], func() {})
	}
	d.bringup = func(done func()) {
		sequentialChain(len(c.peers), func(i int, next func()) { publish(c.peers[i], next) }, done)
	}
	d.find = func(client p2p.NodeID, done func(p2p.FindResult)) { find(c.peers[client], done) }
	return d
}

// finderScheme builds the common Static+Wire pair for a scheme whose base
// structure implements overlay.Finder: build constructs the base (deriving
// sub-seeds from the context's seed), wire wraps it for the runtime. Both
// legs call build with the same seed over the same matrix, so they share
// structure and draws.
func finderScheme(build func(c *schemeCtx) overlay.Finder,
	wire func(rt *p2p.Runtime, base overlay.Finder) wireDeployment) Scheme {
	return Scheme{
		Static: func(c *schemeCtx) func(int) p2p.FindResult { return staticFinder(build(c)) },
		Wire:   func(c *schemeCtx, rt *p2p.Runtime) wireDeployment { return wire(rt, build(c)) },
	}
}

// schemes is the registry. Studies enumerate their own scheme lists (the
// golden figures pin row order); this map owns the bring-up.
var schemes = map[string]Scheme{
	"meridian": {
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			mc := meridian.DefaultConfig()
			mc.CandidatesPerNode = len(c.members)
			return staticFinder(meridian.New(c.net, c.members, mc, c.seed+1))
		},
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			mer := p2p.NewMeridian(rt, p2p.DefaultMeridianConfig(), c.seed+1)
			return wireDeployment{
				join:   mer.Join,
				rejoin: mer.Join,
				leave:  mer.Leave,
				find: func(client p2p.NodeID, done func(p2p.FindResult)) {
					mer.FindNearest(client, client, done)
				},
			}
		},
		Lookup: meridianLookup,
		Scale: func(top *netmodel.Topology, queries int, seed int64) ScaleCell {
			m := (&latency.FullTopologyMatrix{Top: top}).EnableRTTCache(0)
			return scaleMeridianCell(m, queries, seed)
		},
	},
	"expanding": {
		// The expanding-ring search's function-call analogue: per query,
		// grow the multicast scope over the matrix until any member sits
		// inside it, charging one copy per in-scope member per round
		// (Runtime.Multicast's scope rule: RTT(target, m) <= radius, self
		// excluded). The answer is the earliest responder — the scope's
		// minimum-RTT member. Copies land in the probes column, rounds in
		// hops, as the wire search reports them.
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			cfg := p2p.DefaultExpandConfig()
			return func(idx int) p2p.FindResult {
				r := p2p.FindResult{Peer: p2p.NoNode}
				radius := cfg.InitialRadiusMs
				for round := 0; round < cfg.Rounds && !r.Found; round++ {
					r.Hops++
					for j := range c.peers {
						if j == idx {
							continue
						}
						if d := c.m.LatencyMs(idx, j); d <= radius {
							r.Probes++
							if !r.Found || d < r.RTTms {
								r.Peer, r.RTTms, r.Found = p2p.NodeID(j), d, true
							}
						}
					}
					radius *= cfg.RadiusMult
				}
				return r
			}
		},
		Wire: func(_ *schemeCtx, rt *p2p.Runtime) wireDeployment {
			ex := p2p.NewExpanding(rt, p2p.DefaultExpandConfig())
			return wireDeployment{join: ex.Register, find: ex.Search}
		},
		Scale: scaleExpandingCell,
	},
	"chord": {
		// The substrate-as-finder baseline: a dht.Ring of the peers'
		// addresses, each query one routed resolution of a fresh key. The
		// ring resolves keys, not proximity — a query "finds" whichever peer
		// owns its key, and the row's p(near) reads like random assignment,
		// which is exactly the point the grand table makes about raw DHTs.
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			addrs := c.addrs()
			byAddr := make(map[string]p2p.NodeID, len(addrs))
			for i, a := range addrs {
				byAddr[a] = p2p.NodeID(i)
			}
			ring := dht.New(addrs)
			q := 0
			return func(idx int) p2p.FindResult {
				key := fmt.Sprintf("g1/%d", q)
				q++
				hops, lookups := ring.Hops, ring.Lookups
				ring.Get(key) // route to the owner, charging the ring's hop bill
				r := p2p.FindResult{Peer: p2p.NoNode, RPCs: int(ring.Lookups - lookups), Hops: int(ring.Hops - hops)}
				if owner := byAddr[ring.OwnerOf(key)]; int(owner) != idx {
					r.Peer, r.Found = owner, true
				}
				return r
			}
		},
		// The substrate itself through the c2 methodology: each query is
		// one iterative Lookup of a fresh key from a live peer, found
		// meaning the owner resolved to somebody else. The ring's bring-up
		// (joins plus stabilization) is its standing state: there are no
		// hints to publish, the ring IS the state.
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			chord, d := chordRing(c, rt)
			op := 0
			d.find = func(client p2p.NodeID, done func(p2p.FindResult)) {
				op++
				chord.Lookup(client, fmt.Sprintf("g1/%d", op), func(res p2p.LookupResult) {
					r := p2p.FindResult{Peer: p2p.NoNode, RPCs: 1, Hops: res.Hops}
					if !res.OK {
						r.RPCFails = 1
					} else if res.Owner != client {
						r.Peer, r.Found = res.Owner, true
					}
					done(r)
				})
			}
			return d
		},
		Lookup: chordLookup,
		Scale:  scaleChordCell,
	},
	"ucl": {
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			sys := ucl.New(c.tools, c.addrs(), c.env.VantageHosts(), ucl.DefaultConfig())
			for _, p := range c.peers {
				sys.Join(p)
			}
			return staticHintFind(c, sys.Ring(), func(p netmodel.HostID) (netmodel.HostID, int, int) {
				r := sys.FindNearest(p)
				return r.Peer, r.Probes, r.Lookups
			})
		},
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			chord, d := chordRing(c, rt)
			w := ucl.NewWire(c.tools, chord, c.peers, c.env.VantageHosts(), ucl.DefaultConfig())
			return hintDeployment(c, d,
				func(h netmodel.HostID, done func()) { w.Publish(h, func(int) { done() }) },
				w.FindNearest)
		},
	},
	"ipprefix": {
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			sys := ipprefix.New(c.tools, c.addrs(), ipprefix.DefaultConfig())
			for _, p := range c.peers {
				sys.Join(p)
			}
			return staticHintFind(c, sys.Ring(), func(p netmodel.HostID) (netmodel.HostID, int, int) {
				r := sys.FindNearest(p)
				return r.Peer, r.Probes, r.Lookups
			})
		},
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			chord, d := chordRing(c, rt)
			w := ipprefix.NewWire(c.tools, chord, c.peers, ipprefix.DefaultConfig())
			return hintDeployment(c, d,
				func(h netmodel.HostID, done func()) { w.Publish(h, func(bool) { done() }) },
				w.FindNearest)
		},
	},
	"vivaldi": {
		// The coordinate scheme has no DHT and no measurement toolkit — its
		// baseline is a matrix-fed Build read off the noiseless overlay.
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			sys := vivaldi.Build(c.net, c.members, vivaldi.DefaultConfig(), c.seed+1)
			return staticFinder(&vivaldi.Finder{Sys: sys, PlacementProbes: 16, VerifyTop: 8})
		},
		// The gossip overlay over the mitigation peers, queries issued by
		// the peers themselves (members use their own live coordinate — no
		// placement probes). The warm-up gossip is the scheme's publish
		// phase: coordinates are the published (and continuously
		// republished) state. Walk steps land in the hops column and each
		// search counts as one lookup, so the row reads like its
		// ucl/ipprefix neighbors.
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			wcfg := vivaldi.DefaultWireConfig()
			wcfg.Horizon = c.horizon
			w := vivaldi.NewWire(rt, wcfg, c.seed+1)
			return wireDeployment{
				join:  w.Join,
				leave: w.Leave,
				mark:  vivaldiWarmup,
				find: func(client p2p.NodeID, done func(p2p.FindResult)) {
					w.FindNearest(client, func(r p2p.FindResult) {
						r.RPCs = 1
						done(r)
					})
				},
			}
		},
		Lookup: vivaldiLookup,
	},
	"guyton": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return &beacon.GuytonSchwartz{Inf: beacon.New(c.net, c.members, beacon.DefaultConfig(), c.seed+1)}
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := beacon.NewWire(rt, base.(*beacon.GuytonSchwartz).Inf)
			return wireDeployment{join: w.Join, find: w.FindNearestGS}
		}),
	"beaconing": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return &beacon.Beaconing{Inf: beacon.New(c.net, c.members, beacon.DefaultConfig(), c.seed+1)}
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := beacon.NewWire(rt, base.(*beacon.Beaconing).Inf)
			return wireDeployment{join: w.Join, find: w.FindNearestBeaconing}
		}),
	"tiers": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return tiers.New(c.net, c.members, tiers.DefaultConfig(), c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := tiers.NewWire(rt, base.(*tiers.Hierarchy))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"pic": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			sys := vivaldi.Build(c.net, c.members, vivaldi.DefaultConfig(), c.seed+1)
			return pic.New(sys, pic.DefaultConfig(), c.seed+2)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := pic.NewWire(rt, base.(*pic.Finder))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"tapestry": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return tapestry.New(c.net, c.members, tapestry.DefaultConfig(), c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := tapestry.NewWire(rt, base.(*tapestry.Overlay))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"azureus": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return azureus.NewFinder(c.net, c.members, azureus.DefaultFinderConfig(), c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := azureus.NewWire(rt, base.(*azureus.Finder))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"kargerruhl": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return kargerruhl.New(c.net, c.members, kargerruhl.DefaultConfig(), c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := kargerruhl.NewWire(rt, base.(*kargerruhl.Overlay))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"rendezvous": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			// The directory keys on the member's end-network id on the
			// measurement topology.
			return rendezvous.NewDirectory(c.net, c.members,
				func(m int) int { return int(c.env.Top.Host(c.peers[m]).EN) })
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := rendezvous.NewWire(rt, base.(*rendezvous.Directory))
			return wireDeployment{
				join: w.Join,
				rejoin: func(id p2p.NodeID) {
					w.Join(id)
					w.Register(id, nil) // soft state: re-register on rejoin
				},
				// Sequential registration chain: every member records
				// itself with its end network's server.
				bringup: func(done func()) {
					sequentialChain(rt.Population(), func(i int, next func()) {
						w.Register(p2p.NodeID(i), func(bool) { next() })
					}, done)
				},
				find: w.FindNearest,
			}
		}),
}
