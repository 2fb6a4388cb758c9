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
	"nearestpeer/internal/tapestry"
	"nearestpeer/internal/tiers"
	"nearestpeer/internal/ucl"
	"nearestpeer/internal/vivaldi"
)

// This file is the scheme registry: the single dispatch point for every
// nearest-peer scheme the studies exercise. Each registered Scheme bundles
// up to four study legs — the overlay.Finder the held-out-target cells
// score (fig8/fig9, a3, v1, `npsim -algo`), the static function-call baseline
// of the c2 methodology, the wire deployment the one wire cell runs (c1,
// c2/g1, v1, o1, r1, s1's expanding cell), and the s1 scale cell — so the
// study files enumerate scheme NAMES and the registry owns the bring-up: a
// scheme added here is available to every study that asks for a leg it
// implements.

// Scheme is one registered nearest-peer scheme: a bundle of study legs,
// any of which may be nil when the scheme does not support that study.
type Scheme struct {
	// Finder builds the scheme's base structure over the context's members
	// as an overlay.Finder, for the schemes that have one: what StaticFinder
	// hands the held-out-target cells. It may read only the context's net,
	// members, seed and enOf — all StaticFinder has to give.
	Finder func(c *schemeCtx) overlay.Finder
	// Static builds the function-call baseline for the c2 static harness
	// (runStaticFinderMitigation): the returned closure answers one query
	// from member idx, probes and hops priced, no wire. Nil on a scheme with
	// a Finder leg, whose baseline is that finder (see staticLeg).
	Static func(c *schemeCtx) func(idx int) p2p.FindResult
	// Wire builds the message-level deployment runWireCell drives: real
	// RPCs over rt under loss/churn/faults. It is the only way a scheme is
	// deployed on the wire; horizon and DHT key label come from the
	// context, the retry policy from rt's Config.
	Wire wireDeploy
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

// wireLeg resolves a scheme's wire deployment constructor.
func wireLeg(name string) (wireDeploy, error) {
	s, err := schemeFor(name)
	if err != nil {
		return nil, err
	}
	if s.Wire == nil {
		return nil, fmt.Errorf("experiments: scheme %q has no wire deployment", name)
	}
	return s.Wire, nil
}

// staticLeg is the scheme's c2 function-call baseline: its Finder behind the
// staticFinder adapter, or its own Static leg (nil: it has neither).
func (s Scheme) staticLeg() func(c *schemeCtx) func(idx int) p2p.FindResult {
	if s.Finder != nil {
		return func(c *schemeCtx) func(int) p2p.FindResult { return staticFinder(s.Finder(c)) }
	}
	return s.Static
}

// StaticFinder builds a registered scheme's overlay.Finder over members, as
// every static study and `npsim -algo` get theirs: probes go through net (so
// the caller owns the noise model), seed is the cell seed the wire legs get
// too (the protocol draws from seed+1), and enOf maps a member to its end
// network, which the rendezvous directory keys on (the other schemes ignore
// it). An unknown name returns the roster error; a scheme with no finder (the
// substrates and hint systems) says so.
func StaticFinder(name string, net *overlay.Network, members []int, seed int64, enOf func(member int) int) (overlay.Finder, error) {
	s, err := schemeFor(name)
	if err != nil {
		return nil, err
	}
	if s.Finder == nil {
		return nil, fmt.Errorf("experiments: scheme %q has no static finder", name)
	}
	return s.Finder(&schemeCtx{net: net, members: members, seed: seed, enOf: enOf}), nil
}

// must unwraps a registry dispatch inside a study whose scheme roster is a
// package constant: an error there is a typo in the roster, not an input.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics on an error no input of a study can produce: a roster typo,
// a wire cell's runtime refusing its fault plan (the studies build their
// plans from constants, and npsim's come through faults.Parse), or a wire
// cell whose message accounting does not balance.
func check(err error) {
	if err != nil {
		panic(err)
	}
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

// schemeCtx is what a cell hands a scheme's Static and Wire constructors:
// the latency matrix, the overlay members as matrix positions, and the
// cell's seeds and knobs. Both legs of a scheme build from the same context
// fields, so they share structure and draws at 0% loss.
type schemeCtx struct {
	// m is the cell's latency matrix, net the noiseless probe-counting
	// overlay over it, members the overlay membership in join order.
	m       latency.Matrix
	net     *overlay.Network
	members []int
	// env, peers and tools are set by the cells that run on the measurement
	// topology (c2/g1, the hint schemes' only home): member i is peers[i],
	// and tools is the measurement toolkit the hint schemes draw probe
	// noise from. Nil on a synthetic matrix.
	env   *Env
	peers []netmodel.HostID
	tools *measure.Tools
	// enOf maps a member to its end network, the key of the rendezvous
	// directory: the topology's EN on the measurement topology, the ground
	// truth's on a clustered matrix (nil where no cell deploys rendezvous).
	enOf func(member int) int
	// seed is the cell's base seed: the runner keeps seed (runtime), +2
	// (churn) and +3 (issuer draws); constructors derive +1 (protocol).
	seed int64
	// horizon caps the wire run's virtual time and bounds the protocols'
	// own maintenance schedules (0 on the static leg).
	horizon time.Duration
	// keyLabel namespaces the DHT keys a key-resolving leg looks up
	// ("g1", "o1", "r1"); op is the number of the stream op being issued,
	// set by the runner before each issue, which the key is named after.
	keyLabel string
	op       int
}

func newSchemeCtx(m latency.Matrix, members []int, seed int64, horizon time.Duration) *schemeCtx {
	return &schemeCtx{m: m, net: overlay.NewNetwork(m), members: members, seed: seed, horizon: horizon}
}

// envSchemeCtx is the context of a cell on the measurement topology: every
// peer a member, member i (node id i) being peers[i].
func envSchemeCtx(env *Env, tools *measure.Tools, peers []netmodel.HostID, m latency.Matrix, seed int64, horizon time.Duration) *schemeCtx {
	c := newSchemeCtx(m, firstN(len(peers)), seed, horizon)
	c.env, c.peers, c.tools = env, peers, tools
	c.enOf = func(m int) int { return int(env.Top.Host(peers[m]).EN) }
	return c
}

// firstN is the membership 0..n-1: a matrix's first n positions.
func firstN(n int) []int {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return members
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
	m := &latency.TopologyMatrix{Top: env.Top, Hosts: peers}
	find := build(envSchemeCtx(env, tools, peers, m, seed, 0))
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

// runWireFinderMitigation is the c2 methodology's wire cell: every peer a
// member, queries issued by the peers themselves one at a time, churn given
// 30 s to bite, the standing state billed to the publish column, every
// answer scored by the shared scorer. The deploy builds the scheme's base
// structure from the context exactly as the static leg does, so the
// 0%-loss wire row mirrors the static row's structure and draws.
func runWireFinderMitigation(env *Env, peers []netmodel.HostID, opts MitigationOpts,
	deploy wireDeploy) MitigationRow {
	tools := opts.Tools
	if tools == nil {
		tools = env.FreshTools()
	}
	// The run owns its matrix, so its pair memo is private to this kernel;
	// chord stabilize re-prices the same successor pairs every round, and
	// each pair of the subset walks the topology at most once.
	m := &latency.TopologyMatrix{Top: env.Top, Hosts: peers}
	c := envSchemeCtx(env, tools, peers, m, opts.Seed, wireHorizon)
	c.keyLabel = "g1"
	sc := mitigationScorer{rttMs: env.Top.RTTms, peers: peers}
	run := runWireCell(c, wireCell{
		loss: opts.Loss, recorder: opts.Recorder, faults: fixedFaults(opts.Faults),
		churn: opts.Churn, churnLead: 30 * time.Second,
		ops: opts.Queries,
	}, deploy, func(run *wireRun, o *wireOp) {
		target := int(o.client)
		oracleMs := nearestLivePeerMs(env, peers, target, func(i int) bool { return run.rt.Alive(p2p.NodeID(i)) })
		sc.issue(oracleMs)
		run.find(o, func(r p2p.FindResult) { sc.result(target, oracleMs, r) })
	})
	total := run.rt.TotalMetrics()
	row := sc.row(run.issued, total.MsgsSent-run.atStart.MsgsSent)
	row.PubMsgsPerPeer = float64(run.pubMsgs) / float64(len(peers))
	row.PubWindow = run.pubWindow
	row.Timeouts = total.Timeouts
	row.Backstopped = run.backstopped
	row.Leaves, row.Joins = run.leaves, run.joins
	return row
}

// chordRing deploys the wire Chord ring that the substrate leg, both hint
// schemes and the npsim chord exercise stand on: joins staggered spacing
// apart by join ordinal (below the stabilize rate), a settle window before
// the mark, and the ring's own leave/join as the churn hooks. The join ramp
// runs on the driver kernel: on a sharded runtime Join hops to the joiner's
// shard itself.
func chordRing(c *schemeCtx, rt *p2p.Runtime, ccfg p2p.ChordConfig, spacing, settle time.Duration) (*p2p.Chord, wireDeployment) {
	ccfg.Horizon = c.horizon
	chord := p2p.NewChord(rt, ccfg, c.seed+1)
	joined := 0
	return chord, wireDeployment{
		join: func(id p2p.NodeID) {
			rt.Kernel.After(time.Duration(joined)*spacing, func() { chord.Join(id) })
			joined++
		},
		rejoin: chord.Join,
		leave:  chord.Leave,
		mark:   time.Duration(len(c.members))*spacing + settle,
	}
}

// defaultChordRing is chordRing at the studies' shared knobs.
func defaultChordRing(c *schemeCtx, rt *p2p.Runtime) (*p2p.Chord, wireDeployment) {
	return chordRing(c, rt, p2p.DefaultChordConfig(), chordJoinSpacing, chordSettle)
}

// expandingWire deploys the Section 5 expanding-ring search: members
// subscribe to the well-known group, and a query multicasts growing latency
// scopes from its client until the first member answers.
func expandingWire(_ *schemeCtx, rt *p2p.Runtime) wireDeployment {
	ex := p2p.NewExpanding(rt, p2p.DefaultExpandConfig())
	return wireDeployment{join: ex.Register, find: ex.Search}
}

// meridianWire deploys a Meridian overlay's walk: every member serves its
// rings, and a query searches for the peer nearest its own client.
func meridianWire(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
	w := meridian.NewWire(rt, base.(*meridian.Overlay))
	return wireDeployment{join: w.Join, find: w.FindNearest}
}

// vivaldiDeployment deploys the gossip coordinate overlay. Members search
// from their own live coordinate, outsiders place themselves with probes
// first. The warm-up gossip is the scheme's publish phase: coordinates are
// the published (and continuously republished) state. Walk steps land in
// the hops column and each walk handoff is one lookup RPC, as the other
// walk schemes' ring reads and handoffs are.
func vivaldiDeployment(c *schemeCtx, rt *p2p.Runtime) (*vivaldi.Wire, wireDeployment) {
	wcfg := vivaldi.DefaultWireConfig()
	wcfg.Horizon = c.horizon
	w := vivaldi.NewWire(rt, wcfg, c.seed+1)
	return w, wireDeployment{
		join:  w.Join,
		leave: w.Leave,
		mark:  vivaldiWarmup,
		find:  w.FindNearest,
	}
}

// hintDeployment is the wire deployment of a DHT hint scheme: the Chord
// ring of all peers (chordRing's deployment), then at the mark every peer
// publishes its hints at once (fanOut; a peer's own Puts stay in sequence
// inside its Publish, which computes its hints before the first send, so
// the toolkit draws in peer order), then queries. Peers that churn back in republish their hints (soft state);
// hints of departed peers stay behind and cost dead probes.
func hintDeployment(c *schemeCtx, ring wireDeployment,
	publish func(h netmodel.HostID, done func()),
	find func(h netmodel.HostID, done func(p2p.FindResult))) wireDeployment {
	d := ring
	d.rejoin = func(id p2p.NodeID) {
		ring.rejoin(id)
		publish(c.peers[id], func() {})
	}
	d.bringup = func(done func()) {
		fanOut(len(c.peers), func(i int, next func()) { publish(c.peers[i], next) }, done)
	}
	d.find = func(client p2p.NodeID, done func(p2p.FindResult)) { find(c.peers[client], done) }
	return d
}

// beaconInfrastructure deploys the standing beacons both beacon schemes
// read: a dozen, or every member when there are fewer (a -peers 5 run is a
// small deployment, not an invalid one).
func beaconInfrastructure(c *schemeCtx) *beacon.Infrastructure {
	return beacon.New(c.net, c.members, c.seed+1)
}

// finderScheme builds the common Finder+Wire pair for a scheme whose wire
// deployment wraps its overlay.Finder: build constructs the base (deriving
// sub-seeds from the context's seed), wire wraps it for the runtime. Both
// legs call build with the same seed over the same matrix, so they share
// structure and draws.
func finderScheme(build func(c *schemeCtx) overlay.Finder,
	wire func(rt *p2p.Runtime, base overlay.Finder) wireDeployment) Scheme {
	return Scheme{
		Finder: build,
		Wire:   func(c *schemeCtx, rt *p2p.Runtime) wireDeployment { return wire(rt, build(c)) },
	}
}

// schemes is the registry. Studies enumerate their own scheme lists (the
// golden figures pin row order); this map owns the bring-up.
var schemes = map[string]Scheme{
	"meridian": func() Scheme {
		s := finderScheme(
			// Ring construction sees the full membership, as the Meridian
			// simulator's gossip effectively does.
			func(c *schemeCtx) overlay.Finder {
				mc := meridian.DefaultConfig()
				mc.CandidatesPerNode = len(c.members)
				return meridian.New(c.net, c.members, mc, c.seed+1)
			},
			meridianWire)
		s.Scale = scaleMeridianCell
		return s
	}(),
	"expanding": {
		// The expanding-ring rule over the matrix, with Runtime.Multicast's
		// scope as its reach: round r reaches the members within RTT
		// ExpandRadius(r) of the target, self excluded. Copies land in the probes
		// column, rounds in hops, as the wire search reports them.
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			return func(idx int) p2p.FindResult {
				return p2p.ExpandRing(p2p.ExpandRounds, len(c.peers), func(round, j int) (float64, bool) {
					if j == idx {
						return 0, false
					}
					d := c.m.LatencyMs(idx, j)
					return d, d <= p2p.ExpandRadius(round)
				})
			}
		},
		Wire:  expandingWire,
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
		// The substrate itself: each query is one iterative Lookup of a fresh
		// key (named after the stream's op number) from the issuing member.
		// A resolved lookup reports the owner as Peer — an answer, which is
		// what r1/o1 count — and Found only when the owner is somebody else,
		// which is what the c2 methodology asks of a finder. The ring's
		// bring-up (joins plus stabilization) is its standing state: there
		// are no hints to publish, the ring IS the state.
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			chord, d := defaultChordRing(c, rt)
			d.find = func(client p2p.NodeID, done func(p2p.FindResult)) {
				chord.Lookup(client, fmt.Sprintf("%s/%d", c.keyLabel, c.op), func(res p2p.LookupResult) {
					r := p2p.FindResult{Peer: p2p.NoNode, RPCs: 1, Hops: res.Hops}
					if !res.OK {
						r.RPCFails = 1
					} else {
						r.Peer, r.Found = res.Owner, res.Owner != client
					}
					done(r)
				})
			}
			return d
		},
		Scale: scaleChordCell,
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
			chord, d := defaultChordRing(c, rt)
			w := ucl.NewWire(c.tools, chord, c.peers, c.env.VantageHosts(), ucl.DefaultConfig())
			return hintDeployment(c, d,
				func(h netmodel.HostID, done func()) { w.Publish(h, func(int) { done() }) },
				w.FindNearest)
		},
	},
	"ipprefix": {
		Static: func(c *schemeCtx) func(int) p2p.FindResult {
			sys := ipprefix.New(c.tools, c.addrs())
			for _, p := range c.peers {
				sys.Join(p)
			}
			return staticHintFind(c, sys.Ring(), func(p netmodel.HostID) (netmodel.HostID, int, int) {
				r := sys.FindNearest(p)
				return r.Peer, r.Probes, r.Lookups
			})
		},
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			chord, d := defaultChordRing(c, rt)
			w := ipprefix.NewWire(c.tools, chord, c.peers)
			return hintDeployment(c, d,
				func(h netmodel.HostID, done func()) { w.Publish(h, func(bool) { done() }) },
				w.FindNearest)
		},
	},
	"vivaldi": {
		// The coordinate scheme has no DHT and no measurement toolkit — its
		// baseline is a matrix-fed Build read off the noiseless overlay.
		Finder: func(c *schemeCtx) overlay.Finder {
			sys := vivaldi.Build(c.net, c.members, c.seed+1)
			return &vivaldi.Finder{Sys: sys}
		},
		Wire: func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
			_, d := vivaldiDeployment(c, rt)
			return d
		},
	},
	"guyton": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return &beacon.GuytonSchwartz{Inf: beaconInfrastructure(c)}
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := beacon.NewWire(rt, base.(*beacon.GuytonSchwartz).Inf)
			return wireDeployment{join: w.Join, find: w.FindNearestGS}
		}),
	"beaconing": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return &beacon.Beaconing{Inf: beaconInfrastructure(c)}
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := beacon.NewWire(rt, base.(*beacon.Beaconing).Inf)
			return wireDeployment{join: w.Join, find: w.FindNearestBeaconing}
		}),
	"tiers": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return tiers.New(c.net, c.members, c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := tiers.NewWire(rt, base.(*tiers.Hierarchy))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"pic": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			sys := vivaldi.Build(c.net, c.members, c.seed+1)
			return pic.New(sys, c.seed+2)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := pic.NewWire(rt, base.(*pic.Finder))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"tapestry": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return tapestry.New(c.net, c.members, c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := tapestry.NewWire(rt, base.(*tapestry.Overlay))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"azureus": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return azureus.NewFinder(c.net, c.members, c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := azureus.NewWire(rt, base.(*azureus.Finder))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"kargerruhl": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return kargerruhl.New(c.net, c.members, c.seed+1)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := kargerruhl.NewWire(rt, base.(*kargerruhl.Overlay))
			return wireDeployment{join: w.Join, find: w.FindNearest}
		}),
	"rendezvous": finderScheme(
		func(c *schemeCtx) overlay.Finder {
			return rendezvous.NewDirectory(c.net, c.members, c.enOf)
		},
		func(rt *p2p.Runtime, base overlay.Finder) wireDeployment {
			w := rendezvous.NewWire(rt, base.(*rendezvous.Directory))
			return wireDeployment{
				join: w.Join,
				rejoin: func(id p2p.NodeID) {
					w.Join(id)
					w.Register(id, nil) // soft state: re-register on rejoin
				},
				// Registration bring-up: every member records itself
				// with its end network's server, all at the mark.
				bringup: func(done func()) {
					fanOut(rt.Population(), func(i int, next func()) {
						w.Register(p2p.NodeID(i), func(bool) { next() })
					}, done)
				},
				find: w.FindNearest,
			}
		}),
}
