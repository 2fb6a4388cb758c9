package experiments

import (
	"fmt"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/faults"
	"nearestpeer/internal/measure"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/p2p"
)

// This file re-measures the Section 5 mitigation claims with the network in
// the way: the UCL and IP-prefix hint schemes, which elsewhere run as
// synchronous function calls against a dht.Ring, here publish and resolve
// their hints over the message-level Chord DHT (internal/p2p) — iterative
// lookups with per-hop timeouts, loss, churn, stale hints whose publishers
// have gone dark, and probe costs paid on the wire. The static deployments
// on the same topology and peer set are the baseline, so every figure is
// "what does the wire charge for the same mitigation?".

// mitigationNearMs is the success threshold: a query succeeds when the
// returned peer's true RTT is under this bound (the Section 5 close-peer
// threshold used by Figures 10 and 11).
const mitigationNearMs = 10.0

// MitigationOpts configures one wire mitigation run.
type MitigationOpts struct {
	// Scheme is any registered scheme name (see SchemeNames): the hint
	// schemes "ucl" and "ipprefix", the coordinate scheme "vivaldi", the
	// substrate legs "meridian", "expanding" and "chord", and the wired
	// finders "guyton", "beaconing", "tiers", "pic", "tapestry",
	// "azureus", "kargerruhl" and "rendezvous".
	Scheme string
	// Loss is the one-way packet loss probability.
	Loss float64
	// Churn enables the membership process (experimentChurnConfig).
	Churn bool
	// Queries is the number of sequential nearest-peer queries.
	Queries int
	// Seed drives the whole run.
	Seed int64
	// Tools overrides the measurement toolkit (probe noise stream). Leave
	// nil for a fresh one (Env.FreshTools). Every row owning its toolkit is
	// what lets MitigationStudy run rows as parallel engine trials.
	Tools *measure.Tools
	// Recorder, when non-nil, is attached to the runtime as the lookup
	// flight recorder (npsim -trace). It is passive: results are
	// byte-identical with or without it.
	Recorder *obs.Recorder
	// Faults, when non-nil, installs the deterministic fault plan on the
	// runtime (npsim -faults). A nil plan injects nothing.
	Faults *faults.Plan
}

// MitigationRow is one condition's scores, static or message-level.
type MitigationRow struct {
	Name string
	// Found is the fraction of queries returning any peer.
	Found float64
	// PNear is the fraction of queries returning a peer whose true RTT is
	// under the threshold, among the NearDenom queries where a live such
	// peer existed at issue time.
	PNear     float64
	NearDenom int
	// MeanFoundMs is the mean true RTT of returned peers.
	MeanFoundMs float64
	// MeanProbes is candidate probes per query; DeadProbes counts the ones
	// that timed out (stale hints, loss) across the run.
	MeanProbes float64
	DeadProbes int64
	// MeanLookups and MeanHops price the DHT: lookups per query and
	// routing hops per query (static: ring hops; wire: routing RPCs).
	MeanLookups float64
	MeanHops    float64
	// LookupFails counts wire lookups that never resolved an owner.
	LookupFails int64
	// PubMsgsPerPeer is the wire cost of publishing one peer's hints
	// (maintenance traffic during the publish phase included); MeanMsgs is
	// wire messages per query, maintenance included. Static rows have no
	// wire: both are 0.
	PubMsgsPerPeer float64
	MeanMsgs       float64
	// PubWindow is the virtual time from the mark to the bring-up's last
	// registration settling (0 for a scheme without registrations, and for
	// static rows). No figure renders it.
	PubWindow time.Duration
	// Timeouts is the total RPC timeouts across the run.
	Timeouts int64
	// Backstopped counts the wire queries the per-operation deadline
	// ended, still running a virtual minute after issue (0 for static
	// rows). They score as failed.
	Backstopped int
	// Leaves and Joins count churn events during the run.
	Leaves, Joins int
}

// MitigationPeers picks the study's peer population: the first n responsive
// peers of the environment (deterministic, so static and wire runs see the
// same membership).
func MitigationPeers(env *Env, n int) []netmodel.HostID {
	peers := env.ResponsivePeers()
	if len(peers) > n {
		peers = peers[:max(n, 0)]
	}
	return peers
}

// mitigationParams returns (peers, queries) per scale.
func mitigationParams(s Scale) (peers, queries int) {
	if s == Full {
		return 2000, 400
	}
	return 240, 60
}

// RunStaticMitigation runs the function-call baseline for a scheme on the
// environment's topology: one probe-counting query per target, scored
// against the true nearest peer. Probes draw from a fresh toolkit (see
// Env.FreshTools); runStaticMitigationTools takes a caller-supplied one. An
// unknown scheme (or one with no static leg) returns an error naming the
// registry's roster; so do fewer than 2 peers or fewer than 1 query.
func RunStaticMitigation(env *Env, scheme string, peers []netmodel.HostID, queries int, seed int64) (MitigationRow, error) {
	return runStaticMitigationTools(env, env.FreshTools(), scheme, peers, queries, seed)
}

// runStaticMitigationTools is RunStaticMitigation with an explicit
// measurement toolkit, so parallel study rows each own their noise stream.
// Dispatch goes through the scheme registry.
func runStaticMitigationTools(env *Env, tools *measure.Tools, scheme string, peers []netmodel.HostID, queries int, seed int64) (MitigationRow, error) {
	s, err := schemeFor(scheme)
	if err != nil {
		return MitigationRow{}, err
	}
	build := s.staticLeg()
	if build == nil {
		return MitigationRow{}, fmt.Errorf("experiments: scheme %q has no static leg", scheme)
	}
	if err := validateMitigation(peers, queries); err != nil {
		return MitigationRow{}, err
	}
	return runStaticFinderMitigation(env, tools, scheme, peers, queries, seed, build), nil
}

// validateMitigation rejects the populations and query counts the c2
// harnesses cannot score: a query needs somebody else to find, and a row is
// a mean over at least one query.
func validateMitigation(peers []netmodel.HostID, queries int) error {
	if len(peers) < 2 {
		return fmt.Errorf("experiments: a mitigation run needs at least 2 peers, got %d", len(peers))
	}
	if queries < 1 {
		return fmt.Errorf("experiments: a mitigation run needs at least 1 query, got %d", queries)
	}
	return nil
}

// mitigationScorer is the one scorer of the c2 methodology, shared by the
// static and the wire harness: per query it takes the oracle at issue time
// and the scheme's FindResult at completion, and it renders the means of a
// MitigationRow. rttMs is the true-RTT oracle (Env.Top.RTTms); peers maps a
// result's node id back to its host.
type mitigationScorer struct {
	rttMs func(a, b netmodel.HostID) float64
	peers []netmodel.HostID

	found, near, nearDenom             int
	foundMs                            float64
	probes, dead, lookups, hops, fails int64
}

// issue records a query at issue time: it joins p(near)'s denominator iff a
// live peer under the threshold existed then — whether or not the query
// ever completes.
func (s *mitigationScorer) issue(oracleMs float64) {
	if oracleMs <= mitigationNearMs {
		s.nearDenom++
	}
}

// result scores one completed query from member target against the
// oracleMs its issue saw. A found peer counts as near only when the oracle was near too:
// a peer that came up close after issue is luck, not the scheme's doing.
func (s *mitigationScorer) result(target int, oracleMs float64, r p2p.FindResult) {
	s.probes += int64(r.Probes)
	s.dead += int64(r.DeadProbes)
	s.lookups += int64(r.RPCs)
	s.hops += int64(r.Hops)
	s.fails += int64(r.RPCFails)
	if r.Found {
		s.found++
		trueMs := s.rttMs(s.peers[target], s.peers[r.Peer])
		s.foundMs += trueMs
		if trueMs <= mitigationNearMs && oracleMs <= mitigationNearMs {
			s.near++
		}
	}
}

// row renders the scores over the queries actually issued (a wire watchdog
// may cut the stream short; the unissued remainder must not be scored as
// failures) and queryMsgs wire messages sent while they ran. Zero issued
// normalises by 1.
func (s *mitigationScorer) row(issued int, queryMsgs int64) MitigationRow {
	n := float64(max(issued, 1))
	row := MitigationRow{
		Found:       float64(s.found) / n,
		NearDenom:   s.nearDenom,
		MeanProbes:  float64(s.probes) / n,
		DeadProbes:  s.dead,
		MeanLookups: float64(s.lookups) / n,
		MeanHops:    float64(s.hops) / n,
		LookupFails: s.fails,
		MeanMsgs:    float64(queryMsgs) / n,
	}
	if s.nearDenom > 0 {
		row.PNear = float64(s.near) / float64(s.nearDenom)
	}
	if s.found > 0 {
		row.MeanFoundMs = s.foundMs / float64(s.found)
	}
	return row
}

// nearestLivePeerMs returns the true RTT to the nearest live peer other
// than target (the oracle a query is scored against).
func nearestLivePeerMs(env *Env, peers []netmodel.HostID, target int, alive func(i int) bool) float64 {
	best := -1.0
	for i, p := range peers {
		if i == target || !alive(i) {
			continue
		}
		if d := env.Top.RTTms(peers[target], p); best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return mitigationNearMs + 1 // nobody live: no near peer exists
	}
	return best
}

// RunWireMitigation stands a scheme up over the message runtime and runs
// sequential queries in virtual time under the asked-for loss and churn.
// Dispatch goes through the scheme registry: every scheme's deployment —
// hint publishing over a Chord ring of all peers, coordinate gossip, the
// wired finders' probes and control RPCs — runs through the one wire
// cell. An unknown scheme (or one with no wire deployment) returns an
// error naming the registry's roster; so do fewer than 2 peers or fewer
// than 1 query.
func RunWireMitigation(env *Env, peers []netmodel.HostID, opts MitigationOpts) (MitigationRow, error) {
	deploy, err := wireLeg(opts.Scheme)
	if err != nil {
		return MitigationRow{}, err
	}
	if err := validateMitigation(peers, opts.Queries); err != nil {
		return MitigationRow{}, err
	}
	return runWireFinderMitigation(env, peers, opts, deploy), nil
}

// MitigationStudyResult compares static and message-level hint schemes
// across wire conditions.
type MitigationStudyResult struct {
	Peers, Queries int
	ThresholdMs    float64
	Rows           []MitigationRow
}

// MitigationStudy runs the comparison for both hint schemes on the shared
// environment's topology. Each of the ten (scheme, condition) rows is one
// engine trial with its own kernel, runtime, Chord ring and measurement
// toolkit (every row's toolkit replays the same noise stream, so rows stay
// independent of one another's draw order); the topology is shared
// read-only. Rows merge in (scheme, condition) order regardless of the
// worker count.
func MitigationStudy(scale Scale, seed int64) *MitigationStudyResult {
	env := SharedEnv(scale, seed)
	nPeers, queries := mitigationParams(scale)
	peers := MitigationPeers(env, nPeers)
	out := &MitigationStudyResult{Peers: len(peers), Queries: queries, ThresholdMs: mitigationNearMs}
	type mitigationCell struct {
		scheme string
		cond   wireCondition
	}
	var cells []mitigationCell
	for _, scheme := range []string{"ucl", "ipprefix"} {
		for _, c := range wireConditions() {
			cells = append(cells, mitigationCell{scheme, c})
		}
	}
	out.Rows = engine.Map(engine.Config{Seed: seed, Label: "mitigationstudy"}, cells,
		func(_ *engine.Trial, c mitigationCell) MitigationRow {
			tools := env.FreshTools()
			if c.cond.static {
				// The static baseline names itself inside the harness.
				return must(runStaticMitigationTools(env, tools, c.scheme, peers, queries, seed))
			}
			row := must(RunWireMitigation(env, peers, MitigationOpts{
				Scheme: c.scheme, Loss: c.cond.loss, Churn: c.cond.churn,
				Queries: queries, Seed: seed, Tools: tools,
			}))
			row.Name = c.scheme + " " + c.cond.name
			return row
		})
	return out
}

// renderMitigationTable prints the c2 table — sizing line, header, one line
// per row — for c2 itself and for v1's mitigation companion.
func renderMitigationTable(b *strings.Builder, peers, queries int, thresholdMs float64, rows []MitigationRow) {
	fmt.Fprintf(b, "%d peers on the measurement topology, %d queries, near threshold %.0f ms\n\n",
		peers, queries, thresholdMs)
	fmt.Fprintf(b, "%-36s %6s %8s %8s %9s %10s %8s %10s %9s\n",
		"condition", "found", "p(near)", "rtt(ms)", "probes/q", "lookups/q", "msgs/q", "pub-m/peer", "timeouts")
	for _, row := range rows {
		fmt.Fprintf(b, "%-36s %6.2f %8.3f %8.1f %9.1f %10.1f %8.1f %10.1f %9d",
			row.Name, row.Found, row.PNear, row.MeanFoundMs,
			row.MeanProbes, row.MeanLookups, row.MeanMsgs, row.PubMsgsPerPeer, row.Timeouts)
		endChurnRow(b, row.Leaves, row.Joins)
	}
}

// Render prints the comparison table.
func (r *MitigationStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mitigation study: Section 5 hint schemes over the message-level DHT (internal/p2p)\n")
	renderMitigationTable(&b, r.Peers, r.Queries, r.ThresholdMs, r.Rows)
	b.WriteString("\nreading: in a lossless static world the hint schemes are cheap; the wire adds\n" +
		"DHT routing per publish and per query, loss turns hops into timeouts, and churn\n" +
		"leaves stale hints behind that cost dead probes before a live candidate answers\n")
	return b.String()
}
