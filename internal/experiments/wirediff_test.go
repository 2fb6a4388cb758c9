package experiments

import (
	"testing"

	"nearestpeer/internal/measure"
	"nearestpeer/internal/p2p"
)

// wireDiffSkips names the registry schemes whose wire leg is, by design,
// not answer-equal to its static leg at 0% loss — each with the reason.
// Everything else in GrandSchemes() is held to per-query equality below.
var wireDiffSkips = map[string]string{
	"chord":   "the static dht.Ring hashes peer addresses, the wire ring hashes NodeIDs: the same key has different owners",
	"vivaldi": "the wire embedding is gossip-built, the static one matrix-fed: different coordinates, different walks",
}

// wireDiffHopSkips names the un-waived schemes whose Hops count, by design,
// means different things on the two legs — each with the reason. Their
// answer and probe bill are still held equal.
var wireDiffHopSkips = map[string]string{
	"ucl":      "the static leg counts dht.Ring lookup hops, the wire leg the message-level chord's routing RPCs",
	"ipprefix": "the static leg counts dht.Ring lookup hops, the wire leg the message-level chord's routing RPCs",
}

// TestWireFindersMatchStaticLossless is the differential acceptance test of
// the wired algorithm zoo, generated from the scheme registry: at 0% loss
// with no churn, every scheme's wire leg must return the exact peer its
// static leg returns for the same query stream, at the same probe bill and
// (outside wireDiffHopSkips) the same hop count — the wire may charge
// RPCs and virtual time, but it must not change the answer or what the
// answer cost in probes. Both legs
// run through the real c2 harnesses with a recording wrapper around the
// registry's own constructors, so the bring-up, the query draws and the
// per-leg sub-seeds are the studies', not a re-implementation.
func TestWireFindersMatchStaticLossless(t *testing.T) {
	env := SharedEnv(Quick, 1)
	peers := MitigationPeers(env, 80)
	const queries = 12
	const seed = int64(1)

	type answer struct {
		from   int
		peer   p2p.NodeID // NoNode when nothing was found
		probes int
		hops   int
	}
	record := func(log *[]answer, from int, r p2p.FindResult) {
		a := answer{from: from, peer: p2p.NoNode, probes: r.Probes, hops: r.Hops}
		if r.Found {
			a.peer = r.Peer
		}
		*log = append(*log, a)
	}

	for _, name := range GrandSchemes() {
		t.Run(name, func(t *testing.T) {
			if why, skip := wireDiffSkips[name]; skip {
				t.Skip(why)
			}
			s, err := schemeFor(name)
			if err != nil {
				t.Fatal(err)
			}
			// Each leg owns a toolkit replaying the same probe-noise
			// stream, as the study rows do.
			tools := func() *measure.Tools { return measure.NewTools(env.Top, measure.DefaultConfig(), seed+1) }

			var static, wire []answer
			runStaticFinderMitigation(env, tools(), name, peers, queries, seed,
				func(c *schemeCtx) func(int) p2p.FindResult {
					find := s.staticLeg()(c)
					return func(idx int) p2p.FindResult {
						r := find(idx)
						record(&static, idx, r)
						return r
					}
				})
			row := runWireFinderMitigation(env, peers, MitigationOpts{Queries: queries, Seed: seed, Tools: tools()},
				func(c *schemeCtx, rt *p2p.Runtime) wireDeployment {
					d := s.Wire(c, rt)
					find := d.find
					d.find = func(client p2p.NodeID, done func(p2p.FindResult)) {
						find(client, func(r p2p.FindResult) {
							record(&wire, int(client), r)
							done(r)
						})
					}
					return d
				})
			if len(wire) != queries || row.Timeouts != 0 {
				t.Fatalf("lossless wire run answered %d/%d queries with %d timeouts", len(wire), queries, row.Timeouts)
			}
			_, skipHops := wireDiffHopSkips[name]
			for i := range static {
				w, st := wire[i], static[i]
				if skipHops {
					w.hops, st.hops = 0, 0
				}
				if w != st {
					t.Errorf("query %d: wire leg (from member %d) returned peer %d at %d probes, %d hops; static leg (from member %d) returned %d at %d probes, %d hops",
						i, w.from, w.peer, w.probes, w.hops, st.from, st.peer, st.probes, st.hops)
				}
			}
		})
	}
}
