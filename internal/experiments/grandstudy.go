package experiments

import (
	"fmt"
	"strings"
	"time"

	"nearestpeer/internal/engine"
)

// This file is the grand table (figure g1): every registered scheme through
// the one c2 methodology — the static function-call oracle beside the
// message-level deployment at 0% and 5% loss, with and without churn — so
// the paper's whole algorithm zoo reads off a single table with identical
// peers, query stream and scoring. The rows come straight from the scheme
// registry; adding a scheme there adds its rows here. Each row is one
// engine trial with its own kernel, runtime and measurement toolkit, and
// the figure is byte-identical at any -workers/-shards (wall-clock lives in
// RenderTiming).

// GrandRow is one (scheme, condition) row of the grand table: the c2 scores
// plus the row's wall-clock (non-deterministic; excluded from Render).
type GrandRow struct {
	MitigationRow
	WallMs float64
}

// GrandStudyResult is the figure g1 output.
type GrandStudyResult struct {
	Seed           int64
	Peers, Queries int
	ThresholdMs    float64
	Rows           []GrandRow
}

// grandParams returns (peers, queries) per scale: smaller than c2 because
// the grand table multiplies every scheme by every condition.
func grandParams(s Scale) (peers, queries int) {
	if s == Full {
		return 1000, 200
	}
	return 100, 20
}

// GrandSchemes is the g1 roster in table order: the walk schemes first,
// then the substrates, the DHT-hint mitigations, coordinates, and the wired
// finder zoo. The golden figure pins this order.
func GrandSchemes() []string {
	return []string{
		"meridian", "expanding", "chord", "ucl", "ipprefix", "vivaldi",
		"guyton", "beaconing", "tiers", "pic", "tapestry",
		"azureus", "kargerruhl", "rendezvous",
	}
}

// GrandStudy runs the grand table on the shared environment's topology:
// every GrandSchemes entry under every c1/c2 wire condition. Rows merge in
// (scheme, condition) order regardless of the worker count.
func GrandStudy(scale Scale, seed int64) *GrandStudyResult {
	env := SharedEnv(scale, seed)
	nPeers, queries := grandParams(scale)
	peers := MitigationPeers(env, nPeers)
	out := &GrandStudyResult{Seed: seed, Peers: len(peers), Queries: queries, ThresholdMs: mitigationNearMs}
	type grandCell struct {
		scheme string
		cond   wireCondition
	}
	var cells []grandCell
	for _, scheme := range GrandSchemes() {
		for _, c := range wireConditions() {
			cells = append(cells, grandCell{scheme, c})
		}
	}
	out.Rows = engine.Map(engine.Config{Seed: seed, Label: "g1"}, cells,
		func(_ *engine.Trial, c grandCell) GrandRow {
			// Every row owns its measurement toolkit, so rows never contend
			// for one noise stream and parallel trials stay deterministic.
			tools := env.FreshTools()
			start := time.Now()
			var row MitigationRow
			if c.cond.static {
				// The static baseline names itself "<scheme> static
				// (function calls)" inside the registry leg.
				row = must(runStaticMitigationTools(env, tools, c.scheme, peers, queries, seed))
			} else {
				row = must(RunWireMitigation(env, peers, MitigationOpts{
					Scheme: c.scheme, Loss: c.cond.loss, Churn: c.cond.churn,
					Queries: queries, Seed: seed, Tools: tools,
				}))
				row.Name = c.scheme + " " + c.cond.name
			}
			return GrandRow{MitigationRow: row,
				WallMs: float64(time.Since(start)) / float64(time.Millisecond)}
		})
	return out
}

// Render prints the deterministic grand table (wall-clock lives in
// RenderTiming, as with s1/v1).
func (r *GrandStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Grand table g1: every registered scheme through the c2 methodology (seed %d)\n", r.Seed)
	fmt.Fprintf(&b, "%d peers on the measurement topology, %d queries/row, near threshold %.0f ms\n",
		r.Peers, r.Queries, r.ThresholdMs)
	fmt.Fprintf(&b, "static rows are the function-call oracle; message rows run real RPCs over internal/p2p\n\n")
	fmt.Fprintf(&b, "%-38s %6s %8s %8s %9s %10s %7s %8s %10s %9s\n",
		"scheme / condition", "found", "p(near)", "rtt(ms)", "probes/q", "lookups/q", "hops/q", "msgs/q", "pub-m/peer", "timeouts")
	perScheme := len(wireConditions())
	for i, row := range r.Rows {
		if i > 0 && i%perScheme == 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-38s %6.2f %8.3f %8.1f %9.1f %10.1f %7.1f %8.1f %10.1f %9d",
			row.Name, row.Found, row.PNear, row.MeanFoundMs,
			row.MeanProbes, row.MeanLookups, row.MeanHops, row.MeanMsgs, row.PubMsgsPerPeer, row.Timeouts)
		endChurnRow(&b, row.Leaves, row.Joins)
	}
	b.WriteString("\nreading: no scheme is free — the oracle rows show what each algorithm could do\n" +
		"with perfect measurements, the wire rows what the same structure earns once every\n" +
		"probe is a message that can be lost and every hint can outlive its publisher; the\n" +
		"chord rows price the raw substrate, whose owner is a hash, not a neighbor\n")
	return b.String()
}

// RenderTiming prints the wall-clock view of the table (non-deterministic;
// cmd/figures prints it to the terminal but never writes it into the
// figure file).
func (r *GrandStudyResult) RenderTiming() string {
	var b strings.Builder
	b.WriteString("g1 wall-clock (non-deterministic; excluded from the figure):\n")
	fmt.Fprintf(&b, "%-38s %12s\n", "scheme / condition", "wall")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-38s %12s\n",
			row.Name, time.Duration(row.WallMs*float64(time.Millisecond)).Round(time.Millisecond))
	}
	return b.String()
}
