package experiments

import (
	"fmt"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/stats"
)

// This file is the paper's Section 4 methodology, written once: hold
// targets out of the overlay, ask a scheme for each target's nearest member,
// score the answer against the true nearest. targetScorer is the one
// yardstick behind fig8/fig9, a1-a3/a6, c1, s1, v1 and `npsim -algo`;
// RunStaticTargets the one function-call loop. The wire cells (c1, v1, s1's
// expanding search) feed the same scorer from their op streams.

// TargetScore is one held-out-target cell's scores. The means over queries
// are normalised by the queries issued; each study prints the columns it
// reports.
type TargetScore struct {
	// PExact is P(answer is the true nearest member); PCluster is P(answer
	// in the target's cluster) (0 without ground truth); Found the fraction
	// of queries answered with any peer.
	PExact, PCluster, Found float64
	// MeanProbes and MeanHops are per query issued, answered or not.
	MeanProbes, MeanHops float64
	// MeanMs is the mean virtual milliseconds of an answered query (0 for
	// function calls, which take no time).
	MeanMs float64
	// MeanHubLat is the mean hub latency of the answers that missed the
	// true nearest (0 without ground truth): Figure 9's second axis.
	MeanHubLat float64
	// MedianStretch is the median of answer-RTT / true-nearest-RTT over the
	// answered queries whose oracle RTT is positive (0 when there are none,
	// or the scorer has no matrix).
	MedianStretch float64
}

// targetScorer tallies nearest-peer answers against the oracle. m prices an
// answer's true RTT for the stretch column (nil: no stretch samples — the
// sharded cell, whose matrices belong to its shards); gt is the clustered
// ground truth (nil: no cluster or hub-latency scoring).
type targetScorer struct {
	m  latency.Matrix
	gt *latency.GroundTruth

	exact, inCluster, found int
	probes, hops            int64
	elapsedMs               float64
	hubLatSum               float64
	hubLatN                 int
	stretches               []float64
}

// result scores one answer for target against oracle, the true nearest
// member as the caller defines it: over the whole membership for a static
// overlay, over the members live at issue under churn (Peer -1 when nobody
// is).
func (s *targetScorer) result(target int, oracle overlay.Result, r p2p.FindResult) {
	s.probes += int64(r.Probes)
	s.hops += int64(r.Hops)
	if !r.Found {
		return
	}
	peer := int(r.Peer)
	s.found++
	s.elapsedMs += float64(r.Elapsed) / float64(time.Millisecond)
	if peer == oracle.Peer {
		s.exact++
	} else if s.gt != nil {
		s.hubLatSum += s.gt.HubLatMs[peer]
		s.hubLatN++
	}
	if s.gt != nil && s.gt.SameCluster(peer, target) {
		s.inCluster++
	}
	if s.m != nil && oracle.LatencyMs > 0 {
		s.stretches = append(s.stretches, s.m.LatencyMs(target, peer)/oracle.LatencyMs)
	}
}

// score renders the tallies over the queries actually issued (a wire
// watchdog may cut the stream short; the unissued remainder must not be
// scored as failures). Zero issued normalises by 1.
func (s *targetScorer) score(issued int) TargetScore {
	n := float64(max(issued, 1))
	out := TargetScore{
		PExact:     float64(s.exact) / n,
		PCluster:   float64(s.inCluster) / n,
		Found:      float64(s.found) / n,
		MeanProbes: float64(s.probes) / n,
		MeanHops:   float64(s.hops) / n,
	}
	if s.found > 0 {
		out.MeanMs = s.elapsedMs / float64(s.found)
	}
	if s.hubLatN > 0 {
		out.MeanHubLat = s.hubLatSum / float64(s.hubLatN)
	}
	if len(s.stretches) > 0 {
		out.MedianStretch = stats.Median(s.stretches)
	}
	return out
}

// RunStaticTargets is the function-call held-out-target cell: queries draws
// from targets (the stream seeded by seed), each answered by f over the
// overlay of members and scored against the true nearest member on m. gt may
// be nil (no cluster scoring). Fewer than 1 query is an error: a score is a
// mean over at least one.
func RunStaticTargets(f overlay.Finder, m latency.Matrix, gt *latency.GroundTruth, members, targets []int, queries int, seed int64) (TargetScore, error) {
	if queries < 1 {
		return TargetScore{}, fmt.Errorf("experiments: a held-out-target run needs at least 1 query, got %d", queries)
	}
	find := staticFinder(f)
	src := rng.New(seed)
	sc := targetScorer{m: m, gt: gt}
	for q := 0; q < queries; q++ {
		tgt := targets[src.Intn(len(targets))]
		sc.result(tgt, overlay.TrueNearest(m, tgt, members), find(tgt))
	}
	return sc.score(queries), nil
}
