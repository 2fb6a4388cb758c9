package experiments

import (
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
)

// TestTargetScorer pins the held-out-target yardstick on a five-node line
// (RTT(i,j) = 10·|i-j| ms; node 4 a second cluster): target 0, members 1-4.
func TestTargetScorer(t *testing.T) {
	m := latency.NewDense(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.Set(i, j, 10*float64(j-i))
		}
	}
	gt := &latency.GroundTruth{ClusterOf: []int{0, 0, 0, 0, 1}, HubLatMs: []float64{1, 2, 3, 4, 5}}
	oracle := overlay.TrueNearest(m, 0, []int{1, 2, 3, 4})
	answer := func(peer p2p.NodeID) p2p.FindResult {
		return p2p.FindResult{Peer: peer, Found: true, Probes: 4, Hops: 2, Elapsed: 30 * time.Millisecond}
	}
	miss := p2p.FindResult{Peer: p2p.NoNode, Probes: 2, Hops: 1, Elapsed: time.Second}

	type query struct {
		oracle overlay.Result
		res    p2p.FindResult
	}
	cases := []struct {
		name    string
		gt      *latency.GroundTruth
		queries []query
		issued  int
		want    TargetScore
	}{
		{
			name:    "no answer: probes and hops still billed, nothing else moves",
			gt:      gt,
			queries: []query{{oracle, miss}},
			issued:  1,
			want:    TargetScore{MeanProbes: 2, MeanHops: 1},
		},
		{
			name:    "answer is the oracle",
			gt:      gt,
			queries: []query{{oracle, answer(1)}},
			issued:  1,
			want:    TargetScore{PExact: 1, PCluster: 1, Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30, MedianStretch: 1},
		},
		{
			name:    "in-cluster but not exact: a miss with a hub latency",
			gt:      gt,
			queries: []query{{oracle, answer(3)}},
			issued:  1,
			want:    TargetScore{PCluster: 1, Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30, MeanHubLat: 4, MedianStretch: 3},
		},
		{
			name:    "out of cluster",
			gt:      gt,
			queries: []query{{oracle, answer(4)}},
			issued:  1,
			want:    TargetScore{Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30, MeanHubLat: 5, MedianStretch: 4},
		},
		{
			name:    "nil ground truth: cluster and hub scoring skipped",
			queries: []query{{oracle, answer(3)}},
			issued:  1,
			want:    TargetScore{Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30, MedianStretch: 3},
		},
		{
			name: "empty live membership: an answer is a miss without a stretch sample",
			gt:   gt,
			// TrueNearest over nobody: Peer -1, LatencyMs 0.
			queries: []query{{overlay.TrueNearest(m, 0, nil), answer(2)}},
			issued:  1,
			want:    TargetScore{PCluster: 1, Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30, MeanHubLat: 3},
		},
		{
			name:    "oracle latency 0: exact, no stretch sample",
			gt:      gt,
			queries: []query{{overlay.Result{Peer: 1}, answer(1)}},
			issued:  1,
			want:    TargetScore{PExact: 1, PCluster: 1, Found: 1, MeanProbes: 4, MeanHops: 2, MeanMs: 30},
		},
		{
			name: "issued < asked: the op that never completed joins the denominators",
			gt:   gt,
			// Two of four asked were issued before the watchdog; one answered.
			queries: []query{{oracle, answer(1)}},
			issued:  2,
			want:    TargetScore{PExact: 0.5, PCluster: 0.5, Found: 0.5, MeanProbes: 2, MeanHops: 1, MeanMs: 30, MedianStretch: 1},
		},
		{
			name: "zero issued normalises by 1",
			gt:   gt,
			want: TargetScore{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := targetScorer{m: m, gt: tc.gt}
			for _, q := range tc.queries {
				sc.result(0, q.oracle, q.res)
			}
			if got := sc.score(tc.issued); got != tc.want {
				t.Fatalf("score(%d)\n got %+v\nwant %+v", tc.issued, got, tc.want)
			}
		})
	}
}

// TestRunStaticTargetsRejectsNoQueries: a score is a mean over at least one
// query (`npsim -queries 0` used to print NaNs).
func TestRunStaticTargetsRejectsNoQueries(t *testing.T) {
	for _, queries := range []int{0, -3} {
		if _, err := RunStaticTargets(nil, nil, nil, nil, nil, queries, 1); err == nil || !strings.Contains(err.Error(), "at least 1 query") {
			t.Fatalf("queries=%d: err = %v, want the at-least-1-query error", queries, err)
		}
	}
}

// TestStaticFinderRoster: every registered scheme either builds a finder
// that answers a held-out target with a member, or says it has none — and an
// unknown name gets the roster.
func TestStaticFinderRoster(t *testing.T) {
	cfg := latency.DefaultClusteredConfig()
	cfg.ENsPerCluster = 25
	cfg.TotalPeers = 300
	m, gt := latency.NewClustered(cfg, 1)
	members, targets := overlay.Split(m.N(), 20, 2)
	isMember := make(map[int]bool, len(members))
	for _, id := range members {
		isMember[id] = true
	}
	built := 0
	for _, name := range SchemeNames() {
		f, err := StaticFinder(name, overlay.NewNetwork(m), members, 2, func(i int) int { return gt.ENOf[i] })
		if err != nil {
			if !strings.Contains(err.Error(), "no static finder") {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		built++
		if res := f.FindNearest(targets[0]); res.Peer >= 0 && !isMember[res.Peer] {
			t.Errorf("%s answered %d, not a member", name, res.Peer)
		}
	}
	if built != 10 {
		t.Errorf("%d schemes built a static finder, want the 10 `npsim -algo` lists", built)
	}
	if _, err := StaticFinder("bogus", overlay.NewNetwork(m), members, 2, nil); err == nil || !strings.Contains(err.Error(), "kargerruhl") {
		t.Errorf("unknown scheme: err = %v, want the roster", err)
	}
}
