package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nearestpeer/internal/latency"
)

// testEnv is a process-shared Quick environment for experiment tests.
func testEnv(t *testing.T) *Env {
	t.Helper()
	return SharedEnv(Quick, 1)
}

// TestMemoBuildsOnce: concurrent gets of one key build it once and all
// see the same value; a second key builds separately.
func TestMemoBuildsOnce(t *testing.T) {
	var c memo[int, *int]
	var builds atomic.Int32
	build := func() *int { builds.Add(1); return new(int) }
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get(1, build)
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("get %d returned %p, get 0 returned %p", i, v, got[0])
		}
	}
	if c.get(2, build) == got[0] || builds.Load() != 2 {
		t.Errorf("%d builds for two keys, want 2", builds.Load())
	}
}

func TestTable1(t *testing.T) {
	r := Table1(testEnv(t))
	if len(r.Rows) != 7 {
		t.Fatalf("got %d vantage rows", len(r.Rows))
	}
	out := r.Render()
	if !strings.Contains(out, "planetlab5.cs.cornell.edu") {
		t.Fatal("Cornell vantage missing")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3(testEnv(t))
	if r.Pairs < 500 {
		t.Fatalf("only %d pairs measured", r.Pairs)
	}
	// A majority — but not all — of predictions land within a factor 2,
	// as in the paper.
	if r.FractionIn05_2 < 0.5 || r.FractionIn05_2 > 0.98 {
		t.Fatalf("fraction in [0.5,2] = %v", r.FractionIn05_2)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4Trend(t *testing.T) {
	r := Fig4(testEnv(t))
	if len(r.Bins) < 4 {
		t.Fatalf("only %d bins", len(r.Bins))
	}
	// The paper's trend: the prediction measure rises with predicted
	// latency. Compare the low and high thirds by median.
	lo := r.Bins[len(r.Bins)/6].Median
	hi := r.Bins[len(r.Bins)-1].Median
	if hi <= lo {
		t.Fatalf("prediction measure does not rise: low=%v high=%v", lo, hi)
	}
}

func TestFig5OrderOfMagnitude(t *testing.T) {
	r := Fig5(testEnv(t))
	if r.IntraMax10.N() < 20 || r.InterKing.N() < 500 {
		t.Fatalf("samples %d/%d", r.IntraMax10.N(), r.InterKing.N())
	}
	intra := r.IntraMax10.Quantile(0.5)
	inter := r.InterKing.Quantile(0.5)
	if intra*4 > inter {
		t.Fatalf("intra-domain median %v not well below inter %v", intra, inter)
	}
}

func TestFig6Funnel(t *testing.T) {
	r := Fig6(testEnv(t))
	if !(r.Candidates > r.Responsive && r.Responsive > r.UniqueUpstream) {
		t.Fatalf("funnel broken: %d/%d/%d", r.Candidates, r.Responsive, r.UniqueUpstream)
	}
	frac := float64(r.Responsive) / float64(r.Candidates)
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("responsiveness %v, want ~0.15", frac)
	}
	if r.FracPruned25 <= 0 || r.FracPruned25 > 0.6 {
		t.Fatalf("fraction in big pruned clusters = %v", r.FracPruned25)
	}
	// Pruning can only shrink clusters.
	if len(r.SizesPruned) > 0 && len(r.SizesUnpruned) > 0 &&
		r.SizesPruned[0] > r.SizesUnpruned[0] {
		t.Fatal("pruned clusters larger than unpruned")
	}
}

func TestFig7LatencyRange(t *testing.T) {
	r := Fig7(testEnv(t))
	if len(r.CDFs) == 0 {
		t.Fatal("no clusters")
	}
	// Hub-to-peer latencies of the biggest cluster are broadband-scale
	// (several to ~100 ms), indicating distinct end-networks.
	med := r.CDFs[0].Quantile(0.5)
	if med < 3 || med > 120 {
		t.Fatalf("largest cluster median hub latency %v ms", med)
	}
}

func TestFig10HopGrowth(t *testing.T) {
	r := Fig10(testEnv(t))
	if r.Pairs < 200 {
		t.Fatalf("only %d pairs", r.Pairs)
	}
	if len(r.Bins) < 4 {
		t.Fatalf("only %d bins", len(r.Bins))
	}
	first, last := r.Bins[0], r.Bins[len(r.Bins)-1]
	if last.Median <= first.Median {
		t.Fatalf("hop count does not grow with latency: %v -> %v", first.Median, last.Median)
	}
}

func TestFig11Monotonicity(t *testing.T) {
	r := Fig11(testEnv(t))
	if len(r.Points) < 5 {
		t.Fatalf("only %d points", len(r.Points))
	}
	// FP falls (weakly) and FN rises (weakly) with prefix length.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].FP > r.Points[i-1].FP+0.05 {
			t.Fatalf("FP rose at %d bits: %v -> %v", r.Points[i].Bits, r.Points[i-1].FP, r.Points[i].FP)
		}
		if r.Points[i].FN < r.Points[i-1].FN-0.05 {
			t.Fatalf("FN fell at %d bits: %v -> %v", r.Points[i].Bits, r.Points[i-1].FN, r.Points[i].FN)
		}
	}
	if r.Points[0].FP < 0.5 {
		t.Fatalf("short-prefix FP %v, expected high", r.Points[0].FP)
	}
	if r.Points[len(r.Points)-1].FP > 0.1 {
		t.Fatalf("long-prefix FP %v, expected low", r.Points[len(r.Points)-1].FP)
	}
}

func TestMeridianSimulationScoring(t *testing.T) {
	// One small simulation exercises the Figure 8/9 machinery end to end.
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = 600
	cfg.ENsPerCluster = 25
	run := simulateMeridian(cfg, 40, 200, 7)
	if run.PExact < 0 || run.PExact > 1 || run.PCluster < run.PExact {
		t.Fatalf("scores implausible: %+v", run)
	}
	if run.MeanProbes <= 0 {
		t.Fatal("no probes accounted")
	}
}

func TestScaleParams(t *testing.T) {
	p, tg, q, r := scaleParams(Full)
	if p != 2500 || tg != 100 || q != 5000 || r != 3 {
		t.Fatalf("full params %d/%d/%d/%d", p, tg, q, r)
	}
	if Full.String() != "full" || Quick.String() != "quick" {
		t.Fatal("scale strings")
	}
}

func TestSharedEnvCached(t *testing.T) {
	a := SharedEnv(Quick, 1)
	b := SharedEnv(Quick, 1)
	if a != b {
		t.Fatal("shared env not cached")
	}
}

// cmd/figures runs every figure on one shared environment, so a study's
// bytes must not depend on what measured before it. When the environment
// carried one stateful toolkit, a full run printed different fig6, fig7,
// fig10, fig11, a4 and a5 bytes than -only did.
func TestStudiesIndependentOfRunOrder(t *testing.T) {
	env := SharedEnv(Quick, 1)
	first := Fig6From(ComputeAzureusStudy(env)).Render()
	ComputeDNSStudy(env)
	if again := Fig6From(ComputeAzureusStudy(env)).Render(); again != first {
		t.Fatalf("fig6 moved after the DNS study measured:\n--- first ---\n%s\n--- after ---\n%s", first, again)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.min != 1 || s.med != 2 || s.max != 3 {
		t.Fatalf("summary %+v", s)
	}
}

func TestChurnStudy(t *testing.T) {
	r := ChurnStudy(Quick, 1)
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5 (static + 4 wire conditions)", len(r.Rows))
	}
	static := r.Rows[0]
	if static.Found != 1 || static.MeanProbes <= 0 || static.MeanMsgs != 0 {
		t.Fatalf("static baseline implausible: %+v", static)
	}
	lossy := r.Rows[2]
	if lossy.Timeouts == 0 || lossy.Found >= 1 {
		t.Fatalf("5%% loss run shows no wire effects: %+v", lossy)
	}
	for _, row := range r.Rows[3:] {
		if row.Leaves == 0 || row.Joins == 0 {
			t.Fatalf("churn condition %q saw no churn", row.Name)
		}
	}
	out := r.Render()
	for _, want := range []string{"loss=5%", "churn", "probes/q", "leaves"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestChurnStudyLosslessWireIsStatic: c1's two legs search one overlay, so
// at 0% loss the wire row must score exactly the static row — the same
// exact and cluster hits, the same probe and hop bill — with every query
// done and nothing timed out.
func TestChurnStudyLosslessWireIsStatic(t *testing.T) {
	r := ChurnStudy(Quick, 1)
	static, lossless := r.Rows[0], r.Rows[1]
	if lossless.Name != "messages, loss=0%" {
		t.Fatalf("row 1 is %q, want the lossless wire row", lossless.Name)
	}
	if lossless.Found != 1 || lossless.Timeouts != 0 {
		t.Fatalf("lossless wire run lost queries: %+v", lossless)
	}
	if lossless.PExact != static.PExact || lossless.PCluster != static.PCluster ||
		lossless.MeanProbes != static.MeanProbes || lossless.MeanHops != static.MeanHops {
		t.Fatalf("lossless wire row %+v differs from the static row %+v", lossless.TargetScore, static.TargetScore)
	}
}

func TestMitigationWireMatchesStaticLossless(t *testing.T) {
	env := SharedEnv(Quick, 1)
	peers := MitigationPeers(env, 80)
	static, err := RunStaticMitigation(env, "ipprefix", peers, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := RunWireMitigation(env, peers, MitigationOpts{Scheme: "ipprefix", Queries: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wire.Timeouts != 0 || wire.LookupFails != 0 || wire.DeadProbes != 0 {
		t.Fatalf("lossless wire run shows wire failures: %+v", wire)
	}
	// The wire runs the same hint scheme over the same entries: success
	// must land beside the static baseline (probe noise can flip a
	// borderline candidate, so allow a small gap).
	if diff := wire.Found - static.Found; diff < -0.15 || diff > 0.15 {
		t.Fatalf("wire found %v vs static %v", wire.Found, static.Found)
	}
	if wire.MeanMsgs <= 0 || wire.PubMsgsPerPeer <= 0 {
		t.Fatalf("wire run priced no messages: %+v", wire)
	}
	if static.MeanMsgs != 0 || static.PubMsgsPerPeer != 0 {
		t.Fatalf("static baseline has wire costs: %+v", static)
	}
}

func TestMitigationWireUnderLossAndChurn(t *testing.T) {
	env := SharedEnv(Quick, 1)
	peers := MitigationPeers(env, 80)
	row, err := RunWireMitigation(env, peers, MitigationOpts{Scheme: "ucl", Loss: 0.05, Churn: true, Queries: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row.Leaves == 0 || row.Joins == 0 {
		t.Fatalf("churn condition saw no churn: %+v", row)
	}
	if row.Timeouts == 0 {
		t.Fatalf("5%% loss run recorded no timeouts: %+v", row)
	}
}

func TestWireChordExercise(t *testing.T) {
	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = 120
	m, _ := latency.NewClustered(cfg, 1)
	row := RunWireChord(m, WireChordOpts{Nodes: 100, Ops: 20, Seed: 1})
	if row.PutOK != 1 || row.GetOK != 1 {
		t.Fatalf("lossless chord ops failed: %+v", row)
	}
	if row.MeanHops <= 0 || row.MeanMsgs <= 0 {
		t.Fatalf("chord ops priced nothing: %+v", row)
	}
	churned := RunWireChord(m, WireChordOpts{Nodes: 100, Ops: 20, Loss: 0.05, Churn: true, Seed: 1})
	if churned.Leaves == 0 || churned.Timeouts == 0 {
		t.Fatalf("churned chord run shows no wire effects: %+v", churned)
	}
	if churned.GetOK < 0.5 {
		t.Fatalf("chord collapsed under mild churn: %+v", churned)
	}
}

func TestMitigationStudyRender(t *testing.T) {
	r := &MitigationStudyResult{
		Peers: 10, Queries: 5, ThresholdMs: 10,
		Rows: []MitigationRow{
			{Name: "ucl static (function calls)", Found: 1, PNear: 0.5},
			{Name: "ucl messages, loss=5% + churn", Found: 0.5, MeanMsgs: 12, Timeouts: 3, Leaves: 2, Joins: 1},
		},
	}
	out := r.Render()
	for _, want := range []string{"loss=5%", "p(near)", "msgs/q", "leaves"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
