package overlay

import (
	"testing"
	"testing/quick"

	"nearestpeer/internal/latency"
)

func TestSplitPartitions(t *testing.T) {
	members, targets := Split(100, 10, 1)
	if len(members) != 90 || len(targets) != 10 {
		t.Fatalf("sizes %d/%d", len(members), len(targets))
	}
	seen := make(map[int]bool)
	for _, x := range append(append([]int(nil), members...), targets...) {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("bad element %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 100 {
		t.Fatal("split does not cover population")
	}
}

func TestSplitDeterministic(t *testing.T) {
	m1, t1 := Split(50, 5, 9)
	m2, t2 := Split(50, 5, 9)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("members differ")
		}
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("targets differ")
		}
	}
}

func TestSplitPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(5, 5, 1)
}

func TestSplitProperty(t *testing.T) {
	err := quick.Check(func(nRaw, tRaw uint8, seed int64) bool {
		n := int(nRaw%200) + 2
		nT := int(tRaw) % (n - 1)
		if nT == 0 {
			nT = 1
		}
		members, targets := Split(n, nT, seed)
		return len(members)+len(targets) == n
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeAccounting(t *testing.T) {
	m := latency.NewDense(4)
	m.Set(0, 1, 5)
	net := NewNetwork(m)
	if got := net.Probe(0, 1); got != 5 {
		t.Fatalf("probe = %v", got)
	}
	net.MaintProbe(0, 1)
	net.MaintProbe(1, 2)
	if net.QueryProbes() != 1 || net.MaintProbes() != 2 {
		t.Fatalf("counts %d/%d", net.QueryProbes(), net.MaintProbes())
	}
	net.ResetQueryProbes()
	if net.QueryProbes() != 0 {
		t.Fatal("reset failed")
	}
}

// TestMaintProbeRowIsPerPair: a row probe is one MaintProbe per element,
// in order — the same values, the same count, and, under noise, the same
// draws, so the two networks' streams stay in step afterwards.
func TestMaintProbeRowIsPerPair(t *testing.T) {
	m := latency.SyntheticMeridianDataset(12, 5)
	js := []int{7, 2, 2, 11, 0, 5}
	for _, noisy := range []bool{false, true} {
		row, pair := NewNetwork(m), NewNetwork(m)
		if noisy {
			row.SetNoise(0.05, 0.3, 9)
			pair.SetNoise(0.05, 0.3, 9)
		}
		got := make([]float64, len(js)+1)
		got[len(js)] = -1
		row.MaintProbeRow(3, js, got)
		for k, j := range js {
			if want := pair.MaintProbe(3, j); got[k] != want {
				t.Errorf("noisy=%v: row[%d] = %v, MaintProbe(3, %d) = %v", noisy, k, got[k], j, want)
			}
		}
		if got[len(js)] != -1 {
			t.Errorf("noisy=%v: wrote past len(js)", noisy)
		}
		if row.MaintProbes() != pair.MaintProbes() || row.QueryProbes() != 0 {
			t.Errorf("noisy=%v: counts maint %d vs %d, query %d", noisy, row.MaintProbes(), pair.MaintProbes(), row.QueryProbes())
		}
		if a, b := row.MaintProbe(1, 4), pair.MaintProbe(1, 4); a != b {
			t.Errorf("noisy=%v: streams diverged after the row: %v vs %v", noisy, a, b)
		}
	}
}

func TestNoiseBoundedAndDeterministic(t *testing.T) {
	m := latency.NewDense(2)
	m.Set(0, 1, 100)
	a := NewNetwork(m)
	a.SetNoise(0.05, 0.5, 3)
	b := NewNetwork(m)
	b.SetNoise(0.05, 0.5, 3)
	for i := 0; i < 100; i++ {
		va, vb := a.Probe(0, 1), b.Probe(0, 1)
		if va != vb {
			t.Fatal("noise not deterministic per seed")
		}
		if va < 50 || va > 150 {
			t.Fatalf("noise implausibly large: %v", va)
		}
	}
}

func TestTrueNearest(t *testing.T) {
	m := latency.NewDense(5)
	m.Set(0, 1, 10)
	m.Set(0, 2, 3)
	m.Set(0, 3, 7)
	res := TrueNearest(m, 0, []int{1, 2, 3})
	if res.Peer != 2 || res.LatencyMs != 3 {
		t.Fatalf("oracle = %+v", res)
	}
	// Target excluded from its own candidates.
	res = TrueNearest(m, 0, []int{0, 1})
	if res.Peer != 1 {
		t.Fatalf("oracle includes target: %+v", res)
	}
}
