package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nearestpeer/internal/engine"
)

// The golden figure files pin the deterministic quick-scale output of the
// wire studies, and of the static held-out-target experiment (fig9, a1, a3),
// byte for byte. They exist so that performance work on the
// hot paths underneath them — the event representation in internal/sim,
// the latency pricing in internal/netmodel, the send path and multicast
// index in internal/p2p — cannot change a single figure byte without the
// diff showing up here. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenQuickFigures -update
//
// and commit the diff only when a figure change is intended.
var updateGolden = flag.Bool("update", false, "rewrite the golden figure files")

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden output.\nIf the figure change is intended, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenQuickFigures asserts the quick-scale c1, c2 and s1 figures are
// byte-identical to the goldens captured before the allocation-free wire
// hot path landed: the typed-payload event representation, the SoA latency
// table, the pair RTT cache and the multicast sender index must be
// invisible in every figure byte. c1 additionally runs at two worker
// counts, so the goldens also witness the engine's schedule-independence
// contract end to end (s1 has its own cross-worker test).
func TestGoldenQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale studies are too heavy for -short")
	}
	t.Run("c1", func(t *testing.T) {
		prev := engine.SetWorkers(1)
		defer engine.SetWorkers(prev)
		serial := ChurnStudy(Quick, 1).Render()
		engine.SetWorkers(8)
		parallel := ChurnStudy(Quick, 1).Render()
		if serial != parallel {
			t.Fatalf("c1 differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", serial, parallel)
		}
		checkGolden(t, "golden_c1_quick.txt", serial)
	})
	// fig9, a1 and a3 pin the static held-out-target experiment: fig9 the
	// Section 4 Meridian simulation including its hub-latency column, a1 the
	// ablation scorer, a3 the finder roster over a noisy network.
	t.Run("fig9", func(t *testing.T) {
		checkGolden(t, "golden_fig9_quick.txt", Fig9(Quick, 1).Render())
	})
	t.Run("a1", func(t *testing.T) {
		checkGolden(t, "golden_a1_quick.txt", AblationHypervolume(Quick, 1).Render())
	})
	t.Run("a3", func(t *testing.T) {
		checkGolden(t, "golden_a3_quick.txt", AblationAlgorithmComparison(Quick, 1).Render())
	})
	t.Run("c2", func(t *testing.T) {
		checkGolden(t, "golden_c2_quick.txt", MitigationStudy(Quick, 1).Render())
	})
	t.Run("s1", func(t *testing.T) {
		checkGolden(t, "golden_s1_quick.txt", ScaleStudy(Quick, 1).Render())
	})
	// o1 runs at two worker counts like c1/v1: the observability layer
	// must not perturb the schedule, so the figure it reads off the runs
	// is held to the same byte-identical bar.
	t.Run("o1", func(t *testing.T) {
		prev := engine.SetWorkers(1)
		defer engine.SetWorkers(prev)
		serial := ObsStudy(Quick, 1).Render()
		engine.SetWorkers(8)
		parallel := ObsStudy(Quick, 1).Render()
		if serial != parallel {
			t.Fatalf("o1 differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", serial, parallel)
		}
		checkGolden(t, "golden_o1_quick.txt", serial)
	})
	// r1 runs at two worker counts as well: the robustness figure is the
	// acceptance artifact of the fault plane, and every fault decision is
	// a stateless hash, so the figure must not move by a byte across
	// -workers (each cell runs the wire cell on a serial kernel, which
	// -shards does not touch).
	t.Run("r1", func(t *testing.T) {
		prev := engine.SetWorkers(1)
		defer engine.SetWorkers(prev)
		serial := FaultStudy(Quick, 1).Render()
		engine.SetWorkers(8)
		parallel := FaultStudy(Quick, 1).Render()
		if serial != parallel {
			t.Fatalf("r1 differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", serial, parallel)
		}
		checkGolden(t, "golden_r1_quick.txt", serial)
	})
	// g1 runs at two worker counts as well: the grand table is the
	// acceptance artifact of the scheme registry — every registered scheme
	// through one methodology — and each row runs the wire cell on a serial
	// kernel, so the figure must not move by a byte across -workers (or
	// -shards, which only s1's wire cells take).
	t.Run("g1", func(t *testing.T) {
		prev := engine.SetWorkers(1)
		defer engine.SetWorkers(prev)
		serial := GrandStudy(Quick, 1).Render()
		engine.SetWorkers(8)
		parallel := GrandStudy(Quick, 1).Render()
		if serial != parallel {
			t.Fatalf("g1 differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", serial, parallel)
		}
		checkGolden(t, "golden_g1_quick.txt", serial)
	})
	// v1 runs at two worker counts like c1: the acceptance bar for the
	// Vivaldi study is byte-identical output across -workers, witnessed by
	// the same golden.
	t.Run("v1", func(t *testing.T) {
		prev := engine.SetWorkers(1)
		defer engine.SetWorkers(prev)
		serial := VivaldiStudy(Quick, 1).Render()
		engine.SetWorkers(8)
		parallel := VivaldiStudy(Quick, 1).Render()
		if serial != parallel {
			t.Fatalf("v1 differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", serial, parallel)
		}
		checkGolden(t, "golden_v1_quick.txt", serial)
	})
}
