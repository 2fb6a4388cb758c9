package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nearestpeer/internal/engine"
)

// The golden figure files pin the deterministic quick-scale output of every
// figure in the roster (Figures), byte for byte: Section 3's measurement
// figures (table1, fig3–fig7, fig10, fig11), the static Meridian
// simulations (fig8, fig9), the ablations (a1–a6) and the wire studies.
// They exist so that work underneath them — the event representation in
// internal/sim, the latency pricing in internal/netmodel, the send path in
// internal/p2p, a rewrite of a study — cannot change a single figure byte
// without the diff showing up here. Regenerate with
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

// TestGoldenQuickFigures pins every figure of the roster at quick scale,
// seed 1, to testdata/golden_<name>_quick.txt. Each figure renders at
// -workers 1 and at -workers 8 and must give the same bytes, so the goldens
// also witness the engine's schedule-independence contract end to end. A
// figure added to Figures without a golden fails here, and so does a golden
// left behind by a figure that is no longer in the roster.
func TestGoldenQuickFigures(t *testing.T) {
	figures := Figures(Quick, 1)
	goldens, err := filepath.Glob(goldenPath("golden_*_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(g), "golden_"), "_quick.txt")
		if !slices.ContainsFunc(figures, func(f Figure) bool { return f.Name == name }) {
			t.Errorf("%s pins %q, which is not in the figure roster", g, name)
		}
	}
	if testing.Short() {
		t.Skip("quick-scale studies are too heavy for -short")
	}
	for _, f := range figures {
		t.Run(f.Name, func(t *testing.T) {
			prev := engine.SetWorkers(1)
			defer engine.SetWorkers(prev)
			serial, _ := f.Run()
			engine.SetWorkers(8)
			parallel, _ := f.Run()
			if serial != parallel {
				t.Fatalf("%s differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", f.Name, serial, parallel)
			}
			checkGolden(t, "golden_"+f.Name+"_quick.txt", serial)
		})
	}
}
