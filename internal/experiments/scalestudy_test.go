package experiments

import (
	"strings"
	"testing"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/netmodel"
)

// TestScaleStudyDeterministicAcrossWorkers is the engine's contract at
// study level: the rendered figure must be byte-identical whether the
// (size, algorithm) grid runs on one worker or eight.
func TestScaleStudyDeterministicAcrossWorkers(t *testing.T) {
	sizes := []int{300, 700}
	prev := engine.SetWorkers(1)
	defer engine.SetWorkers(prev)
	serial := ScaleStudyAt(sizes, 8, 1)
	engine.SetWorkers(8)
	parallel := ScaleStudyAt(sizes, 8, 1)
	if a, b := serial.Render(), parallel.Render(); a != b {
		t.Fatalf("figure differs between -workers=1 and -workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", a, b)
	}
	// The per-cell deterministic fields must match exactly, not just the
	// formatted table.
	for i := range serial.Cells {
		a, b := figureFields(serial.Cells[i]), figureFields(parallel.Cells[i])
		if a != b {
			t.Fatalf("cell %d differs across worker counts:\n  w=1: %+v\n  w=8: %+v", i, a, b)
		}
	}
}

// figureFields strips what only RenderTiming may print: wall-clock and the
// kernel's window telemetry (which moves with the shard count and the
// scheduler). Everything left must be a pure function of (sizes, queries,
// seed).
func figureFields(c ScaleCell) ScaleCell {
	c.WallMs, c.QPS, c.Kernel = 0, 0, nil
	return c
}

// TestScaleStudyShardInvariance is the sharded kernel's contract at study
// level: the rendered figure — and every deterministic cell field — must be
// byte-identical at every -shards value. Run with -race in CI, this is also
// the cross-shard mailbox and barrier stress for the full p2p stack.
func TestScaleStudyShardInvariance(t *testing.T) {
	sizes := []int{300, 700}
	atShards := func(k int) *ScaleStudyResult {
		prev := engine.SetShards(k)
		defer engine.SetShards(prev)
		return ScaleStudyAt(sizes, 8, 1)
	}
	base := atShards(1)
	for _, k := range []int{2, 4} {
		got := atShards(k)
		if a, b := base.Render(), got.Render(); a != b {
			t.Fatalf("figure differs between -shards=1 and -shards=%d:\n--- k=1 ---\n%s\n--- k=%d ---\n%s", k, a, k, b)
		}
		for i := range base.Cells {
			a, b := figureFields(base.Cells[i]), figureFields(got.Cells[i])
			if a != b {
				t.Fatalf("cell %d differs across shard counts:\n  k=1: %+v\n  k=%d: %+v", i, a, k, b)
			}
		}
	}
}

func TestScaleStudyCellsWellFormed(t *testing.T) {
	r := ScaleStudyAt([]int{400}, 6, 2)
	if len(r.Cells) != len(scaleAlgos) {
		t.Fatalf("%d cells, want %d", len(r.Cells), len(scaleAlgos))
	}
	for i, c := range r.Cells {
		if c.Algo != scaleAlgos[i] {
			t.Fatalf("cell %d algo %q, want %q (merge order broken)", i, c.Algo, scaleAlgos[i])
		}
		if c.Success < 0 || c.Success > 1 {
			t.Fatalf("%s success %v outside [0,1]", c.Algo, c.Success)
		}
		if c.CostPerQuery <= 0 {
			t.Fatalf("%s accounted no cost: %+v", c.Algo, c)
		}
		if c.Hosts < 200 || c.Members <= 0 || c.Members > c.Hosts {
			t.Fatalf("%s population implausible: %+v", c.Algo, c)
		}
	}
	static, expand, chord := r.Cells[0], r.Cells[1], r.Cells[2]
	if static.MsgsPerQuery != 0 || static.Events != 0 {
		t.Fatalf("static meridian priced wire traffic: %+v", static)
	}
	if expand.MsgsPerQuery <= 0 || expand.Events == 0 {
		t.Fatalf("expanding search priced no wire traffic: %+v", expand)
	}
	if chord.MsgsPerQuery <= 0 || chord.Events == 0 {
		t.Fatalf("chord priced no wire traffic: %+v", chord)
	}
	out := r.Render()
	for _, want := range []string{"meridian", "expanding", "chord", "cost/q", "events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall") || strings.Contains(out, "windows") || strings.Contains(out, "lane") {
		t.Fatal("Render leaked wall-clock or kernel-telemetry fields; they belong to RenderTiming only")
	}
	timing := r.RenderTiming()
	if !strings.Contains(timing, "ops/sec") {
		t.Fatalf("timing render missing throughput:\n%s", timing)
	}
	// The wire cells report the kernel's window telemetry; the static one
	// has no kernel.
	if static.Kernel != nil || expand.Kernel == nil || chord.Kernel == nil {
		t.Fatalf("kernel telemetry on the wrong cells: static %v expanding %v chord %v", static.Kernel, expand.Kernel, chord.Kernel)
	}
	if k := chord.Kernel; k.Windows == 0 || len(k.ShardEvents) != engine.Shards() || k.LaneEvents == 0 {
		t.Fatalf("chord kernel telemetry implausible: %+v", *k)
	}
	if !strings.Contains(timing, "events/win") || !strings.Contains(timing, "lane") {
		t.Fatalf("timing render missing the window telemetry:\n%s", timing)
	}
}

// TestScaleTopoConfigLandsNearTarget pins the generator calibration: the
// realised host count must stay within a modest band of the request, and
// the 10k-and-up classes must not undershoot (the study's claims name
// those populations).
func TestScaleTopoConfigLandsNearTarget(t *testing.T) {
	for _, target := range []int{1000, 10000} {
		top := netmodel.Generate(scaleTopoConfig(target), 1+int64(target))
		got := top.NumHosts()
		lo, hi := int(0.75*float64(target)), int(1.6*float64(target))
		if got < lo || got > hi {
			t.Fatalf("target %d generated %d hosts, outside [%d, %d]", target, got, lo, hi)
		}
		if target >= 10000 && got < target {
			t.Fatalf("target %d undershot: %d hosts", target, got)
		}
	}
}
