package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
)

// TestWireChordGolden pins RunWireChord's rows, kernel event counts
// included, on both kernels: the sharded ring at the scale study's knobs
// (identical at one and two shards), and the serial ring on a clustered
// matrix lossless, under 5% loss with churn, and under a link-fault burst
// that overlaps the op stream. Regenerate with -update, like the figure
// goldens.
func TestWireChordGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("wire chord rings are too heavy for -short")
	}
	var b strings.Builder

	top := shardTopo()
	ccfg, spacing, settle := scaleChordConfig(top.NumHosts())
	var sharded []WireChordRow
	for _, k := range []int{1, 2} {
		sharded = append(sharded, RunWireChord(nil, WireChordOpts{
			Ops: 12, Seed: 1,
			Chord: ccfg, JoinSpacing: spacing, Settle: settle,
			Horizon: 4 * time.Hour,
			Shards:  k, Top: top,
		}))
	}
	if sharded[0] != sharded[1] {
		t.Fatalf("sharded row differs between 1 and 2 shards:\n  k=1: %+v\n  k=2: %+v", sharded[0], sharded[1])
	}
	fmt.Fprintf(&b, "sharded, %d hosts: %+v\n", top.NumHosts(), sharded[0])

	cfg := latency.DefaultClusteredConfig()
	cfg.TotalPeers = 120
	m, _ := latency.NewClustered(cfg, 1)
	plan, err := faults.Parse("seed=7;burst:at=20s,for=2m,prob=0.4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts WireChordOpts
	}{
		{"serial, lossless", WireChordOpts{Ops: 20, Seed: 1}},
		{"serial, loss 5% + churn", WireChordOpts{Ops: 20, Loss: 0.05, Churn: true, Seed: 1}},
		{"serial, link-fault burst", WireChordOpts{Ops: 20, Seed: 1, Faults: plan}},
	} {
		fmt.Fprintf(&b, "%s: %+v\n", tc.name, RunWireChord(m, tc.opts))
	}
	checkGolden(t, "golden_wirechord.txt", b.String())
}
