// Command figures regenerates every table and figure of the paper, writing
// each to stdout and (with -out) to a results directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nearestpeer/internal/engine"
	"nearestpeer/internal/experiments"
)

// maxShards caps -shards: the sharded kernel and the runtime each keep a
// mailbox per (source, destination) shard pair, and shards beyond the host
// count's PoPs or the machine's cores buy nothing.
const maxShards = 256

func main() {
	full := flag.Bool("full", false, "run at the paper's full population sizes (slow)")
	seed := flag.Int64("seed", 1, "experiment seed")
	outDir := flag.String("out", "", "directory to write per-figure text files")
	only := flag.String("only", "", "run a single experiment (e.g. fig8, table1, a3, s1)")
	workers := flag.Int("workers", 0, "engine worker-pool width (0 = GOMAXPROCS); figures are byte-identical at any width")
	shards := flag.Int("shards", 1, "intra-trial kernel shards for the scale-study wire cells; figures are byte-identical at any count")
	flag.Parse()

	engine.SetWorkers(*workers)
	if *shards < 1 || *shards > maxShards {
		fmt.Fprintf(os.Stderr, "-shards %d outside [1, %d]\n", *shards, maxShards)
		os.Exit(2)
	}
	engine.SetShards(*shards)
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	type experiment struct {
		name string
		run  func() string
	}
	env := func() *experiments.Env { return experiments.SharedEnv(scale, *seed) }
	// s1's and v1's wall-clock views are printed to the terminal but never
	// written to the figure file: elapsed time is not deterministic, and
	// figure files must be byte-identical across -workers.
	var s1Timing, v1Timing, o1Timing, r1Timing, g1Timing string
	list := []experiment{
		{"table1", func() string { return experiments.Table1(env()).Render() }},
		{"fig3", func() string { return experiments.Fig3(env()).Render() }},
		{"fig4", func() string { return experiments.Fig4(env()).Render() }},
		{"fig5", func() string { return experiments.Fig5(env()).Render() }},
		{"fig6", func() string { return experiments.Fig6(env()).Render() }},
		{"fig7", func() string { return experiments.Fig7(env()).Render() }},
		{"fig8", func() string { return experiments.Fig8(scale, *seed).Render() }},
		{"fig9", func() string { return experiments.Fig9(scale, *seed).Render() }},
		{"fig10", func() string { return experiments.Fig10(env()).Render() }},
		{"fig11", func() string { return experiments.Fig11(env()).Render() }},
		{"a1", func() string { return experiments.AblationHypervolume(scale, *seed).Render() }},
		{"a2", func() string { return experiments.AblationBetaSweep(scale, *seed).Render() }},
		{"a3", func() string { return experiments.AblationAlgorithmComparison(scale, *seed).Render() }},
		{"a4", func() string { return experiments.AblationUCLDepth(scale, *seed).Render() }},
		{"a5", func() string { return experiments.AblationComposite(scale, *seed).Render() }},
		{"a6", func() string { return experiments.AblationRingSize(scale, *seed).Render() }},
		{"c1", func() string { return experiments.ChurnStudy(scale, *seed).Render() }},
		{"c2", func() string { return experiments.MitigationStudy(scale, *seed).Render() }},
		{"s1", func() string {
			r := experiments.ScaleStudy(scale, *seed)
			s1Timing = r.RenderTiming()
			return r.Render()
		}},
		{"v1", func() string {
			r := experiments.VivaldiStudy(scale, *seed)
			v1Timing = r.RenderTiming()
			return r.Render()
		}},
		{"o1", func() string {
			r := experiments.ObsStudy(scale, *seed)
			o1Timing = r.RenderTiming()
			return r.Render()
		}},
		{"r1", func() string {
			r := experiments.FaultStudy(scale, *seed)
			r1Timing = r.RenderTiming()
			return r.Render()
		}},
		{"g1", func() string {
			r := experiments.GrandStudy(scale, *seed)
			g1Timing = r.RenderTiming()
			return r.Render()
		}},
	}

	if *only != "" && !slices.ContainsFunc(list, func(e experiment) bool { return e.name == *only }) {
		names := make([]string, len(list))
		for i, e := range list {
			names[i] = e.name
		}
		fmt.Fprintf(os.Stderr, "-only %q: no such experiment (experiments: %s)\n", *only, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, e := range list {
		if *only != "" && e.name != *only {
			continue
		}
		start := time.Now()
		text := e.run()
		fmt.Printf("==== %s (scale=%s, %v) ====\n%s\n", e.name, scale, time.Since(start).Round(time.Millisecond), text)
		if e.name == "s1" && s1Timing != "" {
			fmt.Println(s1Timing)
		}
		if e.name == "v1" && v1Timing != "" {
			fmt.Println(v1Timing)
		}
		if e.name == "o1" && o1Timing != "" {
			fmt.Println(o1Timing)
		}
		if e.name == "r1" && r1Timing != "" {
			fmt.Println(r1Timing)
		}
		if e.name == "g1" && g1Timing != "" {
			fmt.Println(g1Timing)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, e.name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
