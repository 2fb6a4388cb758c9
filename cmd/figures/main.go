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

	list := experiments.Figures(scale, *seed)

	if *only != "" && !slices.ContainsFunc(list, func(f experiments.Figure) bool { return f.Name == *only }) {
		names := make([]string, len(list))
		for i, f := range list {
			names[i] = f.Name
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
	for _, f := range list {
		if *only != "" && f.Name != *only {
			continue
		}
		start := time.Now()
		text, timing := f.Run()
		fmt.Printf("==== %s (scale=%s, %v) ====\n%s\n", f.Name, scale, time.Since(start).Round(time.Millisecond), text)
		// A wall-clock view is printed to the terminal but never written to
		// the figure file: elapsed time is not deterministic, and figure
		// files must be byte-identical across -workers.
		if timing != "" {
			fmt.Println(timing)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, f.Name+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
