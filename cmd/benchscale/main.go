// Command benchscale runs the repository's hot-path smoke benchmarks
// programmatically (testing.Benchmark — no `go test` harness needed) and
// emits a machine-readable BENCH_scale.json so the performance trajectory
// of the wire hot path is tracked run over run. CI runs it as a smoke
// step; the JSON is the artifact a regression diff reads.
//
// The suite is intentionally small and fixed, and every workload is the
// shared body from internal/benchhot — the same code the per-package
// `go test -bench` benchmarks of the same names run, so the CI numbers
// and local bench runs stay comparable by construction: the send→deliver
// path bare and with the observability layer attached, a multicast round
// and a Vivaldi gossip round (all with their
// zero-allocs-per-op claims), the netmodel pricing fast path and pair
// cache, the kernel's typed-event loop, the static Meridian ring selection
// and overlay build (the paper's Section 4 path, which no wire row
// reaches), and the 1k-host slice of the s1 scale study with its
// events/sec throughput.
//
// Usage:
//
//	benchscale [-out BENCH_scale.json] [-benchtime 1s] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"testing"
	"time"

	"nearestpeer/internal/benchhot"
	"nearestpeer/internal/engine"
	"nearestpeer/internal/experiments"
	"nearestpeer/internal/netmodel"
)

// Row is one benchmark's result in the JSON output.
type Row struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is kernel events executed per wall-clock second, the
	// simulator's headline throughput. Only the scale-study row fills it.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Windows and EventsPerWindow are the sharded kernel's own telemetry for
	// one op of a scale-study row (sim.ShardedStats summed over the wire
	// cells): how many lock-step windows the run took and how much work each
	// carried — the quantity a window barrier's cost is measured against.
	Windows         uint64  `json:"windows,omitempty"`
	EventsPerWindow float64 `json:"events_per_window,omitempty"`
	// ShardSpeedup is the single-shard row's wall per op over this row's.
	// Only the multi-shard scale-study row fills it; read it against
	// gomaxprocs (at 1 it is the sharding overhead, not a speedup).
	ShardSpeedup float64 `json:"shard_speedup,omitempty"`
	N            int     `json:"n"`
}

// Output is the BENCH_scale.json schema.
type Output struct {
	// Schema names the layout so downstream tooling can evolve with it.
	Schema string `json:"schema"`
	// GOMAXPROCS records the parallelism the suite actually had: the sharded
	// scale rows measure real speedup only when it exceeds the shard count
	// (on a 1-CPU runner they measure the sharding overhead instead, which
	// is worth tracking too — honestly labelled).
	GOMAXPROCS int   `json:"gomaxprocs"`
	Rows       []Row `json:"rows"`
}

func rowOf(name string, r testing.BenchmarkResult) Row {
	return Row{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}

func main() {
	testing.Init() // registers test.* flags so -benchtime can be plumbed
	out := flag.String("out", "BENCH_scale.json", "output file")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per benchmark")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the suite) to this file")
	flag.Parse()
	if f := flag.Lookup("test.benchtime"); f != nil {
		_ = f.Value.Set(benchtime.String())
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchscale:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchscale:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchscale:", err)
				return
			}
			defer f.Close()
			goruntime.GC() // settle the heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchscale:", err)
			}
		}()
	}

	var rows []Row
	run := func(name string, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		row := rowOf(name, res)
		rows = append(rows, row)
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op\n",
			name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}

	top := netmodel.Generate(netmodel.DefaultConfig(), 1)
	run("send_deliver", benchhot.SendDeliver)
	run("obs_send_deliver", benchhot.ObsSendDeliver)
	run("request_reply", benchhot.RequestReply)
	run("multicast_round", benchhot.MulticastRound)
	run("vivaldi_gossip_round", benchhot.VivaldiGossipRound)
	run("tree_one_way_ms", func(b *testing.B) { benchhot.TreeOneWayMs(b, top) })
	run("rtt_cache_hit", func(b *testing.B) { benchhot.RTTCacheHit(b, top) })
	run("kernel_handler_cascade", benchhot.KernelHandlerCascade)
	run("meridian_select", benchhot.MeridianSelect)
	run("meridian_build", benchhot.MeridianBuild)

	// The s1 smoke slice: 1k hosts, all three algorithms, at kernel shard
	// counts 1 and 4. events/sec is kernel events executed per wall second
	// across the wire cells. The two rows are the sharded kernel's
	// throughput trajectory; the figures they produce are byte-identical
	// (the determinism tests pin that), so any delta is pure wall-clock.
	s1Smoke := func(name string, shards int) Row {
		prev := engine.SetShards(shards)
		defer engine.SetShards(prev)
		// testing.Benchmark calls the body more than once while it sizes
		// b.N; the accumulators span every call, so per-op figures divide
		// by their own op count, not by the last call's N.
		var events, windows, ops uint64
		var elapsed time.Duration
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				r := experiments.ScaleStudyAt([]int{1000}, 20, 1)
				elapsed += time.Since(start)
				ops++
				for _, c := range r.Cells {
					events += c.Events
					if c.Kernel != nil {
						windows += c.Kernel.Windows
					}
				}
			}
		})
		row := rowOf(name, res)
		if elapsed > 0 {
			row.EventsPerSec = float64(events) / elapsed.Seconds()
		}
		if windows > 0 {
			row.Windows = windows / ops
			row.EventsPerWindow = float64(events) / float64(windows)
		}
		return row
	}
	sh1 := s1Smoke("scale_study_smoke_1k", 1)
	sh4 := s1Smoke("scale_study_smoke_1k_sh4", 4)
	sh4.ShardSpeedup = sh1.NsPerOp / sh4.NsPerOp
	for _, row := range []Row{sh1, sh4} {
		rows = append(rows, row)
		fmt.Printf("%-28s %12.1f ns/op %12.0f events/sec %8d windows %6.1f events/window\n",
			row.Name, row.NsPerOp, row.EventsPerSec, row.Windows, row.EventsPerWindow)
	}
	fmt.Printf("%-28s %12.2f x at gomaxprocs %d\n", "shard_speedup (sh4 vs sh1)", sh4.ShardSpeedup, goruntime.GOMAXPROCS(0))

	data, err := json.MarshalIndent(Output{
		Schema:     "nearestpeer/bench_scale/v1",
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Rows:       rows,
	}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchscale:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchscale:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
