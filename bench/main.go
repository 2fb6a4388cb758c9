// Command bench is the repository's benchmark: five workloads over the
// simulator, the static simulation and the live UDP path, each measured end
// to end with tracing off and, in a separate traced pass, attributed to the
// repository's layers from a CPU profile. README.md in this directory
// defines every workload and metric; BENCHMARK.json at the repository root
// is the contract the numbers are judged by.
//
// Usage (from the repository root):
//
//	go run -C bench .                      every workload, untraced; writes results/latest.json
//	go run -C bench . -trace 1             … plus the traced pass and the probes
//	go run -C bench . -workload NAME       one workload, in this process
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -smoke               every driver at toy sizes
//
// With -workload the last line of standard output is the contract's result
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const probesName = "probes"

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (one of BENCHMARK.json's, or \"probes\"); default: every workload, each in its own child process")
		seed         = flag.Int64("seed", 1, "seed every input is made from")
		seconds      = flag.Int("seconds", 12, "run length: the live loop runs this long, a fixed-work unit repeats while it fits")
		trace        = flag.Int("trace", 0, "1: run under the CPU profiler and report the per-layer metrics instead of the end-to-end ones")
		out          = flag.String("out", "", "write the full result as JSON here (default with no -workload: results/latest.json)")
		compare      = flag.Bool("compare", false, "compare two result files (or two comma-separated lists of them): -compare A.json B.json")
		smoke        = flag.Bool("smoke", false, "toy sizes and a 1 s run: checks that every driver still runs, measures nothing")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files: -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, sz: fullSizes()}
	if *smoke {
		o.sz = smokeSizes()
	}

	switch {
	case *workloadName == probesName:
		probes := runProbes(o.sz)
		printMetrics(probes)
		if *out != "" {
			must(writeJSON(*out, probes))
		}
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		p := runPass(w, o)
		printPass(p)
		if *out != "" {
			must(writeJSON(*out, p))
		}
		line, err := json.Marshal(resultLine{Correct: p.Correct, Attempted: p.Attempted, Failed: p.Failed, Metrics: p.Metrics})
		must(err)
		fmt.Println(string(line))
		if !p.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			*out = filepath.Join("results", "latest.json")
		}
		os.Exit(runAll(o, *smoke, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// runAll runs every workload, each pass in its own child process so that
// peak_rss_mb and cpu_s are that workload's alone, then the cross-workload
// checks, and writes the report. It returns the process's exit code.
func runAll(o runOpts, smoke bool, outPath string) int {
	self, err := os.Executable()
	must(err)
	must(os.MkdirAll(filepath.Dir(outPath), 0o755))
	scratch, err := os.MkdirTemp(filepath.Dir(outPath), ".bench-*")
	must(err)
	defer os.RemoveAll(scratch)

	child := func(name string, traced bool, into any) bool {
		file := filepath.Join(scratch, "pass.json")
		args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", file}
		if traced {
			args = append(args, "-trace", "1")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		// The child's report without its machine-readable last line.
		if i := strings.LastIndexByte(strings.TrimRight(string(stdout), "\n"), '\n'); i >= 0 && name != probesName {
			stdout = stdout[:i+1]
		}
		os.Stdout.Write(stdout)
		if err := readJSON(file, into); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: child left no result (%v; %v)\n", name, runErr, err)
			return false
		}
		return runErr == nil
	}

	rep := &report{
		Schema: reportSchema, Commit: gitCommit(), GoVersion: runtime.Version(),
		Machine: machine(), NProc: runtime.NumCPU(), GOMAXPROCS: nproc(),
		Seed: o.seed, Seconds: o.seconds, Derived: metrics{},
		Notes: map[string]string{
			"network": "live-udp-chord sends real UDP datagrams over the host's loopback interface (127.0.0.1), not a real link",
		},
	}
	ok := true
	for i := range workloads {
		wr := workloadResult{Name: workloads[i].name, Untraced: &pass{}}
		ok = child(wr.Name, false, wr.Untraced) && ok
		if o.traced {
			wr.Traced = &pass{}
			ok = child(wr.Name, true, wr.Traced) && ok
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if o.traced {
		rep.Probes = metrics{}
		ok = child(probesName, false, &rep.Probes) && ok
	}
	for _, e := range crossChecks(rep) {
		ok = false
		fmt.Fprintf(os.Stderr, "bench: CHECK FAILED: %s\n", e)
	}
	fmt.Println("== derived")
	printMetrics(rep.Derived)
	must(writeJSON(outPath, rep))
	fmt.Println("wrote", outPath)
	if !ok {
		return 1
	}
	return 0
}

// crossChecks fills the report's derived metrics — the ones that need two
// passes or two workloads — and returns the cross-workload checks that
// failed.
func crossChecks(rep *report) (errs []string) {
	byName := map[string]workloadResult{}
	for _, w := range rep.Workloads {
		byName[w.Name] = w
		if w.Traced != nil && w.Untraced != nil && w.Untraced.Metrics["wall_s"].Value > 0 {
			// Traced against untraced wall time is what tracing costs.
			over := w.Traced.Metrics["trace.wall_s"].Value/w.Untraced.Metrics["wall_s"].Value - 1
			rep.Derived.set(w.Name+".trace.overhead_frac", over, "share")
		}
	}
	serial, sharded := byName["sim-chord-10k"].Untraced, byName["sim-chord-10k-sharded"].Untraced
	if serial != nil && sharded != nil && sharded.Metrics["wall_s"].Value > 0 {
		rep.Derived.set("sim.shard_speedup", serial.Metrics["wall_s"].Value/sharded.Metrics["wall_s"].Value, "x")
		// The sharded kernel's contract: the same trial at any shard count.
		if serial.Fingerprint != sharded.Fingerprint ||
			serial.Extra["sim.events"].Value != sharded.Extra["sim.events"].Value {
			for _, p := range []*pass{serial, sharded} {
				p.Correct = false
				p.Errors = append(p.Errors, "serial and sharded trials differ")
			}
			errs = append(errs, fmt.Sprintf("sim-chord-10k and sim-chord-10k-sharded differ: events %v vs %v, fingerprint %.12s vs %.12s",
				serial.Extra["sim.events"].Value, sharded.Extra["sim.events"].Value, serial.Fingerprint, sharded.Fingerprint))
		}
	}
	for _, w := range rep.Workloads {
		if w.Traced == nil {
			continue
		}
		sum := 0.0
		for _, l := range cpuLayers {
			sum += w.Traced.Metrics[l].Value
		}
		if sum < 0.99 || sum > 1.01 {
			errs = append(errs, fmt.Sprintf("%s: cpu.* shares sum to %.4f, want 1 ± 0.01", w.Name, sum))
		}
	}
	return errs
}

func printMetrics(m metrics) {
	for _, name := range m.sortedNames() {
		fmt.Printf("   %-36s %16s %s\n", name, formatValue(m[name].Value), m[name].Unit)
	}
}

// gitCommit names the commit the numbers belong to; outside a git checkout
// (the benchmark driver's, for one) it is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--", "..").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

// machine describes the host: CPU model from /proc/cpuinfo where there is
// one, the platform otherwise.
func machine() string {
	desc := runtime.GOOS + "/" + runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return desc + " " + strings.TrimSpace(v)
			}
		}
	}
	return desc
}
