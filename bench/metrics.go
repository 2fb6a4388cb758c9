package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricDef is one metric of the benchmark contract as BENCHMARK.json
// states it. Bound is the share of the parent's median by which an
// end-to-end metric may get worse before a change counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them (the contract keeps one list for
// all workloads), so each is defined for a fixed-work batch and for the
// time-bounded live loop alike; README.md gives the definitions.
//
// The bounds are what the 2-core reference box supports, not a wish
// (README.md, "Steadiness"): back-to-back runs spread 2–4.5%, but the box
// itself drifts by up to 13% over a quarter of an hour, and the zoo's peak
// RSS moves 9% with GC timing. A bound tighter than that rejects changes
// at random; the paired method of README.md resolves smaller differences.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the traced pass's contract list: the CPU shares, the exact
// boundary counts and the live path's tail. A metric a workload's path
// never touches reads 0 there (sim.events on static-fig8, cpu.codec on the
// sims) — the bypass prediction, printed.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: l, Unit: "share", Better: "lower"})
	}
	return append(out,
		metricDef{Name: "trace.wall_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.samples", Unit: "count", Better: "higher"},
		metricDef{Name: "sim.events", Unit: "count", Better: "lower"},
		metricDef{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "p2p.msgs_sent", Unit: "count", Better: "lower"},
		metricDef{Name: "p2p.msgs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "p2p.timeouts", Unit: "count", Better: "lower"},
		metricDef{Name: "chord.hops_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "chord.get_ok", Unit: "share", Better: "higher"},
		metricDef{Name: "netmodel.hosts", Unit: "count", Better: "higher"},
		metricDef{Name: "mem.bytes_per_host", Unit: "B", Better: "lower"},
		metricDef{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "engine.cpu_util", Unit: "share", Better: "higher"},
		metricDef{Name: "zoo.slowest_row_share", Unit: "share", Better: "lower"},
		metricDef{Name: "live.msgs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "live.timeouts", Unit: "count", Better: "lower"},
		metricDef{Name: "live.msgs_dead", Unit: "count", Better: "lower"},
		metricDef{Name: "live.goroutines", Unit: "count", Better: "lower"},
		metricDef{Name: "live.op_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "live.op_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "live.op_p999_us", Unit: "us", Better: "lower"},
	)
}()

// exactMetrics are the per-layer counts that are a pure function of
// (workload, seed): -compare diffs them exactly, together with the
// fingerprint.
var exactMetrics = []string{
	"sim.events", "p2p.msgs_sent", "p2p.timeouts", "chord.hops_per_op", "chord.get_ok", "netmodel.hosts",
}

// metric is one measured value as the contract's result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name → value. set panics on a malformed name: names
// are compile-time strings plus scheme names, so a bad one is a bug here.
type metrics map[string]metric

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func (m metrics) set(name string, v float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("bench: metric name %q does not match %s", name, metricName))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// setPercentile records the p-th percentile of sorted latencies (µs). Too
// few samples is not a wrong output: the percentile is withheld — it reads
// 0 — and the reason, with the sample count, goes to the log.
func (m metrics) setPercentile(name string, sortedUs []float64, p float64) {
	v, err := percentile(sortedUs, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s withheld: %v\n", name, err)
	}
	m.set(name, v, "us")
}

func (m metrics) sortedNames() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass is one run of one workload: untraced (end-to-end metrics) or traced
// (per-layer metrics).
type pass struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Smoke    bool   `json:"smoke,omitempty"`
	// Correct is false when an output check failed; Errors says which.
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Reps is how many times the fixed unit of work ran in the measured
	// phase (1 for the time-bounded live loop); Samples how many
	// per-operation latencies back the live percentiles.
	Reps    int `json:"reps"`
	Samples int `json:"samples,omitempty"`
	// Fingerprint is a sha256 over the workload's deterministic outputs: a
	// change that moves a simulated statistic moves it.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Metrics holds the contract metrics of this pass; Extra what the
	// contract list has no room for (per-row wall times, derived ratios).
	Metrics metrics `json:"metrics"`
	Extra   metrics `json:"extra,omitempty"`
}

// resultLine is the last line of standard output the contract asks for.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the file one `go run . [-trace 1]` writes: every workload's
// passes plus the probes, with enough of the machine to read them by.
type report struct {
	Schema     string            `json:"schema"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	Machine    string            `json:"machine"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Workloads  []workloadResult  `json:"workloads"`
	Derived    metrics           `json:"derived,omitempty"`
	Probes     metrics           `json:"probes,omitempty"`
	Notes      map[string]string `json:"notes,omitempty"`
}

type workloadResult struct {
	Name     string `json:"name"`
	Untraced *pass  `json:"untraced,omitempty"`
	Traced   *pass  `json:"traced,omitempty"`
}

const reportSchema = "nearestpeer/bench/v1"

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
