package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	wide := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, verdictOK},
		{"5% slower, inside the bound", lower, tight, scale(tight, 1.05), verdictOK},
		{"20% slower", lower, tight, scale(tight, 1.2), verdictWorse},
		{"20% faster", lower, tight, scale(tight, 0.8), verdictOK},
		{"20% fewer ops/s", higher, tight, scale(tight, 0.8), verdictWorse},
		{"20% more ops/s", higher, tight, scale(tight, 1.2), verdictOK},
		{"parent too noisy to say", lower, wide, scale(wide, 1.05), verdictUnresolved},
		{"parent noisy, change worse in the median", lower, wide, scale(wide, 1.2), verdictUnresolved},
		{"parent noisy but every run of the change beats every run of the parent", lower, wide, scale(tight, 0.5), verdictOK},
		{"single runs", lower, []float64{10}, []float64{11.5}, verdictWorse},
		{"parent reads zero", lower, []float64{0}, []float64{1}, verdictUnresolved},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// syntheticReport builds a report whose every workload reads the same
// end-to-end values, scaled by f in the "worse" direction of each metric.
func syntheticReport(f float64) *report {
	r := &report{Schema: reportSchema, Seed: 1, Seconds: 12}
	for _, w := range workloads {
		p := &pass{Workload: w.name, Seed: 1, Seconds: 12, Correct: true, Attempted: 100, Reps: 1,
			Fingerprint: "abc", Metrics: metrics{}, Extra: metrics{}}
		for _, d := range endToEnd {
			v := 10 * f
			if d.Better == "higher" {
				v = 10 / f
			}
			p.Metrics.set(d.Name, v, d.Unit)
		}
		p.Extra.set("sim.events", 1000, "count")
		r.Workloads = append(r.Workloads, workloadResult{Name: w.name, Untraced: p})
	}
	return r
}

func TestCompareReports(t *testing.T) {
	base := syntheticReport(1)
	var out strings.Builder
	if code := compareReports(&out, []*report{base}, []*report{syntheticReport(1.02)}); code != 0 {
		t.Errorf("2%% worse everywhere exits %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) {
		t.Errorf("2%% worse printed a worse verdict:\n%s", out.String())
	}

	out.Reset()
	if code := compareReports(&out, []*report{base}, []*report{syntheticReport(1.5)}); code != 1 {
		t.Errorf("50%% worse everywhere exits %d", code)
	}
	if n := strings.Count(out.String(), verdictWorse); n != len(workloads)*len(endToEnd) {
		t.Errorf("50%% worse everywhere marks %d of %d pairs worse:\n%s", n, len(workloads)*len(endToEnd), out.String())
	}

	// More failed operations is worse even when every timing holds.
	failing := syntheticReport(1)
	failing.Workloads[0].Untraced.Failed = 1
	out.Reset()
	if code := compareReports(&out, []*report{base}, []*report{failing}); code != 1 || !strings.Contains(out.String(), "fail_frac") {
		t.Errorf("a higher fail_frac exits %d:\n%s", code, out.String())
	}

	// A simulated statistic that moved is reported, exactly.
	moved := syntheticReport(1)
	moved.Workloads[0].Untraced.Fingerprint = "abd"
	moved.Workloads[1].Untraced.Extra.set("sim.events", 1001, "count")
	out.Reset()
	if code := compareReports(&out, []*report{base}, []*report{moved}); code != 1 ||
		!strings.Contains(out.String(), "fingerprint differs") || !strings.Contains(out.String(), "sim.events differs") {
		t.Errorf("moved counts exit %d:\n%s", code, out.String())
	}

	// …but only between runs of the same seed.
	otherSeed := syntheticReport(1)
	for _, w := range otherSeed.Workloads {
		w.Untraced.Seed = 2
		w.Untraced.Fingerprint = "xyz"
	}
	out.Reset()
	if code := compareReports(&out, []*report{base}, []*report{otherSeed}); code != 0 {
		t.Errorf("different seeds were diffed exactly (exit %d):\n%s", code, out.String())
	}

	missing := syntheticReport(1)
	missing.Workloads = missing.Workloads[1:]
	out.Reset()
	if code := compareReports(&out, []*report{base}, []*report{missing}); code != 1 {
		t.Errorf("a missing workload exits %d", code)
	}
}

func TestCompareFilesAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	ra := syntheticReport(1)
	ra.Probes = metrics{"sim.event_ns": {Value: 41.5, Unit: "ns"}}
	ra.Derived = metrics{"sim.shard_speedup": {Value: 0.87, Unit: "x"}}
	if err := writeJSON(a, ra); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, syntheticReport(1.5)); err != nil {
		t.Fatal(err)
	}
	var back report
	if err := readJSON(a, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, ra) {
		t.Errorf("report did not survive the round trip:\n got %+v\nwant %+v", &back, ra)
	}
	var out strings.Builder
	if code := compareFiles(&out, []string{a}, []string{a}); code != 0 {
		t.Errorf("a file against itself exits %d:\n%s", code, out.String())
	}
	if code := compareFiles(&out, []string{a, a}, []string{b, b}); code != 1 {
		t.Errorf("50%% worse exits %d", code)
	}
	if code := compareFiles(&out, []string{a}, []string{filepath.Join(dir, "absent.json")}); code != 2 {
		t.Errorf("an absent file exits %d", code)
	}
	if err := os.WriteFile(b, []byte(`{"schema":"something/else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(&out, []string{a}, []string{b}); code != 2 {
		t.Errorf("a foreign schema exits %d", code)
	}
}

// TestResultLine pins the contract's last line: exactly four keys, each
// metric a {value, unit} pair.
func TestResultLine(t *testing.T) {
	m := metrics{}
	m.set("wall_s", 10.4739, "s")
	line, err := json.Marshal(resultLine{Correct: true, Attempted: 50, Failed: 0, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":50,"failed":0,"metrics":{"wall_s":{"value":10.4739,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("result line\n got %s\nwant %s", line, want)
	}
}

func TestMetricNames(t *testing.T) {
	m := metrics{}
	for _, bad := range []string{"", "has space", "slash/name", ".leading", "ünï", strings.Repeat("x", 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q was accepted", bad)
				}
			}()
			m.set(bad, 1, "s")
		}()
	}
	for _, good := range []string{"wall_s", "cpu.go_map", "zoo.ucl.wall_ms", "codec.kib.encode_ns", "sim-chord-10k.trace.overhead_frac"} {
		m.set(good, 1, "s")
	}
}

// TestBenchmarkJSON keeps the contract file and the tables in this package
// the same list: BENCHMARK.json is what the driver reads, the tables are
// what the code reports and -compare judges by.
func TestBenchmarkJSON(t *testing.T) {
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer\n got %+v\nwant %+v", contract.PerLayer, perLayer)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, got.Name, w.name)
		} else if n := len([]rune(got.Why)); n == 0 || n > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 1 to 200", w.name, n)
		}
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "bench" {
		t.Errorf("paths = %v", contract.Paths)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
}
