package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges side B (the change) against side A (the parent) on one
// metric, by the rule of the choosing-metrics guide: B is worse when its
// median is worse than A's by more than the bound; when A's own runs
// spread wider than the bound the comparison resolves nothing — unless
// every run of B reads better than every run of A.
func verdict(def metricDef, a, b []float64) (v string, rel float64) {
	ma, mb := median(a), median(b)
	// rel > 0 means B is worse, whichever direction is better.
	rel = (mb - ma) / math.Abs(ma)
	if def.Better == "higher" {
		rel = -rel
	}
	if ma == 0 || math.IsNaN(rel) {
		return verdictUnresolved, rel
	}
	if spread(a) > def.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (def.Better == "lower" && x >= y) || (def.Better == "higher" && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return verdictUnresolved, rel
		}
	}
	if rel > def.Bound {
		return verdictWorse, rel
	}
	return verdictOK, rel
}

// compareFiles compares the untraced passes of two sets of result files
// (one file each is enough for a verdict; the paired method of README.md
// wants ten) and diffs, exactly, what must repeat exactly for a seed. It
// returns the exit code: 0, or 1 when any metric is worse, more operations
// failed, or a deterministic count or fingerprint moved.
func compareFiles(w io.Writer, aFiles, bFiles []string) int {
	load := func(files []string) ([]*report, error) {
		var out []*report
		for _, f := range files {
			var r report
			if err := readJSON(f, &r); err != nil {
				return nil, err
			}
			if r.Schema != reportSchema {
				return nil, fmt.Errorf("%s: schema %q, want %q", f, r.Schema, reportSchema)
			}
			out = append(out, &r)
		}
		return out, nil
	}
	as, errA := load(aFiles)
	bs, errB := load(bFiles)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(w, "bench: compare:", err)
		return 2
	}
	return compareReports(w, as, bs)
}

func compareReports(w io.Writer, as, bs []*report) int {
	passes := func(rs []*report, name string) (out []*pass) {
		for _, r := range rs {
			for _, wr := range r.Workloads {
				if wr.Name == name && wr.Untraced != nil {
					out = append(out, wr.Untraced)
				}
			}
		}
		return out
	}
	values := func(ps []*pass, name string) (out []float64) {
		for _, p := range ps {
			if m, ok := p.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	failFrac := func(ps []*pass) float64 {
		att, failed := 0, 0
		for _, p := range ps {
			att += p.Attempted
			failed += p.Failed
		}
		if att == 0 {
			return 1
		}
		return float64(failed) / float64(att)
	}

	bad := false
	fmt.Fprintf(w, "%-24s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "bound", "verdict")
	for _, wl := range workloads {
		pa, pb := passes(as, wl.name), passes(bs, wl.name)
		if len(pa) == 0 || len(pb) == 0 {
			fmt.Fprintf(w, "%-24s missing on one side (A has %d runs, B %d)\n", wl.name, len(pa), len(pb))
			bad = true
			continue
		}
		for _, def := range endToEnd {
			va, vb := values(pa, def.Name), values(pb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-24s %-12s missing on one side\n", wl.name, def.Name)
				bad = true
				continue
			}
			v, rel := verdict(def, va, vb)
			if v == verdictWorse {
				bad = true
			}
			fmt.Fprintf(w, "%-24s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				wl.name, def.Name, median(va), median(vb), 100*rel, 100*def.Bound, v)
		}
		if fa, fb := failFrac(pa), failFrac(pb); fb > fa {
			fmt.Fprintf(w, "%-24s %-12s %14.6g %14.6g  more operations fail: worse\n", wl.name, "fail_frac", fa, fb)
			bad = true
		}
		for _, p := range pb {
			if !p.Correct {
				fmt.Fprintf(w, "%-24s B failed its output checks: %v\n", wl.name, p.Errors)
				bad = true
			}
		}
		// Deterministic outputs: compare runs of equal seed and size.
		for _, x := range pa {
			for _, y := range pb {
				if x.Seed != y.Seed || x.Smoke != y.Smoke {
					continue
				}
				if x.Fingerprint != y.Fingerprint {
					fmt.Fprintf(w, "%-24s seed %d fingerprint differs: %.16s vs %.16s\n", wl.name, x.Seed, x.Fingerprint, y.Fingerprint)
					bad = true
				}
				for _, name := range exactMetrics {
					mx, okx := x.Extra[name]
					my, oky := y.Extra[name]
					// live-udp-chord runs on wall-clock timers: its counts are not a function of the seed.
					if okx && oky && mx.Value != my.Value && wl.fixedWork {
						fmt.Fprintf(w, "%-24s seed %d %s differs: %v vs %v\n", wl.name, x.Seed, name, mx.Value, my.Value)
						bad = true
					}
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
