package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// profileHz is the traced pass's sampling rate. runtime/pprof starts at
// 100 Hz; setting the rate first keeps ours (the runtime prints a
// one-line "cannot set cpu profile rate" notice to stderr when
// StartCPUProfile then tries its default — harmless, and the price of not
// depending on anything outside the standard library).
const profileHz = 500

type runOpts struct {
	seed    int64
	seconds int
	traced  bool
	sz      *sizes
}

// usage is the process's resource use so far, from getrusage(2).
type usage struct {
	cpu       time.Duration // user + system
	maxRSSMiB float64
}

func rusage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return usage{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// runPass runs one workload once in this process: set-up (several times,
// for a median), then the measured phase (under the CPU profiler when
// traced), then the output checks. It never panics on a workload's
// account: a failed set-up or check comes back as Correct == false.
func runPass(w *workload, o runOpts) *pass {
	budget := time.Duration(o.seconds) * time.Second
	if o.sz.runLength > 0 {
		budget = o.sz.runLength
	}
	p := &pass{
		Workload: w.name, Seed: o.seed, Seconds: int(budget.Seconds()), Traced: o.traced, Smoke: o.sz.smoke,
		Correct: true, Metrics: metrics{}, Extra: metrics{},
	}
	fail := func(format string, args ...any) {
		p.Correct = false
		p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
	}

	// ---- set-up ----
	var inst instance
	var setups []float64
	setupReps := w.setupReps
	if o.sz.smoke {
		setupReps = 2
	}
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(o.seed, o.sz)
		if err != nil {
			fail("set-up: %v", err)
			return p
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	// ---- measured phase ----
	runtime.GC() // set-up garbage is not the measured phase's to collect
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if o.traced {
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fail("start CPU profile: %v", err)
			return p
		}
	}
	var walls, cpus []float64
	var last unit
	phase := time.Now()
	for {
		r0, t0 := rusage(), time.Now()
		u := inst.run(budget)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (rusage().cpu - r0.cpu).Seconds())
		p.Reps++
		p.Attempted += u.ops
		p.Failed += u.failed
		for _, e := range u.errs {
			fail("%s", e)
		}
		if p.Reps > 1 && u.fingerprint != last.fingerprint {
			fail("rep %d fingerprint %.12s differs from rep %d's %.12s: the workload is not deterministic in its seed",
				p.Reps, u.fingerprint, p.Reps-1, last.fingerprint)
		}
		last = u
		// One unit always runs; another only if it fits the run length.
		if !w.fixedWork || time.Since(phase).Seconds()+median(walls) > budget.Seconds() {
			break
		}
	}
	if o.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	end := rusage()

	wall, cpu := median(walls), median(cpus)
	opsPerRep := float64(p.Attempted-p.Failed) / float64(p.Reps)
	p.Fingerprint = last.fingerprint
	p.Samples = len(last.latUs)
	if p.Attempted < 1 {
		fail("no operation was attempted")
	}

	if !o.traced {
		p.Metrics.set("setup_s", median(setups), "s")
		p.Metrics.set("wall_s", wall, "s")
		p.Metrics.set("ops_per_s", opsPerRep/wall, "1/s")
		p.Metrics.set("cpu_s", cpu, "s")
		p.Metrics.set("peak_rss_mb", end.maxRSSMiB, "MB")
		// The boundary counts cost nothing to keep: the untraced pass
		// carries them as extras so one untraced report can be diffed
		// exactly against another.
		for name, m := range last.counts {
			p.Extra[name] = m
		}
	} else {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			fail("decode CPU profile: %v", err)
		}
		shares, ticks := cpuShares(samples)
		for _, d := range perLayer {
			p.Metrics.set(d.Name, 0, d.Unit) // a layer the path never touches reads 0
		}
		for l, s := range shares {
			p.Metrics.set(l, s, "share")
		}
		for name, m := range last.counts {
			p.Metrics[name] = m
		}
		p.Metrics.set("trace.wall_s", wall, "s")
		p.Metrics.set("trace.samples", float64(ticks), "count")
		if ev := p.Metrics["sim.events"].Value; ev > 0 {
			p.Metrics.set("sim.events_per_s", ev/wall, "1/s")
		}
		if hosts := p.Metrics["netmodel.hosts"].Value; hosts > 0 {
			p.Metrics.set("mem.bytes_per_host", end.maxRSSMiB*(1<<20)/hosts, "B")
		}
		p.Metrics.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(p.Reps)/1e6, "MB")
		p.Metrics.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/float64(p.Reps), "count")
		p.Metrics.set("engine.cpu_util", cpu/(wall*float64(nproc())), "share")
	}
	for name, m := range last.extra {
		p.Extra[name] = m
	}
	return p
}

// formatValue prints counts with all their digits and measurements with six
// significant ones.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// printPass writes a pass for people: every metric by name with its unit,
// then what the checks found.
func printPass(p *pass) {
	mode := "untraced"
	if p.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  %d rep(s)  %d/%d operations ok", p.Workload, p.Seed, mode, p.Reps, p.Attempted-p.Failed, p.Attempted)
	if p.Samples > 0 {
		fmt.Printf("  %d latency samples", p.Samples)
	}
	fmt.Println()
	if p.Workload == "live-udp-chord" {
		fmt.Println("   network: real UDP datagrams over the host's loopback interface (127.0.0.1), not a real link")
	}
	printMetrics(p.Metrics)
	printMetrics(p.Extra)
	if p.Fingerprint != "" {
		fmt.Printf("   %-36s %s\n", "fingerprint", p.Fingerprint)
	}
	for _, e := range p.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", p.Workload, e)
	}
}
