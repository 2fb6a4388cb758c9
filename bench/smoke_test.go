package main

import (
	"math"
	"testing"
	"time"
)

// testSizes is -smoke with a shorter measured phase: the tests check that
// the drivers run, not how fast.
func testSizes() *sizes {
	sz := smokeSizes()
	sz.runLength = 250 * time.Millisecond
	return sz
}

// TestSmokeEveryWorkload drives every workload's driver at toy sizes, both
// passes, so a driver cannot rot unseen between full benchmark runs. It
// checks that the pass is correct and carries exactly the contract's
// metrics; it measures nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	sz := testSizes()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.name == "static-fig8" && testing.Short() {
				t.Skip("Fig8(Quick) has no smaller size: 8 s")
			}
			for _, traced := range []bool{false, true} {
				if traced && w.name == "static-fig8" {
					continue // a second 8 s for no new driver code
				}
				p := runPass(w, runOpts{seed: 3, seconds: 1, traced: traced, sz: sz})
				if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d errors=%v", traced, p.Correct, p.Attempted, p.Failed, p.Errors)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(p.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, the contract lists %d: %v", traced, len(p.Metrics), len(want), p.Metrics.sortedNames())
				}
				for _, d := range want {
					m, ok := p.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s missing", traced, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("traced=%v: %s in %q, the contract says %q", traced, d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("traced=%v: %s = %v", traced, d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, m.Value)
					}
				}
				if traced {
					sum := 0.0
					for _, l := range cpuLayers {
						sum += p.Metrics[l].Value
					}
					if p.Metrics["trace.samples"].Value > 0 && math.Abs(sum-1) > 0.01 {
						t.Errorf("cpu.* shares sum to %v", sum)
					}
				}
				if w.fixedWork && p.Fingerprint == "" {
					t.Errorf("traced=%v: no fingerprint", traced)
				}
			}
		})
	}
}

// TestSerialAndShardedAgree is the cross-workload check of a full run, at
// toy size: the sharded kernel must reproduce the serial trial.
func TestSerialAndShardedAgree(t *testing.T) {
	o := runOpts{seed: 5, seconds: 1, sz: testSizes()}
	rep := &report{Derived: metrics{}}
	for _, name := range []string{"sim-chord-10k", "sim-chord-10k-sharded"} {
		rep.Workloads = append(rep.Workloads, workloadResult{Name: name, Untraced: runPass(workloadByName(name), o)})
	}
	if errs := crossChecks(rep); len(errs) != 0 {
		t.Fatalf("cross checks: %v", errs)
	}
	if rep.Derived["sim.shard_speedup"].Value <= 0 {
		t.Errorf("sim.shard_speedup = %v", rep.Derived["sim.shard_speedup"])
	}
	rep.Workloads[1].Untraced.Fingerprint = "moved"
	if errs := crossChecks(rep); len(errs) != 1 || rep.Workloads[0].Untraced.Correct {
		t.Errorf("a fingerprint mismatch went unnoticed: %v", errs)
	}
}

func TestProbesSmoke(t *testing.T) {
	got := runProbes(smokeSizes())
	for _, name := range []string{
		"sim.event_ns", "sim.closure_event_ns",
		"netmodel.generate_us_per_host", "netmodel.price_ns", "netmodel.rtt_uncached_ns", "netmodel.rttcache_hit_ns",
		"latency.build_clustered_ms", "overlay.true_nearest_us",
		"p2p.send_deliver_ns", "p2p.send_deliver_allocs", "p2p.request_reply_ns", "p2p.request_timeout_ns", "p2p.multicast_copy_ns",
		"obs.send_deliver_ns", "faults.decide_ns",
		"codec.nil.encode_ns", "codec.nil.decode_ns", "codec.nil.frame_bytes", "codec.nil.allocs",
		"codec.small.encode_ns", "codec.kib.decode_ns", "codec.kib.frame_bytes",
		"udp.echo_per_s", "loopback.echo_per_s", "live.do_ns",
	} {
		m, ok := got[name]
		if !ok {
			t.Errorf("probe %s missing", name)
		} else if math.IsNaN(m.Value) || m.Value < 0 {
			t.Errorf("probe %s = %v", name, m.Value)
		}
	}
	if got["codec.kib.frame_bytes"].Value <= got["codec.nil.frame_bytes"].Value {
		t.Errorf("a KiB payload framed in %v bytes, an empty one in %v", got["codec.kib.frame_bytes"].Value, got["codec.nil.frame_bytes"].Value)
	}
}
