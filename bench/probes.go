package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/netmodel"
	"nearestpeer/internal/obs"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
)

// Probes time calls into each layer's public functions, one layer at a
// time. They are the floor under the workloads: a layer's probe says what
// one of its operations costs alone, its cpu.* share says how much of a
// whole trial that adds up to. No end-to-end workload attaches obs or a
// fault plan, so obs.* and faults.* are probe-only numbers.

// probeBatch is the target length of one timing batch (sizes.probeBatch).
var probeBatch time.Duration

// nsPerOp times fn in batches sized to probeBatch and returns the median
// batch's cost per call in nanoseconds.
func nsPerOp(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= probeBatch/4 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	var batches []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// Payloads the codec probes frame: bench registers its own so the probe
// does not depend on any protocol's message set.
type (
	probeSmall struct {
		Seq int
		Key string
	}
	probeKiB struct{ Data []byte }
)

func init() {
	p2p.RegisterPayload("bench_small", probeSmall{})
	p2p.RegisterPayload("bench_kib", probeKiB{})
}

// lineMatrix is rtt(i,j) = scale·|i-j| ms: scale 10 is the shape the
// repository's transport benchmarks price against, scale 0 a zero-RTT
// matrix that leaves only the transport's own cost.
func lineMatrix(n int, scale float64) *latency.Dense {
	m := latency.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, scale*float64(j-i))
		}
	}
	return m
}

func runProbes(sz *sizes) metrics {
	probeBatch = sz.probeBatch
	out := metrics{}
	probeSim(out)
	probeNetmodel(out, sz)
	probeStatic(out)
	probeRuntime(out)
	probeCodec(out)
	probeLive(out, sz)
	return out
}

// probeSim times the kernel's schedule→run loop with 10,000 events parked
// in the heap, so every push and pop sifts through ~13 levels as it does in
// a large trial.
func probeSim(out metrics) {
	const deep = 10000
	const far = time.Hour
	park := func(s *sim.Sim) {
		noop := s.RegisterHandler(func(uint64) {})
		for i := 0; i < deep; i++ {
			s.AtHandler(far+time.Duration(i), noop, 0)
		}
	}
	s := sim.New()
	park(s)
	h := s.RegisterHandler(func(uint64) {})
	out.set("sim.event_ns", nsPerOp(func() {
		s.AfterHandler(time.Microsecond, h, 1)
		s.RunUntil(s.Now() + time.Microsecond)
	}), "ns")

	c := sim.New()
	park(c)
	fn := func() {}
	out.set("sim.closure_event_ns", nsPerOp(func() {
		c.After(time.Microsecond, fn)
		c.RunUntil(c.Now() + time.Microsecond)
	}), "ns")
}

func probeNetmodel(out metrics, sz *sizes) {
	start := time.Now()
	top := netmodel.Generate(sz.chordTopo, sz.chordTopoSeed)
	n := top.NumHosts()
	out.set("netmodel.generate_us_per_host", float64(time.Since(start).Microseconds())/float64(n), "us")
	i := 0
	pair := func() (netmodel.HostID, netmodel.HostID) {
		i++
		return netmodel.HostID(i % n), netmodel.HostID((i*7 + 3) % n)
	}
	var sink float64
	out.set("netmodel.price_ns", nsPerOp(func() { a, b := pair(); sink += top.TreeOneWayMs(a, b) }), "ns")
	out.set("netmodel.rtt_uncached_ns", nsPerOp(func() { a, b := pair(); sink += top.RTTms(a, b) }), "ns")
	cache := netmodel.NewRTTCache(top, 0)
	cache.RTTms(0, netmodel.HostID(n/2))
	out.set("netmodel.rttcache_hit_ns", nsPerOp(func() { sink += cache.RTTms(0, netmodel.HostID(n/2)) }), "ns")
	_ = sink
}

func probeStatic(out metrics) {
	cfg := latency.DefaultClusteredConfig()
	cfg.ENsPerCluster = 25
	cfg.TotalPeers = fig8Peers
	cfg.Delta = 0.2
	var m *latency.Dense
	out.set("latency.build_clustered_ms", nsPerOp(func() { m, _ = latency.BuildClustered(cfg, 1) })/1e6, "ms")
	members, targets := overlay.Split(m.N(), 60, 2)
	i := 0
	out.set("overlay.true_nearest_us", nsPerOp(func() {
		i++
		overlay.TrueNearest(m, targets[i%len(targets)], members)
	})/1e3, "us")
}

// probeRuntime prices the simulated transport's message paths, each as one
// schedule-and-drain of the kernel.
func probeRuntime(out metrics) {
	newRT := func() (*sim.Sim, *p2p.Runtime, *p2p.Node) {
		kernel := sim.New()
		rt := p2p.New(kernel, lineMatrix(4, 10), p2p.Config{RPCTimeout: time.Second}, 1)
		a := rt.AddNode(0)
		rt.AddNode(1).Handle("noop", func(*p2p.Node, p2p.Envelope) {})
		rt.Node(1).Handle("echo", func(n *p2p.Node, env p2p.Envelope) { n.Reply(env, "echo_ok", nil) })
		return kernel, rt, a
	}

	kernel, _, a := newRT()
	send := func() { a.Send(1, "noop", nil); kernel.Run() }
	send()
	out.set("p2p.send_deliver_ns", nsPerOp(send), "ns")
	out.set("p2p.send_deliver_allocs", testing.AllocsPerRun(1000, send), "count")
	onReply := func(p2p.Envelope) {}
	out.set("p2p.request_reply_ns", nsPerOp(func() {
		a.Request(1, "echo", nil, time.Second, onReply, nil)
		kernel.Run()
	}), "ns")

	// A request to a stopped peer: delivered to a dead inbox, expired by
	// the timeout slab — the path the adverse zoo rows take 300k times.
	kernel, rt, a := newRT()
	rt.Node(1).Stop()
	onTimeout := func() {}
	out.set("p2p.request_timeout_ns", nsPerOp(func() {
		a.Request(1, "echo", nil, time.Second, onReply, onTimeout)
		kernel.Run()
	}), "ns")

	// One multicast round from a warm sender index; per copy delivered.
	const members = 1024
	mk := sim.New()
	mrt := p2p.New(mk, lineMatrix(members+1, 10), p2p.Config{RPCTimeout: time.Second}, 1)
	for i := 1; i <= members; i++ {
		mrt.AddNode(p2p.NodeID(i)).Handle("mc", func(*p2p.Node, p2p.Envelope) {})
		mrt.JoinGroup("g", p2p.NodeID(i))
	}
	mrt.AddNode(0)
	copies := mrt.Multicast(0, "g", "mc", nil, 160)
	mk.Run()
	if copies > 0 {
		out.set("p2p.multicast_copy_ns", nsPerOp(func() {
			mrt.Multicast(0, "g", "mc", nil, 160)
			mk.Run()
		})/float64(copies), "ns")
	}

	// The same send→deliver with the metrics registry and the flight
	// recorder attached and written to: what observability costs.
	kernel, rt, a = newRT()
	reg := obs.NewRegistry(4)
	rt.EnableObs(reg)
	rec := obs.NewRecorder(64)
	rt.AttachRecorder(rec)
	obsSend := func() {
		a.Send(1, "noop", nil)
		rec.Record(obs.Hop{Scheme: "bench", Type: "noop", To: 1, RTTms: 1})
		reg.ObserveLookupMs(10)
		kernel.Run()
	}
	for i := 0; i < 128; i++ { // past one recorder wrap: reuse, not growth
		obsSend()
	}
	out.set("obs.send_deliver_ns", nsPerOp(obsSend), "ns")

	plan, err := faults.Parse("seed=7;burst:at=0s,for=1h,prob=0.3")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: faults.decide_ns skipped:", err)
		return
	}
	i := 0
	out.set("faults.decide_ns", nsPerOp(func() {
		i++
		plan.Decide(i&1023, (i*7+3)&1023, time.Duration(i)*time.Millisecond)
	}), "ns")
}

// probeCodec frames three payload sizes: none (the ping frame, the
// smallest on the wire), a small struct, and a KiB of bytes.
func probeCodec(out metrics) {
	for _, c := range []struct {
		name    string
		payload any
	}{
		{"nil", nil},
		{"small", probeSmall{Seq: 42, Key: "bench/1/17"}},
		{"kib", probeKiB{Data: make([]byte, 1024)}},
	} {
		env := p2p.Envelope{Type: "bench", From: 1, To: 2, MsgID: 1 << 40, Payload: c.payload}
		frame, err := p2p.EncodeEnvelope(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: codec.%s skipped: %v\n", c.name, err)
			continue
		}
		encode := func() { _, _ = p2p.EncodeEnvelope(env) }
		decode := func() { _, _ = p2p.DecodeEnvelope(frame) }
		prefix := "codec." + c.name + "."
		out.set(prefix+"encode_ns", nsPerOp(encode), "ns")
		out.set(prefix+"decode_ns", nsPerOp(decode), "ns")
		out.set(prefix+"frame_bytes", float64(len(frame)), "B")
		out.set(prefix+"allocs", testing.AllocsPerRun(200, encode)+testing.AllocsPerRun(200, decode), "count")
	}
}

// pinger is the part of a live transport an echo loop needs.
type pinger interface {
	Do(func())
	Node(p2p.NodeID) *p2p.Node
}

// echoLoop runs nproc closed-loop clients pinging node 1 from node 0 for d
// and returns the round trips per second and their sorted latencies (µs).
func echoLoop(t pinger, d time.Duration) (perSec float64, latUs []float64) {
	clients := nproc()
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			done := make(chan bool, 1)
			for time.Now().Before(stop) {
				t0 := time.Now()
				t.Do(func() {
					t.Node(0).Ping(1, time.Second, false, func(_ float64, ok bool) { done <- ok })
				})
				if <-done {
					lats[c] = append(lats[c], float64(time.Since(t0))/float64(time.Microsecond))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, l := range lats {
		latUs = append(latUs, l...)
	}
	sort.Float64s(latUs)
	return float64(len(latUs)) / elapsed, latUs
}

// probeLive measures the live path's floor: a bare ping over UDP (the
// smallest frame through socket, codec, event loop and Node), the same
// over the in-process loopback transport at zero RTT (event loop and Node
// without socket or codec), and the event loop's post→run hand-off alone.
func probeLive(out metrics, sz *sizes) {
	d := 2 * time.Second
	if sz.smoke {
		d = 200 * time.Millisecond
	}
	u := p2p.NewUDP(2, p2p.Config{RPCTimeout: time.Second}, 1)
	defer u.Close()
	for id := p2p.NodeID(0); id < 2; id++ {
		if _, err := u.Listen(id, ""); err != nil {
			fmt.Fprintln(os.Stderr, "bench: udp.echo skipped:", err)
			return
		}
	}
	perSec, lat := echoLoop(u, d)
	out.set("udp.echo_per_s", perSec, "1/s")
	out.setPercentile("udp.echo_p50_us", lat, 50)
	out.setPercentile("udp.echo_p99_us", lat, 99)
	out.set("udp.echo_samples", float64(len(lat)), "count")
	out.set("live.do_ns", nsPerOp(func() { u.Do(func() {}) }), "ns")

	lb := p2p.NewLoopback(lineMatrix(2, 0), p2p.Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	lb.AddNode(0)
	lb.AddNode(1)
	perSec, _ = echoLoop(lb, d)
	out.set("loopback.echo_per_s", perSec, "1/s")
}
