package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nearestpeer/internal/p2p"
	"nearestpeer/internal/rng"
)

// live-udp-chord: one p2p.UDP transport hosting a whole chord ring on
// 127.0.0.1 sockets, loaded by a closed loop of nproc clients. Every
// datagram crosses the host's loopback interface through the kernel's UDP
// stack — a real socket path, not a real link: link rate and wire latency
// are not measured here.

const (
	liveRPCTimeout  = 500 * time.Millisecond
	liveConvergeMax = 60 * time.Second
	liveOpDeadline  = 10 * time.Second
)

type liveInstance struct {
	sz   *sizes
	seed int64
	u    *p2p.UDP
	ch   *p2p.Chord
	ids  []p2p.NodeID
	keys []string
}

func liveValue(key string) []byte { return []byte("value-of/" + key) }

// setupLive brings the ring up, polls it to convergence and preloads the
// keys; all of it is set-up, none of it measured.
func setupLive(seed int64, sz *sizes) (instance, error) {
	l := &liveInstance{sz: sz, seed: seed}
	l.u = p2p.NewUDP(sz.liveNodes, p2p.Config{RPCTimeout: liveRPCTimeout}, seed)
	for i := 0; i < sz.liveNodes; i++ {
		id := p2p.NodeID(i)
		if _, err := l.u.Listen(id, ""); err != nil {
			l.u.Close()
			return nil, err
		}
		l.ids = append(l.ids, id)
	}
	cfg := p2p.DefaultChordConfig()
	cfg.StabilizeEvery = sz.liveStabilize
	cfg.RPCTimeout = liveRPCTimeout
	l.ch = p2p.NewChord(l.u, cfg, seed)
	l.u.Do(func() {
		for _, id := range l.ids {
			l.ch.Join(id)
		}
	})
	deadline := time.Now().Add(liveConvergeMax)
	for !l.converged() {
		if time.Now().After(deadline) {
			l.u.Close()
			return nil, fmt.Errorf("ring of %d did not converge in %v", sz.liveNodes, liveConvergeMax)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < sz.liveKeys; i++ {
		key := fmt.Sprintf("bench/%d/%d", seed, i)
		l.keys = append(l.keys, key)
		done := make(chan p2p.OpResult, 1)
		from := l.ids[i%len(l.ids)]
		l.u.Do(func() { l.ch.Put(from, key, liveValue(key), func(r p2p.OpResult) { done <- r }) })
		select {
		case r := <-done:
			if !r.OK {
				l.u.Close()
				return nil, fmt.Errorf("preload Put %q was not acknowledged", key)
			}
		case <-time.After(liveOpDeadline):
			l.u.Close()
			return nil, fmt.Errorf("preload Put %q never completed", key)
		}
	}
	return l, nil
}

// converged reports whether every member's successor and predecessor
// pointers agree with the ring order of the full membership — the
// criterion cmd/npnode logs "ring converged" on, plus predecessors, so key
// ownership is final before the preload.
func (l *liveInstance) converged() bool {
	ring := append([]p2p.NodeID(nil), l.ids...)
	ok := true
	l.u.Do(func() {
		sort.Slice(ring, func(i, j int) bool { return l.ch.RingIDOf(ring[i]) < l.ch.RingIDOf(ring[j]) })
		n := len(ring)
		for i, id := range ring {
			succ, sok := l.ch.SuccessorOf(id)
			pred, pok := l.ch.PredecessorOf(id)
			if !sok || !pok || succ != ring[(i+1)%n] || pred != ring[(i+n-1)%n] {
				ok = false
				return
			}
		}
	})
	return ok
}

func (l *liveInstance) close() { l.u.Close() }

func (l *liveInstance) snapshot() (m p2p.Metrics) {
	l.u.Do(func() { m = *l.u.SerialMetrics() })
	return m
}

// run loads the ring for d with nproc closed-loop clients: each issues a
// Get from a rotating member, waits for the reply, verifies the value and
// only then issues the next — npnode's clients are callers that wait, so a
// slow system receives less load, by design.
func (l *liveInstance) run(d time.Duration) unit {
	clients := nproc()
	type clientOut struct {
		lat    []float64
		hops   int
		failed int
		firstE string
	}
	outs := make([]clientOut, clients)
	before := l.snapshot()
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			src := rng.New(l.seed).SplitN("live-client", c)
			done := make(chan p2p.OpResult, 1)
			deadline := time.NewTimer(liveOpDeadline)
			defer deadline.Stop()
			for i := 0; time.Now().Before(stop); i++ {
				from := l.ids[(c+i*clients)%len(l.ids)]
				key := l.keys[src.Intn(len(l.keys))]
				t0 := time.Now()
				reply := done
				l.u.Do(func() { l.ch.Get(from, key, func(r p2p.OpResult) { reply <- r }) })
				deadline.Reset(liveOpDeadline)
				var r p2p.OpResult
				select {
				case r = <-reply:
				case <-deadline.C:
					// The callback may still fire later; it keeps the old
					// channel, the next operation gets a fresh one.
					done = make(chan p2p.OpResult, 1)
				}
				lat := time.Since(t0)
				good := false
				if r.OK {
					want := liveValue(key)
					for _, v := range r.Vals {
						if bytes.Equal(v, want) {
							good = true
							break
						}
					}
				}
				if !good {
					// A Get that timed out or returned a wrong value is a
					// failed operation and has no latency to report: it
					// counts as missing any latency limit.
					out.failed++
					if out.firstE == "" {
						out.firstE = fmt.Sprintf("Get %q from node %d: ok=%v, %d values", key, from, r.OK, len(r.Vals))
					}
					continue
				}
				out.hops += r.Hops
				out.lat = append(out.lat, float64(lat)/float64(time.Microsecond))
			}
		}(c)
	}
	// Sampled once, mid-run: the goroutine count is constant under a
	// closed loop (sockets' read loops + event loop + clients).
	time.Sleep(d / 2)
	goroutines := runtime.NumGoroutine()
	wg.Wait()
	after := l.snapshot()

	u := unit{counts: metrics{}, extra: metrics{}}
	hops := 0
	for _, o := range outs {
		u.ops += len(o.lat) + o.failed
		u.failed += o.failed
		hops += o.hops
		u.latUs = append(u.latUs, o.lat...)
		if o.firstE != "" {
			u.errorf("%s", o.firstE)
		}
	}
	sort.Float64s(u.latUs)
	sent := float64(after.MsgsSent - before.MsgsSent)
	u.counts.set("p2p.msgs_sent", sent, "count")
	u.counts.set("live.timeouts", float64(after.Timeouts-before.Timeouts), "count")
	u.counts.set("live.msgs_dead", float64(after.MsgsDead-before.MsgsDead), "count")
	u.counts.set("live.goroutines", float64(goroutines), "count")
	if good := len(u.latUs); good > 0 {
		u.counts.set("live.msgs_per_op", sent/float64(good), "count")
		u.counts.set("chord.hops_per_op", float64(hops)/float64(good), "count")
		u.counts.set("chord.get_ok", float64(good)/float64(u.ops), "share")
	}
	u.counts.setPercentile("live.op_p50_us", u.latUs, 50)
	u.counts.setPercentile("live.op_p99_us", u.latUs, 99)
	u.counts.setPercentile("live.op_p999_us", u.latUs, 99.9)
	return u
}
