// Shutdown-edge soaks for the loopback transport, run under -race in CI:
// Close racing a storm of in-flight requests (delivery timers, expiry
// timers, and requester goroutines all live at close time), and Stop with
// parked timers (a stopped node's requests settle once at the stop; its
// pending deliveries, expiries, and retry backoffs then land harmlessly,
// and do not leak into the node's next life after Restart).

package p2p

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopbackCloseDuringInflight closes the transport while requests are
// mid-flight and callers keep issuing more from their own goroutines. The
// assertions are structural: no panic, no race, every pre-close request
// resolves at most once, and nothing resolves after Close returns.
func TestLoopbackCloseDuringInflight(t *testing.T) {
	lb := NewLoopback(lineMatrix(8), Config{RPCTimeout: 20 * time.Millisecond}, 1)
	var resolved atomic.Int64
	var closed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200 && !closed.Load(); i++ {
				from, to := NodeID(g), NodeID(4+(g+i)%4)
				lb.Do(func() {
					n := lb.AddNode(from)
					lb.AddNode(to)
					n.Request(to, MsgPing, nil, 10*time.Millisecond,
						func(Envelope) {
							if closed.Load() {
								t.Error("reply resolved after Close returned")
							}
							resolved.Add(1)
						},
						func() { resolved.Add(1) })
				})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let a storm of timers park
	lb.Close()
	closed.Store(true)
	wg.Wait()
	// Post-close posts are discarded, not deadlocked.
	ran := false
	lb.Do(func() { ran = true })
	if ran {
		t.Error("Do ran its closure on a closed transport")
	}
	if resolved.Load() == 0 {
		t.Error("no request resolved before Close — the soak raced nothing")
	}
}

// TestLoopbackStopWithParkedTimers stops a node while a request waits on a
// slow reply, a request waits on its expiry, and a retry chain waits out
// its backoff. Each of the three settles once, as a failure, at the Stop:
// the failures are posted to the loop behind Stop, so the next Do already
// sees them. The late reply, the expiry and the backoff timer land later,
// into the stopped and then the restarted node, and fire nothing.
func TestLoopbackStopWithParkedTimers(t *testing.T) {
	const slowReply = 400 * time.Millisecond
	lb := NewLoopback(lineMatrix(4), Config{RPCTimeout: time.Second, Retry: Policy{Attempts: 3, BaseBackoff: 400 * time.Millisecond}}, 1)
	defer lb.Close()
	var n0 *Node
	lb.Do(func() {
		n0 = lb.AddNode(0)
		lb.AddNode(1).Serve(NewTable().With("slow", func(n *Node, env Envelope) {
			time.AfterFunc(slowReply, func() { lb.Do(func() { n.Reply(env, "slow_ok", nil) }) })
		}))
		lb.AddNode(3).Stop() // node 3 is a black hole: requests to it only expire
	})
	var replies, fails, failsUp atomic.Int64
	onReply := func(Envelope) { replies.Add(1) }
	onFail := func() {
		fails.Add(1)
		if n0.Alive() {
			failsUp.Add(1)
		}
	}
	lb.Do(func() {
		n0.Request(1, "slow", nil, time.Second, onReply, onFail)           // reply due at ~400 ms
		n0.Request(3, MsgPing, nil, 600*time.Millisecond, onReply, onFail) // expiry due at 600 ms
		// Its first attempt expires at 5 ms; the backoff runs to ~405 ms.
		n0.RequestPolicy(3, MsgPing, nil, 5*time.Millisecond, onReply, onFail)
	})
	time.Sleep(30 * time.Millisecond)
	lb.Do(func() { n0.Stop() })
	var atStop int64
	lb.Do(func() { atStop = fails.Load() })
	if atStop != 3 || replies.Load() != 0 || failsUp.Load() != 0 {
		t.Fatalf("after Stop: %d failures (%d while up), %d replies; want the 3 requests failed at the stop", atStop, failsUp.Load(), replies.Load())
	}
	time.Sleep(700 * time.Millisecond) // the late reply, the expiry and the backoff timer land
	lb.Do(func() { n0.Restart() })
	// The new life works: a fresh request to a live peer resolves.
	done := make(chan bool, 1)
	lb.Do(func() {
		n0.Request(1, MsgPing, nil, time.Second,
			func(Envelope) { done <- true }, func() { done <- false })
	})
	select {
	case ok := <-done:
		if !ok {
			t.Error("fresh request after Restart timed out")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh request never resolved")
	}
	if got := fails.Load() + replies.Load(); got != 3 {
		t.Errorf("%d old-life callbacks fired in all, want the 3 stop failures", got)
	}
	var m Metrics
	lb.Do(func() { m = *lb.SerialMetrics() })
	if m.StopFailures != 3 || m.Timeouts != 1 || m.Retries != 0 {
		t.Errorf("metrics %+v: want 3 stop failures, 1 timeout (the first attempt), 0 retries", m)
	}
}
