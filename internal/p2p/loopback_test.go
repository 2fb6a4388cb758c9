// Shutdown-edge soaks for the loopback transport, run under -race in CI:
// Close racing a storm of in-flight requests (delivery timers, expiry
// timers, and requester goroutines all live at close time), and Stop with
// parked timers (a stopped node's pending deliveries, expiries, and retry
// backoffs must all land harmlessly, and must not leak into the node's
// next life after Restart).

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

// TestLoopbackStopWithParkedTimers stops a node while its request
// timeouts, inbound deliveries, and a retry chain's backoff timer are all
// parked. Every one of those timers fires into the stopped (then
// restarted) node; the generation guard must keep the old life's
// callbacks from resolving in the new one.
func TestLoopbackStopWithParkedTimers(t *testing.T) {
	lb := NewLoopback(lineMatrix(4), Config{RPCTimeout: time.Second, Retry: Policy{Attempts: 3, BaseBackoff: 30 * time.Millisecond}}, 1)
	defer lb.Close()
	var n0 *Node
	lb.Do(func() {
		n0 = lb.AddNode(0)
		lb.AddNode(1)        // rtt(0,1) = 10 ms: replies park for 5 ms per leg
		lb.AddNode(3).Stop() // node 3 is a black hole: requests to it only expire
	})
	var oldLife atomic.Int64
	lb.Do(func() {
		// A reply that will arrive ~10 ms from now, after Stop.
		n0.Request(1, MsgPing, nil, time.Second,
			func(Envelope) { oldLife.Add(1) }, func() { oldLife.Add(1) })
		// An expiry that will fire 25 ms from now, after Stop.
		n0.Request(3, MsgPing, nil, 25*time.Millisecond,
			func(Envelope) { oldLife.Add(1) }, func() { oldLife.Add(1) })
		// A retry chain whose backoff timer will be parked at Stop time.
		n0.RequestPolicy(3, MsgPing, nil, 5*time.Millisecond,
			func(Envelope) { oldLife.Add(1) }, func() { oldLife.Add(1) })
	})
	time.Sleep(2 * time.Millisecond)
	lb.Do(func() { n0.Stop() })
	time.Sleep(50 * time.Millisecond) // all three parked timers fire into the stopped node
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
	time.Sleep(100 * time.Millisecond) // let any straggling old-life timer fire
	if got := oldLife.Load(); got != 0 {
		t.Errorf("%d old-life callbacks resolved across Stop/Restart, want 0", got)
	}
	var retries int64
	lb.Do(func() { retries = lb.SerialMetrics().Retries })
	if retries != 0 {
		t.Errorf("retry chain survived Stop: %d retries charged", retries)
	}
}
