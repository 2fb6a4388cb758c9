package p2p

// The live transports' request-expiry queue: one queue and one wall-clock
// timer per transport instead of a timer per request, holding the requests
// in flight rather than every request of the last RPC timeout. These tests
// hold its ledger (every scheduled expiry has fired, been settled by its
// answer, or is still queued), its bound (answered requests leave the
// queue without expiring), its order (a short per-call timeout overtakes a
// long one queued before it) and its shutdown (Close stops the timer:
// nothing fires and no goroutine lingers afterwards).

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestLoopbackChordExpiryLedger samples ExpiriesScheduled, ExpiriesFired,
// SettledExpiries and PendingExpiries together on the loop while a ring
// stabilizes, serves puts and gets, and loses a member (whose requests then
// really expire): scheduled = fired + settled + pending at every sample.
func TestLoopbackChordExpiryLedger(t *testing.T) {
	const pop = 7 // members 0..5; node 6 stays free
	lb := NewLoopback(lineMatrix(pop), Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 20 * time.Millisecond
	cfg.RPCTimeout = 150 * time.Millisecond
	ch := NewChord(lb, cfg, 3)
	for i := 0; i < pop-1; i++ {
		id := NodeID(i)
		lb.Do(func() { ch.Join(id) })
		time.Sleep(10 * time.Millisecond)
	}
	check := func(when string) (pending int, m Metrics) {
		var settled int64
		lb.Do(func() {
			m = *lb.SerialMetrics()
			pending = lb.PendingExpiries()
			settled = lb.SettledExpiries()
		})
		if m.ExpiriesScheduled != m.ExpiriesFired+settled+int64(pending) {
			t.Fatalf("%s: scheduled %d != fired %d + settled %d + pending %d",
				when, m.ExpiriesScheduled, m.ExpiriesFired, settled, pending)
		}
		return pending, m
	}
	// Clients skip member 1, which is stopped mid-run: a stopped node's
	// operations never complete.
	clients := []NodeID{0, 2, 3, 4, 5}
	sawPending := false
	for round := 0; round < 6; round++ {
		done := make(chan OpResult, 2)
		key := fmt.Sprint("ledger/", round)
		lb.Do(func() {
			ch.Put(clients[round%len(clients)], key, []byte(key), func(r OpResult) { done <- r })
		})
		<-done
		lb.Do(func() { ch.Get(clients[(round+2)%len(clients)], key, func(r OpResult) { done <- r }) })
		<-done
		if round == 2 {
			lb.Do(func() { lb.Node(1).Stop() }) // its neighbours' requests now expire
		}
		pending, _ := check(fmt.Sprint("round ", round))
		sawPending = sawPending || pending > 0
		time.Sleep(40 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // past every chord timeout issued so far
	_, m := check("after the run")
	if !sawPending {
		t.Error("no sample caught an expiry queued: the ledger was never exercised")
	}
	if m.ExpiriesFired == 0 || m.Timeouts == 0 {
		t.Errorf("fired %d expiries, %d timeouts: the stopped member's requests never expired", m.ExpiriesFired, m.Timeouts)
	}
}

// TestLiveExpiryQueueDrainsAnswered issues rounds of pings that are all
// answered: no expiry fires, and the queue drops every answered request by
// the first wake-up after the last one — PendingExpiries returns to 0 and
// every scheduled expiry is settled, where a queue that kept each request
// until its deadline would have fired them all.
func TestLiveExpiryQueueDrainsAnswered(t *testing.T) {
	const timeout = 100 * time.Millisecond
	lb := NewLoopback(lineMatrix(2), Config{RPCTimeout: timeout}, 1)
	defer lb.Close()
	lb.AddNode(0)
	lb.AddNode(1)
	const rounds, perRound = 20, 50 // 1,000 requests: past every sweep threshold
	for r := 0; r < rounds; r++ {
		answered := make(chan bool, perRound)
		lb.Do(func() {
			for i := 0; i < perRound; i++ {
				lb.Node(0).Ping(1, 0, false, func(_ float64, ok bool) { answered <- ok })
			}
		})
		for i := 0; i < perRound; i++ {
			if !<-answered {
				t.Fatalf("round %d: a ping over a lossless loopback timed out", r)
			}
		}
	}
	var pending int
	var settled int64
	var m Metrics
	deadline := time.Now().Add(5 * time.Second)
	for {
		lb.Do(func() {
			pending, settled, m = lb.PendingExpiries(), lb.SettledExpiries(), *lb.SerialMetrics()
		})
		if pending == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(timeout / 4)
	}
	if pending != 0 {
		t.Fatalf("%d expiries still queued %v after every request was answered", pending, 5*time.Second)
	}
	if m.ExpiriesScheduled != rounds*perRound || settled != m.ExpiriesScheduled || m.ExpiriesFired != 0 || m.Timeouts != 0 {
		t.Errorf("scheduled %d, settled %d, fired %d, timeouts %d: want %d settled and nothing fired",
			m.ExpiriesScheduled, settled, m.ExpiriesFired, m.Timeouts, rounds*perRound)
	}
}

// TestLiveExpiryOrder parks a long-timeout request and then a short one to
// a black hole: an early wake-up fires neither, the short one, queued
// second, expires first, and the long one still expires after its own
// deadline.
func TestLiveExpiryOrder(t *testing.T) {
	lb := NewLoopback(lineMatrix(3), Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	order := make(chan string, 2)
	var early int64
	lb.Do(func() {
		n := lb.AddNode(0)
		lb.AddNode(2).Stop() // requests to node 2 only expire
		n.Request(2, MsgPing, nil, 200*time.Millisecond, nil, func() { order <- "long" })
		n.Request(2, MsgPing, nil, 20*time.Millisecond, nil, func() { order <- "short" })
		lb.expireDue() // a wake-up before either deadline
		early = lb.metrics.ExpiriesFired
	})
	if early != 0 {
		t.Fatalf("an early wake-up fired %d expiries", early)
	}
	for _, want := range []string{"short", "long"} {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("expiry %q fired where %q was due", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("expiry %q never fired", want)
		}
	}
	var pending int
	lb.Do(func() { pending = lb.PendingExpiries() })
	if pending != 0 {
		t.Errorf("%d expiries still queued after both fired", pending)
	}
}

// TestLiveCloseStopsExpiries closes a loopback and a UDP transport with
// expiries queued: after Close the expiry timer is stopped, no expiry
// fires over the next RPC timeout, and the goroutine count returns to what
// it was before the transports existed.
func TestLiveCloseStopsExpiries(t *testing.T) {
	const timeout = 200 * time.Millisecond
	baseline := runtime.NumGoroutine()
	park := func(b *liveBase, from, to NodeID) {
		b.Do(func() {
			for i := 0; i < 20; i++ {
				b.Node(from).Request(to, MsgPing, nil, timeout, nil, nil)
			}
		})
	}
	lb := NewLoopback(lineMatrix(3), Config{RPCTimeout: timeout}, 1)
	lb.Do(func() {
		lb.AddNode(0)
		lb.AddNode(2).Stop()
	})
	park(&lb.liveBase, 0, 2)
	lb.Close()
	u := newUDPCluster(t, 2, Config{RPCTimeout: timeout}, 1)
	park(&u.liveBase, 0, 2) // node 2 is the cluster's unbound dead peer
	u.Close()
	for name, b := range map[string]*liveBase{"loopback": &lb.liveBase, "udp": &u.liveBase} {
		fired, pending := b.metrics.ExpiriesFired, b.PendingExpiries()
		if pending == 0 {
			t.Fatalf("%s: nothing queued at Close; the test raced nothing", name)
		}
		if b.expTimer.Stop() {
			t.Errorf("%s: expiry timer still armed after Close", name)
		}
		time.Sleep(2 * timeout)
		if b.metrics.ExpiriesFired != fired || b.PendingExpiries() != pending {
			t.Errorf("%s: expiries moved after Close: fired %d→%d, pending %d→%d",
				name, fired, b.metrics.ExpiriesFired, pending, b.PendingExpiries())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the transports", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
