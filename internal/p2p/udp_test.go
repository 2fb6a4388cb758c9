// Race soak for the UDP transport's readLoop/inflight path: concurrent
// requesters, duplicate and late replies, timeouts racing deliveries, and
// a close racing in-flight sends. The assertions are the waiter contract —
// every request resolves exactly once — and the race detector's silence;
// CI runs the whole test suite under -race.

package p2p

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// udpEchoType is a request the responder answers once, normally.
const udpEchoType = "t_echo"

// udpDupType is a request the responder answers twice — the duplicate
// must be dropped by the requester's inflight correlation.
const udpDupType = "t_dup"

// udpSlowType is a request the responder answers only after the
// requester's timeout has fired — the late reply must find no waiter.
const udpSlowType = "t_slow"

// udpSoakPayload exercises the codec on every soak datagram.
type udpSoakPayload struct {
	Seq  uint64
	Blob []byte
}

func init() { RegisterPayload("t_soak", udpSoakPayload{}) }

// newUDPCluster brings up n local nodes serving one soak table.
func newUDPCluster(t *testing.T, n int, cfg Config, seed int64) *UDP {
	t.Helper()
	u := NewUDP(n+1, cfg, seed) // +1: one ID stays unbound as the dead peer
	soak := NewTable().
		With(udpEchoType, func(n *Node, env Envelope) {
			n.Reply(env, udpEchoType, env.Payload)
		}).
		With(udpDupType, func(n *Node, env Envelope) {
			n.Reply(env, udpDupType, env.Payload)
			n.Reply(env, udpDupType, env.Payload)
		}).
		With(udpSlowType, func(n *Node, env Envelope) {
			// Answer well after any requester timeout in the soak.
			time.AfterFunc(300*time.Millisecond, func() {
				u.Do(func() {
					if n.Alive() {
						n.Reply(env, udpSlowType, env.Payload)
					}
				})
			})
		})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if _, err := u.Listen(id, ""); err != nil {
			u.Close()
			t.Fatalf("listen %d: %v", id, err)
		}
		// The table is served on the loop: the socket is live, so a
		// datagram could already be in delivery.
		u.Do(func() { u.Node(id).Serve(soak) })
	}
	return u
}

// TestUDPPingPong is the smoke: one request-reply round over real
// datagrams, exercising Listen, the codec, the read loop, and inflight
// correlation end to end.
func TestUDPPingPong(t *testing.T) {
	u := newUDPCluster(t, 2, Config{RPCTimeout: 2 * time.Second}, 1)
	defer u.Close()
	got := make(chan float64, 1)
	u.Do(func() {
		u.Node(0).Ping(1, 2*time.Second, false, func(rtt float64, ok bool) {
			if !ok {
				t.Error("ping over UDP timed out")
			}
			got <- rtt
		})
	})
	select {
	case rtt := <-got:
		if rtt < 0 {
			t.Fatalf("negative rtt %v", rtt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping never resolved")
	}
}

// TestUDPArtificialDelay checks the matrix-priced receive delay: with a
// delay matrix installed, a ping measures approximately the matrix RTT
// even though the datagrams cross the loopback interface — the hook the
// live smoke uses to cross-check `nearest` against the static oracle.
func TestUDPArtificialDelay(t *testing.T) {
	u := newUDPCluster(t, 2, Config{RPCTimeout: 2 * time.Second}, 1)
	defer u.Close()
	u.SetDelayMatrix(lineMatrix(2)) // RTT(0,1) = 10 ms
	got := make(chan float64, 1)
	u.Do(func() {
		u.Node(0).Ping(1, 2*time.Second, false, func(rtt float64, ok bool) {
			if !ok {
				t.Error("delayed ping timed out")
			}
			got <- rtt
		})
	})
	select {
	case rtt := <-got:
		if rtt < 10 || rtt > 60 {
			t.Fatalf("rtt %.2f ms, want ≈10 ms (plus scheduling overhead)", rtt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping never resolved")
	}
}

// TestUDPSoakInflight is the soak proper: several goroutines hammer the
// cluster with echo, duplicate-reply, late-reply, and dead-peer requests
// under packet loss, and every request must resolve exactly once.
func TestUDPSoakInflight(t *testing.T) {
	const (
		nodes      = 8
		goroutines = 4
		opsPerG    = 120
	)
	u := newUDPCluster(t, nodes, Config{RPCTimeout: time.Second}, 42)
	defer u.Close()
	withLoss(t, u, 42, 0.05)

	dead := NodeID(nodes) // registered ID space, but never bound: always times out
	types := []string{udpEchoType, udpDupType, udpSlowType, udpEchoType}

	total := goroutines * opsPerG
	resolved := make([]atomic.Int32, total)
	var replies, timeouts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				op := g*opsPerG + i
				from := NodeID((g + i) % nodes)
				to := NodeID((g + i + 1 + i%3) % nodes)
				typ := types[i%len(types)]
				if i%7 == 0 {
					to = dead
				}
				timeout := 150 * time.Millisecond
				if typ == udpEchoType {
					timeout = time.Second
				}
				u.Do(func() {
					u.Node(from).Request(to, typ, udpSoakPayload{Seq: uint64(op), Blob: []byte{byte(op)}}, timeout,
						func(env Envelope) {
							if env.Payload.(udpSoakPayload).Seq != uint64(op) {
								t.Errorf("op %d: cross-correlated reply %+v", op, env.Payload)
							}
							resolved[op].Add(1)
							replies.Add(1)
						},
						func() {
							resolved[op].Add(1)
							timeouts.Add(1)
						})
				})
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for replies.Load()+timeouts.Load() < int64(total) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	// Let straggler duplicates and late replies land before the counts are
	// read: they must all be dropped, not double-resolve.
	time.Sleep(500 * time.Millisecond)

	for op := range resolved {
		if n := resolved[op].Load(); n != 1 {
			t.Errorf("op %d resolved %d times", op, n)
		}
	}
	if replies.Load()+timeouts.Load() != int64(total) {
		t.Errorf("%d replies + %d timeouts != %d requests", replies.Load(), timeouts.Load(), total)
	}
	if replies.Load() == 0 || timeouts.Load() == 0 {
		t.Errorf("degenerate soak: %d replies, %d timeouts — both paths must fire", replies.Load(), timeouts.Load())
	}
	u.Do(func() {
		m := u.SerialMetrics()
		if m.MsgsSent == 0 || m.MsgsDelivered == 0 {
			t.Errorf("metrics did not move: %+v", *m)
		}
	})
}

// TestUDPCloseDuringSend races Close against senders mid-burst: no panic,
// no deadlock, no race-detector report. Requests cut off by the close may
// resolve never — only requests that resolve must resolve once.
func TestUDPCloseDuringSend(t *testing.T) {
	u := newUDPCluster(t, 4, Config{RPCTimeout: 200 * time.Millisecond}, 3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				done := make(chan struct{}, 2)
				u.Do(func() {
					u.Node(NodeID(g)).Request(NodeID((g+1)%4), udpEchoType,
						udpSoakPayload{Seq: uint64(i)}, 100*time.Millisecond,
						func(Envelope) { done <- struct{}{} },
						func() { done <- struct{}{} })
				})
				select {
				case <-done:
				case <-time.After(300 * time.Millisecond):
					return // transport closed under us: requests stop resolving
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	if err := u.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := u.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestUDPCrossProcessStyle exercises the peer-table path used between
// real processes: two separate UDP transports (separate sockets, separate
// event loops) that only know each other by address, including an
// ephemeral client whose address the server learns from its datagram.
func TestUDPCrossProcessStyle(t *testing.T) {
	server := NewUDP(1024, Config{RPCTimeout: 2 * time.Second}, 1)
	defer server.Close()
	saddr, err := server.Listen(0, "")
	if err != nil {
		t.Fatal(err)
	}
	server.Do(func() {
		server.Node(0).Serve(NewTable().With(udpEchoType, func(n *Node, env Envelope) {
			n.Reply(env, udpEchoType, env.Payload)
		}))
	})

	client := NewUDP(1024, Config{RPCTimeout: 2 * time.Second}, 2)
	defer client.Close()
	const clientID = NodeID(1000) // ephemeral: not in any peer table
	if _, err := client.Listen(clientID, ""); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPeer(0, saddr); err != nil {
		t.Fatal(err)
	}

	got := make(chan struct{})
	client.Do(func() {
		client.Node(clientID).Request(0, udpEchoType, udpSoakPayload{Seq: 77}, 2*time.Second,
			func(env Envelope) {
				if env.Payload.(udpSoakPayload).Seq != 77 {
					t.Errorf("wrong payload %+v", env.Payload)
				}
				close(got)
			},
			func() { t.Error("cross-transport request timed out"); close(got) })
	})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("cross-transport request never resolved")
	}
	if fmt.Sprintf("%v", server.LocalAddr(0)) == "" {
		t.Fatal("server lost its bound address")
	}
}

// TestUDPCloseNodeRelearn: a node migrating to another process is
// unreachable from its old host until that host forgets the node's
// socket. Phase 1 pins the failure mode CloseNode exists to fix: while
// the stale local socket lingers, learnPeer refuses the migrated node's
// new address (the ID still looks local) and replies are routed to the
// dead socket, so the migrated node's requests time out. Phase 2: after
// CloseNode, the very next datagram re-learns the address like any
// remote peer's and the round trip completes.
func TestUDPCloseNodeRelearn(t *testing.T) {
	cfg := Config{RPCTimeout: 500 * time.Millisecond}
	a := NewUDP(2, cfg, 1)
	defer a.Close()
	addr0, err := a.Listen(0, "")
	if err != nil {
		t.Fatalf("listen 0: %v", err)
	}
	if _, err := a.Listen(1, ""); err != nil { // node 1 starts life in "process" A
		t.Fatalf("listen 1: %v", err)
	}

	// Node 1 migrates: a second transport (a second process, in spirit)
	// binds it at a fresh address and names A's node 0 in its peer table.
	b := NewUDP(2, cfg, 2)
	defer b.Close()
	if _, err := b.Listen(1, ""); err != nil {
		t.Fatalf("listen migrated 1: %v", err)
	}
	if err := b.AddPeer(0, addr0); err != nil {
		t.Fatalf("addpeer: %v", err)
	}

	ping := func() bool {
		done := make(chan bool, 1)
		b.Do(func() {
			b.Node(1).Ping(0, 400*time.Millisecond, false, func(_ float64, ok bool) { done <- ok })
		})
		select {
		case ok := <-done:
			return ok
		case <-time.After(5 * time.Second):
			t.Fatal("ping never resolved")
			return false
		}
	}
	if ping() {
		t.Fatal("migrated node reachable past a stale local socket — the failure mode this test pins is gone; re-point the test")
	}
	a.CloseNode(1)
	if !ping() {
		t.Fatal("after CloseNode the migrated node's address was not re-learned")
	}
}

// TestUDPCloseNodeRebind: CloseNode releases the ID for a later Listen on
// the same transport — the rebound socket answers traffic and the node
// comes back alive.
func TestUDPCloseNodeRebind(t *testing.T) {
	u := newUDPCluster(t, 2, Config{RPCTimeout: time.Second}, 3)
	defer u.Close()
	u.CloseNode(1)
	if u.Alive(1) {
		t.Fatal("node 1 alive after CloseNode")
	}
	if _, err := u.Listen(1, ""); err != nil {
		t.Fatalf("re-listen after CloseNode: %v", err)
	}
	if !u.Alive(1) {
		t.Fatal("node 1 not revived by re-Listen")
	}
	done := make(chan bool, 1)
	u.Do(func() {
		u.Node(0).Ping(1, time.Second, false, func(_ float64, ok bool) { done <- ok })
	})
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("ping to the rebound node timed out")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping never resolved")
	}
}
