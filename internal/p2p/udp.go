// The UDP transport: real datagrams between real sockets, with the codec
// (codec.go) framing every envelope and a read loop per socket feeding
// the event loop. The inflight-waiter correlation lives in Node, exactly
// as on the other transports — a response datagram's MsgID finds its
// parked request, a late or duplicate reply finds nothing and is dropped,
// a timeout that fires first wins the race.
//
// One UDP value can host many local nodes (one socket each), so a whole
// cluster can live in one process over real datagrams — the CI smoke test
// does — or one node per process, as cmd/npnode deploys it. Remote peers
// are named by a peer table (NodeID → address) seeded from configuration;
// addresses of unknown senders are learned from their datagrams, which is
// what lets an ephemeral CLI client with a fresh NodeID query a daemon
// without being in anyone's table.

package p2p

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
)

// UDP is the datagram live transport. Create with NewUDP, bring local
// nodes up with Listen, name remote peers with AddPeer, and Close when
// done.
type UDP struct {
	liveBase

	pmu   sync.RWMutex
	conns map[NodeID]*net.UDPConn
	peers map[NodeID]*net.UDPAddr

	// delay, when set, prices an artificial receive-side delay from a
	// latency matrix (request leg rtt/2, response leg the remainder), so an
	// in-process cluster on the loopback interface exhibits the matrix's
	// RTTs and a ping measures ≈ the matrix entry — the hook the CI smoke
	// test uses to cross-check `nearest` against the static oracle.
	delay atomic.Pointer[latency.Matrix]

	// sendBuf is the loop-owned buffer send encodes frames into.
	sendBuf []byte

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewUDP creates a UDP transport with the given ID-space bound (NodeIDs
// live in [0, pop)). seed is unused: loss is a fault-plan rule
// (InstallFaults), and real networks bring their own.
func NewUDP(pop int, cfg Config, seed int64) *UDP {
	u := &UDP{
		conns: make(map[NodeID]*net.UDPConn),
		peers: make(map[NodeID]*net.UDPAddr),
	}
	u.init(u, pop, cfg)
	return u
}

// SetDelayMatrix installs (or, with nil, removes) the artificial
// receive-side delay matrix. Call before traffic flows.
func (u *UDP) SetDelayMatrix(m latency.Matrix) {
	if m == nil {
		u.delay.Store(nil)
		return
	}
	u.delay.Store(&m)
}

// Listen binds a socket for a local node, registers the node, and starts
// its read loop. addr is a "host:port" UDP address; empty means
// "127.0.0.1:0" (an ephemeral loopback port). It returns the bound
// address — the one to hand other processes as this node's peer address.
func (u *UDP) Listen(id NodeID, addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", fmt.Errorf("p2p: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return "", fmt.Errorf("p2p: listen %q: %w", addr, err)
	}
	u.pmu.Lock()
	if _, dup := u.conns[id]; dup {
		u.pmu.Unlock()
		conn.Close()
		return "", fmt.Errorf("p2p: node %d already listening", id)
	}
	u.conns[id] = conn
	delete(u.peers, id) // local again: a stale learned address must not shadow the socket
	u.pmu.Unlock()
	n := u.AddNode(id)
	u.Do(func() {
		if !n.alive {
			n.Restart() // re-Listen after CloseNode revives the node
		}
	})
	u.wg.Add(1)
	go u.readLoop(id, conn)
	return conn.LocalAddr().String(), nil
}

// CloseNode releases a local node's socket and forgets the node was ever
// local, stopping it on the event loop. Without this, a node that migrates
// to another process is unreachable forever: addrOf keeps resolving it to
// the dead local socket, and learnPeer refuses to record the new address
// because the ID still looks local. After CloseNode the next datagram from
// the migrated node re-learns its address like any remote peer's, and a
// later Listen may re-bind the ID locally again.
func (u *UDP) CloseNode(id NodeID) {
	u.pmu.Lock()
	c := u.conns[id]
	delete(u.conns, id)
	delete(u.peers, id)
	u.pmu.Unlock()
	if c != nil {
		c.Close() // read loop exits on the closed socket
	}
	u.Do(func() {
		if n := u.Node(id); n != nil && n.alive {
			n.Stop()
		}
	})
}

// AddPeer names a remote node's address in the peer table.
func (u *UDP) AddPeer(id NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("p2p: resolve peer %d %q: %w", id, addr, err)
	}
	u.pmu.Lock()
	u.peers[id] = ua
	u.pmu.Unlock()
	return nil
}

// LocalAddr returns the bound address of a local node's socket, or "".
func (u *UDP) LocalAddr(id NodeID) string {
	u.pmu.RLock()
	defer u.pmu.RUnlock()
	if c := u.conns[id]; c != nil {
		return c.LocalAddr().String()
	}
	return ""
}

// Close shuts the transport down: sockets close, read loops drain, the
// event loop stops, the expiry timer stops. Safe to call twice.
func (u *UDP) Close() error {
	if !u.closed.CompareAndSwap(false, true) {
		return nil
	}
	u.pmu.Lock()
	for _, c := range u.conns {
		c.Close()
	}
	u.pmu.Unlock()
	u.wg.Wait()
	u.loop.close()
	u.expTimer.Stop()
	return nil
}

// addrOf resolves a destination under pmu (held by the caller): local
// nodes by their own socket's bound address (the datagram still crosses
// the stack — the codec and read loop are exercised even in-process), then
// the peer table.
func (u *UDP) addrOf(to NodeID) *net.UDPAddr {
	if c := u.conns[to]; c != nil {
		return c.LocalAddr().(*net.UDPAddr)
	}
	return u.peers[to]
}

// send encodes the envelope and writes one datagram from the sender's own
// socket. Unroutable destinations, encode failures, and write errors all
// count as dead letters — UDP promises nothing, and the request timeout
// is what surfaces the loss to the protocol. The frame is encoded into
// sendBuf, which the write consumes before send returns; only a delayed
// write keeps its own copy.
func (u *UDP) send(env Envelope) {
	u.metrics.MsgsSent++
	var fd faults.Decision
	if u.flt != nil {
		fd = u.flt.DecideSend(int(env.From), int(env.To), u.faultNow(), u.Node(env.From).nextSend())
		if fd.Drop {
			u.metrics.MsgsLost++
			u.metrics.FaultDropped++
			return
		}
	}
	u.pmu.RLock()
	src, dst := u.conns[env.From], u.addrOf(env.To)
	u.pmu.RUnlock()
	if src == nil || dst == nil {
		u.metrics.MsgsDead++
		return
	}
	frame, err := appendEnvelope(u.sendBuf[:0], env)
	if err != nil {
		u.metrics.MsgsDead++
		return
	}
	u.sendBuf = frame
	copies := 1
	if fd.Dup {
		copies = 2
		u.metrics.MsgsSent++
		u.metrics.FaultDuplicated++
	}
	if fd.ExtraMs > 0 {
		u.metrics.FaultDelayed++
		frame = slices.Clone(frame)
		// The delayed write runs off the loop, so its error accounting
		// posts back rather than touching loop-confined metrics.
		time.AfterFunc(durOf(fd.ExtraMs), func() {
			if failed := writeCopies(src, dst, frame, copies); failed > 0 {
				u.loop.post(func() { u.metrics.MsgsDead += failed })
			}
		})
		return
	}
	u.metrics.MsgsDead += writeCopies(src, dst, frame, copies)
}

// writeCopies writes frame from src to dst copies times and returns how
// many writes failed.
func writeCopies(src *net.UDPConn, dst *net.UDPAddr, frame []byte, copies int) (failed int64) {
	for c := 0; c < copies; c++ {
		if _, err := src.WriteToUDP(frame, dst); err != nil {
			failed++
		}
	}
	return failed
}

// readLoop drains one local node's socket: decode, learn the sender's
// address, and post delivery to the event loop — one closure per
// datagram, handed to a timer first only when a delay matrix prices an
// artificial delay. It exits when the socket closes.
func (u *UDP) readLoop(self NodeID, conn *net.UDPConn) {
	defer u.wg.Done()
	buf := make([]byte, MaxFrame+1)
	for {
		n, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed (or broken): this node is done receiving
		}
		// The decoded envelope keeps nothing of buf (strings and byte
		// slices are fresh copies), so the next read may reuse it.
		env, err := DecodeEnvelope(buf[:n])
		if err != nil {
			u.loop.post(func() { u.metrics.MsgsDead++ })
			continue
		}
		env.To = self // trust the socket, not the frame
		u.learnPeer(env.From, raddr)
		deliver := func() {
			node := u.Node(self)
			if node == nil || !node.alive {
				u.metrics.MsgsDead++
				return
			}
			u.metrics.MsgsDelivered++
			node.deliver(env)
		}
		if d := u.artificialDelay(env); d > 0 {
			time.AfterFunc(d, func() { u.loop.post(deliver) })
		} else {
			u.loop.post(deliver)
		}
	}
}

// learnPeer records a sender's address, last-seen wins — the path that
// lets ephemeral clients be answered, including a client that re-binds a
// fresh port under a previously seen NodeID (successive CLI invocations).
func (u *UDP) learnPeer(from NodeID, raddr *net.UDPAddr) {
	u.pmu.RLock()
	_, isLocal := u.conns[from]
	known := u.peers[from]
	u.pmu.RUnlock()
	if isLocal || (known != nil && known.IP.Equal(raddr.IP) && known.Port == raddr.Port) {
		return
	}
	u.pmu.Lock()
	u.peers[from] = raddr
	u.pmu.Unlock()
}

// artificialDelay prices the receive-side delay for an envelope when a
// delay matrix is installed and both endpoints fall inside it.
func (u *UDP) artificialDelay(env Envelope) time.Duration {
	mp := u.delay.Load()
	if mp == nil {
		return 0
	}
	m := *mp
	if int(env.From) < 0 || int(env.From) >= m.N() || int(env.To) < 0 || int(env.To) >= m.N() {
		return 0
	}
	return oneWayDelay(m.LatencyMs(int(env.From), int(env.To)), env.Resp)
}
