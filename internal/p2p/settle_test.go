// The settle contract: every request and operation settles exactly once —
// on a reply, on its expiry, or at the stop of its issuing node — on every
// transport. The Chord Get tests are the hang a stopped member used to
// cause (a caller waiting forever on a lookup whose issuer had crashed);
// FuzzSettleExactlyOnce interleaves requests, stops, restarts, replies and
// expiries at one node and checks each callback fires exactly once, at the
// right time.

package p2p

import (
	"testing"
	"time"

	"nearestpeer/internal/sim"
)

// settleChordConfig keeps maintenance fast, so a live ring has run a few
// rounds within half a second.
func settleChordConfig() ChordConfig {
	cfg := DefaultChordConfig()
	cfg.StabilizeEvery = 100 * time.Millisecond
	cfg.RPCTimeout = time.Second
	cfg.Horizon = time.Minute
	return cfg
}

const settleRing = 6

// stopGet runs the Chord hang scenario on tr: a ring of settleRing
// members runs for half a second, then member 2 issues a Get and stops in
// the same turn. The Get must report OK=false once, within one RPC
// timeout of the stop. do runs a closure serialized with protocol
// callbacks; wait lets protocol time pass (d, or until done delivers) and
// reports the result, how long it waited, and whether one came.
func stopGet(t *testing.T, tr Transport, do func(func()), wait func(d time.Duration, done <-chan OpResult) (OpResult, time.Duration, bool)) {
	t.Helper()
	cfg := settleChordConfig()
	ch := NewChord(tr, cfg, 7)
	do(func() {
		for i := range settleRing {
			ch.Join(NodeID(i))
		}
	})
	wait(500*time.Millisecond, nil)
	done := make(chan OpResult, 2)
	do(func() {
		ch.Get(2, "settle/key", func(r OpResult) { done <- r })
		tr.Node(2).Stop()
	})
	res, after, ok := wait(cfg.RPCTimeout, done)
	if !ok {
		t.Fatalf("Get at a member that stopped: no result within one RPC timeout (%v)", cfg.RPCTimeout)
	}
	if res.OK || after >= cfg.RPCTimeout {
		t.Fatalf("Get at a member that stopped: OK=%v %v after the stop; want OK=false within %v", res.OK, after, cfg.RPCTimeout)
	}
	if extra, _, again := wait(100*time.Millisecond, done); again {
		t.Fatalf("Get completed twice (second result %+v)", extra)
	}
}

// liveWait is stopGet's wait on a live transport: wall-clock time.
func liveWait(d time.Duration, done <-chan OpResult) (OpResult, time.Duration, bool) {
	start := time.Now()
	if done == nil {
		time.Sleep(d)
		return OpResult{}, 0, false
	}
	select {
	case r := <-done:
		return r, time.Since(start), true
	case <-time.After(d):
		return OpResult{}, d, false
	}
}

func TestStopSettlesChordGetSim(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(settleRing), Config{RPCTimeout: time.Second}, 1)
	stopGet(t, rt, func(fn func()) { kernel.At(kernel.Now(), fn); kernel.RunUntil(kernel.Now()) },
		func(d time.Duration, done <-chan OpResult) (OpResult, time.Duration, bool) {
			start := kernel.Now()
			var got OpResult
			ok := false
			for kernel.Now() < start+d && !ok {
				kernel.RunUntil(kernel.Now() + time.Millisecond)
				select {
				case got = <-done:
					ok = true
				default:
				}
			}
			return got, kernel.Now() - start, ok
		})
}

func TestStopSettlesChordGetLoopback(t *testing.T) {
	lb := NewLoopback(lineMatrix(settleRing), Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	stopGet(t, lb, lb.Do, liveWait)
}

func TestStopSettlesChordGetUDP(t *testing.T) {
	u := NewUDP(settleRing, Config{RPCTimeout: time.Second}, 1)
	defer u.Close()
	for i := range settleRing {
		if _, err := u.Listen(NodeID(i), ""); err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
	}
	stopGet(t, u, u.Do, liveWait)
}

// TestSettleRequestAtStoppedNode: a request issued at a stopped node sends
// nothing, parks nothing, schedules no expiry and fails once, at once —
// after Request has returned — as a stop failure; a RequestPolicy call
// there fails the same way, with no second attempt.
func TestSettleRequestAtStoppedNode(t *testing.T) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(2), Config{RPCTimeout: time.Second, Retry: Policy{Attempts: 3}}, 1)
	a := rt.AddNode(0)
	rt.AddNode(1)
	kernel.RunUntil(time.Second)
	a.Stop()
	fails := 0
	var at []time.Duration
	onFail := func() { fails++; at = append(at, kernel.Now()) }
	onReply := func(Envelope) { t.Error("a stopped node got a reply") }
	if id := a.Request(1, MsgPing, nil, 0, onReply, onFail); id != 0 {
		t.Errorf("Request at a stopped node returned MsgID %d, want 0", id)
	}
	a.RequestPolicy(1, MsgPing, nil, 0, onReply, onFail)
	if fails != 0 {
		t.Fatal("a failure ran inside the issuing call")
	}
	kernel.Run()
	if fails != 2 || at[0] != time.Second || at[1] != time.Second {
		t.Fatalf("%d failures at %v: want 2, both at the 1s issue", fails, at)
	}
	m := rt.TotalMetrics()
	if m.MsgsSent != 0 || m.ExpiriesScheduled != 0 || m.StopFailures != 2 || m.Timeouts != 0 || m.Retries != 0 {
		t.Fatalf("metrics %+v: want nothing sent or scheduled, 2 stop failures, no retry", m)
	}
}

// Settle fuzz programs are byte pairs (op, arg) run against node 0 of a
// four-node line (10 ms to node 1, 20 ms to node 2). Node 1 answers "echo"
// 5*(arg>>4) ms after it arrives; node 2 never answers it. Requests expire
// after 5+5*(arg&15) ms, so a reply and its expiry land together when
// arg&15 = arg>>4 + 1. Retried requests (two attempts) back off 20 ms.
const (
	settleIssue       = iota // Request to node 1
	settleIssueMute          // Request to node 2
	settleIssueRetry         // RequestPolicy to node 1
	settleIssueMuteRe        // RequestPolicy to node 2
	settleStop               // Stop node 0
	settleRestart            // Restart node 0 (a crash and restart when it is up)
	settleAdvance            // run the kernel arg ms on
	settleOps
)

const maxSettleProgram = 256

// settleReq is one fuzz request's record.
type settleReq struct {
	issuedAt time.Duration
	stopped  bool // issued at a stopped node
	life     int  // the issuing life: stops before the issue
	fires    int
	failed   bool
	firedAt  time.Duration
	firedSeq int
}

// settleStopRec is one stop of node 0: its instant and its place in the
// sequence callbacks are numbered in.
type settleStopRec struct {
	at  time.Duration
	seq int
}

// runSettleProgram runs prog and checks the settle contract: every
// request's callbacks fire exactly once; a request issued at a stopped
// node fails at its issue instant and sends nothing; a request outstanding
// at a stop either settled before the stop or fails at the stop instant,
// after it; and StopFailures counts exactly those two kinds of failure.
func runSettleProgram(t *testing.T, prog []byte) {
	kernel := sim.New()
	rt := New(kernel, lineMatrix(4), Config{RPCTimeout: time.Second, Retry: Policy{Attempts: 2, BaseBackoff: 20 * time.Millisecond}}, 1)
	n := rt.AddNode(0)
	rt.AddNode(1).Serve(NewTable().With("echo", func(m *Node, env Envelope) {
		kernel.After(time.Duration(env.Payload.(int))*time.Millisecond, func() { m.Reply(env, "echo_ok", nil) })
	}))
	rt.AddNode(2)
	var reqs []*settleReq
	var stops []settleStopRec
	seq := 0
	stop := func() {
		seq++
		stops = append(stops, settleStopRec{at: kernel.Now(), seq: seq})
		n.Stop()
	}
	for i := 0; i+1 < len(prog) && i < maxSettleProgram; i += 2 {
		op, arg := int(prog[i])%settleOps, int(prog[i+1])
		switch op {
		case settleStop:
			stop()
		case settleRestart:
			if n.Alive() {
				seq++
				stops = append(stops, settleStopRec{at: kernel.Now(), seq: seq})
			}
			n.Restart()
		case settleAdvance:
			kernel.RunUntil(kernel.Now() + time.Duration(arg)*time.Millisecond)
		default:
			to := NodeID(1)
			if op == settleIssueMute || op == settleIssueMuteRe {
				to = 2
			}
			r := &settleReq{issuedAt: kernel.Now(), stopped: !n.Alive(), life: len(stops)}
			reqs = append(reqs, r)
			fire := func(failed bool) {
				seq++
				r.fires++
				r.failed, r.firedAt, r.firedSeq = failed, kernel.Now(), seq
			}
			onReply, onFail := func(Envelope) { fire(false) }, func() { fire(true) }
			timeout := time.Duration(5+5*(arg&15)) * time.Millisecond
			delay := 5 * (arg >> 4)
			sent := rt.TotalMetrics().MsgsSent
			if op == settleIssueRetry || op == settleIssueMuteRe {
				n.RequestPolicy(to, "echo", delay, timeout, onReply, onFail)
			} else {
				n.Request(to, "echo", delay, timeout, onReply, onFail)
			}
			if r.stopped && rt.TotalMetrics().MsgsSent != sent {
				t.Fatalf("request %d: issued at a stopped node, it sent %d messages", len(reqs)-1, rt.TotalMetrics().MsgsSent-sent)
			}
			if r.fires != 0 {
				t.Fatalf("request %d: a callback ran inside the issuing call", len(reqs)-1)
			}
		}
	}
	kernel.Run()

	stopFailed := int64(0)
	for i, r := range reqs {
		if r.fires != 1 {
			t.Fatalf("request %d: callbacks fired %d times, want exactly 1", i, r.fires)
		}
		switch {
		case r.stopped:
			if !r.failed || r.firedAt != r.issuedAt {
				t.Fatalf("request %d, issued stopped at %v: failed=%v at %v; want a failure at the issue", i, r.issuedAt, r.failed, r.firedAt)
			}
			stopFailed++
		case r.life < len(stops) && r.firedSeq > stops[r.life].seq:
			end := stops[r.life]
			if !r.failed || r.firedAt != end.at {
				t.Fatalf("request %d, outstanding at the %v stop: failed=%v at %v; want a failure at the stop", i, end.at, r.failed, r.firedAt)
			}
			stopFailed++
		}
	}
	m := rt.TotalMetrics()
	if m.StopFailures != stopFailed {
		t.Fatalf("StopFailures = %d, but %d requests failed by a stop", m.StopFailures, stopFailed)
	}
	if m.ExpiriesScheduled != m.ExpiriesFired || len(n.inflight) != 0 || (n.retry != nil && len(n.retry.waits) != 0) {
		t.Fatalf("drained: %d expiries scheduled, %d fired, %d parked", m.ExpiriesScheduled, m.ExpiriesFired, len(n.inflight))
	}
}

// FuzzSettleExactlyOnce runs any settle program (see runSettleProgram).
// The checked-in seeds cover a stop with requests in flight, a stop during
// a retry backoff, a restart of a running node, requests issued while
// stopped, and a reply racing its expiry.
func FuzzSettleExactlyOnce(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runSettleProgram(t, prog) })
}
