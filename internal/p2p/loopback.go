package p2p

import (
	"time"

	"nearestpeer/internal/faults"
	"nearestpeer/internal/latency"
)

// Loopback is the in-process live transport: real goroutines and
// wall-clock timers, with link delays priced from the same latency matrix
// the simulator uses. Envelopes never touch a socket — each send arms a
// wall-clock timer for the one-way delay and posts delivery to the event
// loop — so the protocol stack runs exactly as deployed (concurrent
// timers, real races between timeouts and replies) while links still obey
// the matrix. The differential conformance tests run seeded workloads here
// and check the results against the simulated oracle.
type Loopback struct {
	liveBase
	m latency.Matrix
}

// NewLoopback creates a loopback transport over a latency matrix. seed is
// unused: loss is a fault-plan rule (InstallFaults).
func NewLoopback(m latency.Matrix, cfg Config, seed int64) *Loopback {
	lb := &Loopback{m: m}
	lb.init(lb, m.N(), cfg)
	return lb
}

// Close stops the event loop and the expiry timer. Timers and sends still
// in flight are discarded; Close does not wait for protocol quiescence.
func (lb *Loopback) Close() {
	lb.loop.close()
	lb.expTimer.Stop()
}

// send prices the envelope's one-way delay from the matrix, applies the
// fault plan, and arms a wall-clock timer that posts delivery to the
// event loop. Runs on the loop (all sends originate in Node methods).
func (lb *Loopback) send(env Envelope) {
	lb.metrics.MsgsSent++
	var fd faults.Decision
	if lb.flt != nil {
		fd = lb.flt.DecideSend(int(env.From), int(env.To), lb.faultNow(), lb.Node(env.From).nextSend())
		if fd.Drop {
			lb.metrics.MsgsLost++
			lb.metrics.FaultDropped++
			return
		}
	}
	d := oneWayDelay(lb.m.LatencyMs(int(env.From), int(env.To)), env.Resp)
	if fd.ExtraMs > 0 {
		d += durOf(fd.ExtraMs)
		lb.metrics.FaultDelayed++
	}
	deliver := func() {
		lb.loop.post(func() {
			n := lb.Node(env.To)
			if n == nil || !n.alive {
				lb.metrics.MsgsDead++
				return
			}
			lb.metrics.MsgsDelivered++
			n.deliver(env)
		})
	}
	copies := 1
	if fd.Dup {
		copies = 2
		lb.metrics.MsgsSent++
		lb.metrics.FaultDuplicated++
	}
	for c := 0; c < copies; c++ {
		if d <= 0 {
			deliver()
			continue
		}
		time.AfterFunc(d, func() { deliver() })
	}
}
