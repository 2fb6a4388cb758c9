package p2p

import (
	"math"
	"time"

	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// The membership process's rates: each driven node alternates online
// sessions (mean churnMeanSession) and exponential offline gaps (mean
// churnMeanOffline), so the rejoin stream is a Poisson process, the
// standard churn model; a departure is graceful (the node tells its
// neighbours) with probability churnGracefulProb, else a crash (it just
// goes silent).
const (
	churnMeanSession  time.Duration = 90 * time.Second
	churnMeanOffline  time.Duration = 20 * time.Second
	churnGracefulProb float64       = 0.5
)

// ChurnConfig parameterises the membership process.
type ChurnConfig struct {
	// SessionSigma, when > 0, draws sessions from a log-normal with this
	// sigma (heavy-tailed session times, as measured p2p systems show)
	// with the mean matched to churnMeanSession; 0 keeps sessions
	// exponential.
	SessionSigma float64
	// Horizon, when > 0, stops scheduling churn events past this virtual
	// time, letting the kernel's event queue drain. 0 churns forever —
	// drive the kernel with RunUntil or Stop in that case.
	Horizon time.Duration
}

// Churn drives nodes up and down over virtual time. The protocol layered
// on the runtime observes membership through the two hooks; the generator
// itself only toggles node liveness.
type Churn struct {
	// OnLeave fires just before a node goes down. graceful reports
	// whether the node gets to say goodbye; on a crash the protocol hook
	// must not send anything on the node's behalf.
	OnLeave func(id NodeID, graceful bool)
	// OnJoin fires just after a node comes back up.
	OnJoin func(id NodeID)

	// Joins, Leaves and Crashes count membership events (Crashes ⊆ Leaves).
	Joins, Leaves, Crashes int

	rt  *Runtime
	cfg ChurnConfig
	src *rng.Source
	// leaveH and joinH are the session and downtime timers (leave, join),
	// their argument the node.
	leaveH, joinH sim.HandlerID
}

// NewChurn creates a generator with its own random stream. Serial-only:
// churn toggles liveness and live-count state every shard reads, and its
// single random stream has no K-invariant draw order.
func NewChurn(rt *Runtime, cfg ChurnConfig, seed int64) *Churn {
	if rt.Sharded() {
		panic("p2p: churn is serial-only")
	}
	c := &Churn{rt: rt, cfg: cfg, src: rng.New(seed).Split("churn")}
	c.leaveH = rt.RegisterHandler(TimerFunc(c.leave))
	c.joinH = rt.RegisterHandler(TimerFunc(c.join))
	return c
}

// session draws one online session length.
func (c *Churn) session() time.Duration {
	mean := float64(churnMeanSession)
	if s := c.cfg.SessionSigma; s > 0 {
		// Match the log-normal mean exp(mu + s²/2) to churnMeanSession.
		mu := math.Log(mean) - s*s/2
		return time.Duration(c.src.LogNormal(mu, s))
	}
	return time.Duration(c.src.Exponential(mean))
}

// Drive starts the churn process for the given (currently live) nodes:
// each gets a session clock now, and alternates leave/rejoin from then on.
func (c *Churn) Drive(ids []NodeID) {
	for _, id := range ids {
		c.scheduleLeave(id)
	}
}

// after schedules timer h at id unless the horizon cuts the chain.
func (c *Churn) after(id NodeID, d time.Duration, h sim.HandlerID) {
	if hz := c.cfg.Horizon; hz > 0 && c.rt.Now(id)+d > hz {
		return
	}
	c.rt.After(id, d, h, uint64(id))
}

func (c *Churn) scheduleLeave(id NodeID) { c.after(id, c.session(), c.leaveH) }

// leave is the session timer: the node arg names goes down.
func (c *Churn) leave(arg uint64) {
	id := NodeID(arg)
	n := c.rt.Node(id)
	if n == nil {
		return
	}
	if !n.alive {
		// Something else already took the node down (an experiment
		// calling Stop or a protocol Leave mid-session): not a churn
		// leave — nothing to count, no OnLeave — but the churn process
		// keeps driving the node, or it would silently drop out of the
		// membership process forever (the mirror of the rejoin case
		// in join).
		c.scheduleJoin(id)
		return
	}
	graceful := c.src.Bool(churnGracefulProb)
	c.Leaves++
	if !graceful {
		c.Crashes++
	}
	if c.OnLeave != nil {
		c.OnLeave(id, graceful)
	}
	n.Stop()
	c.scheduleJoin(id)
}

func (c *Churn) scheduleJoin(id NodeID) {
	c.after(id, time.Duration(c.src.Exponential(float64(churnMeanOffline))), c.joinH)
}

// join is the downtime timer: the node arg names comes back up.
func (c *Churn) join(arg uint64) {
	id := NodeID(arg)
	n := c.rt.Node(id)
	if n == nil {
		return
	}
	// If something else already brought the node back up (an experiment
	// Restart()ing it mid-gap), this is not a churn join — nothing to
	// count, no OnJoin (whoever restarted it owns the protocol re-entry)
	// — but the churn process keeps driving the node either way: the
	// next leave must be scheduled, or the node would silently drop out
	// of the membership process forever.
	if !n.alive {
		n.Restart()
		c.Joins++
		if c.OnJoin != nil {
			c.OnJoin(id)
		}
	}
	c.scheduleLeave(id)
}
