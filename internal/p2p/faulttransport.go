// InstallFaults: one seam that puts any Transport under a deterministic
// fault plan. The plan itself lives in internal/faults and is a pure
// function of (seed, src, dst, time window or send ordinal), so the
// simulator prices faults in virtual time and the live transports price
// the same plan in wall-clock time — same seed, same fault sequence, which
// is what the sim-vs-loopback differential test pins.
//
// Interception by wrapping would miss most traffic: Node.rt binds to the
// transport at AddNode time and multicast copies flow through its own send
// path. So the plan is installed *inside* the transport, a nil-checked hook
// on each send path exactly like the obs registry.

package p2p

import (
	"errors"
	"fmt"

	"nearestpeer/internal/faults"
)

// errSecondPlan is returned when a transport already carries a fault plan.
var errSecondPlan = errors.New("p2p: transport already carries a fault plan")

// InstallFaults puts tr under plan. A nil plan is a no-op: the transport
// behaves bit for bit as if never touched (the goldens-preservation
// contract). Install before traffic flows. It is an error for the plan not
// to validate, for tr to carry a plan already, for a plan with crash rules
// to meet a sharded runtime, and for tr to have no fault seam.
func InstallFaults(tr Transport, plan *faults.Plan) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("p2p: fault plan: %w", err)
	}
	// The seam: *Runtime, and *Loopback and *UDP through liveBase.
	seam, ok := tr.(interface {
		installFaults(plan *faults.Plan, crashes bool) error
	})
	if !ok {
		return fmt.Errorf("p2p: no fault seam for transport %T", tr)
	}
	evs := plan.NodeEvents(tr.Population())
	if err := seam.installFaults(plan, len(evs) > 0); err != nil {
		return err
	}
	scheduleNodeEvents(tr, evs)
	return nil
}

// scheduleNodeEvents arms a plan's crash/restart schedule over the seam,
// the same on every transport: one timer per transition at its node's
// home context, measured on that node's clock (virtual time on the
// simulator, wall time since start on the live transports). The argument
// is the node ID with the transition's direction (Up) in the low bit.
func scheduleNodeEvents(tr Transport, evs []faults.NodeEvent) {
	if len(evs) == 0 {
		return
	}
	h := tr.RegisterHandler(TimerFunc(func(arg uint64) {
		n := tr.Node(NodeID(arg >> 1))
		switch {
		case n == nil:
		case arg&1 == 1:
			n.Restart()
		default:
			n.Stop()
		}
	}))
	for _, ev := range evs {
		id := NodeID(ev.Node)
		arg := uint64(id) << 1
		if ev.Up {
			arg |= 1
		}
		tr.After(id, max(ev.At-tr.Now(id), 0), h, arg)
	}
}
