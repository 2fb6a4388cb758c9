// Differential conformance: the same seeded chord+vivaldi workload runs
// over the simulation transport and over the loopback live transport, and
// the lookup results — which keys were found, and which node is
// responsible for each key — must be identical. Ring responsibility is a
// pure function of the members' ring IDs once the ring has converged, so
// it must not depend on whether time was virtual or wall-clock; the live
// stack is thereby checked against the simulated oracle.

package p2p_test

import (
	"fmt"
	"testing"
	"time"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/p2p"
	"nearestpeer/internal/sim"
	"nearestpeer/internal/vivaldi"
)

// diffN is the cluster size of the differential workload.
const diffN = 10

// diffKeys is how many keys the workload puts, gets, and looks up.
const diffKeys = 12

// diffMatrix builds the workload's latency model: a line topology with
// distinct pairwise RTTs (10·|i−j| ms), small enough that the wall-clock
// run stays fast.
func diffMatrix() latency.Matrix {
	m := latency.NewDense(diffN)
	for i := 0; i < diffN; i++ {
		for j := i + 1; j < diffN; j++ {
			m.Set(i, j, 10*float64(j-i))
		}
	}
	return m
}

// diffChordConfig keeps maintenance fast so the live run converges within
// a couple of wall-clock seconds.
func diffChordConfig() p2p.ChordConfig {
	cfg := p2p.DefaultChordConfig()
	cfg.StabilizeEvery = 100 * time.Millisecond
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.Horizon = 60 * time.Second
	return cfg
}

func diffWireConfig() vivaldi.WireConfig {
	cfg := vivaldi.DefaultWireConfig()
	cfg.GossipEvery = 100 * time.Millisecond
	cfg.SnapshotTTL = 500 * time.Millisecond
	cfg.RPCTimeout = 500 * time.Millisecond
	cfg.Horizon = 60 * time.Second
	return cfg
}

// diffDriver abstracts how a transport's time passes: the sim advances the
// kernel, the loopback just lets the wall clock run. do serializes a
// closure with protocol callbacks; settle lets d of protocol time elapse.
type diffDriver struct {
	do     func(fn func())
	settle func(d time.Duration)
}

// diffOutcome is the transport-independent result of the workload: per
// key, whether the Get found it, the value it returned, and the owner the
// Lookup resolved.
type diffOutcome struct {
	found map[string]bool
	vals  map[string]string
	owner map[string]p2p.NodeID
}

// await settles in steps until check (run on the loop) reports true.
func await(t *testing.T, d diffDriver, what string, deadline time.Duration, check func() bool) {
	t.Helper()
	step := 100 * time.Millisecond
	for waited := time.Duration(0); waited < deadline; waited += step {
		ok := false
		d.do(func() { ok = check() })
		if ok {
			return
		}
		d.settle(step)
	}
	t.Fatalf("differential workload: %s did not complete in %v", what, deadline)
}

// diffWorkload stands up chord and the vivaldi wire on tr, waits for ring
// convergence, then puts/gets/looks up diffKeys keys and runs one
// coordinate-guided nearest query. Returns the chord outcome.
func diffWorkload(t *testing.T, tr p2p.Transport, d diffDriver) diffOutcome {
	t.Helper()
	ch := p2p.NewChord(tr, diffChordConfig(), 7)
	var w *vivaldi.Wire
	d.do(func() {
		w = vivaldi.NewWire(tr, diffWireConfig(), 11)
		for i := 0; i < diffN; i++ {
			ch.Join(p2p.NodeID(i))
			w.Join(p2p.NodeID(i))
		}
	})

	// Converged: every member agrees with the ring order of the full
	// membership (successor(i) per sorted ring IDs).
	await(t, d, "ring convergence", 30*time.Second, func() bool {
		members := ch.LiveMembers()
		if len(members) != diffN {
			return false
		}
		for _, id := range members {
			succ, ok := ch.SuccessorOf(p2p.NodeID(id))
			if !ok || succ != diffSuccessor(ch, members, p2p.NodeID(id)) {
				return false
			}
		}
		return true
	})

	out := diffOutcome{
		found: make(map[string]bool),
		vals:  make(map[string]string),
		owner: make(map[string]p2p.NodeID),
	}
	puts := 0
	d.do(func() {
		for i := 0; i < diffKeys; i++ {
			key := fmt.Sprintf("key-%d", i)
			val := []byte(fmt.Sprintf("val-%d", i))
			ch.Put(p2p.NodeID(i%diffN), key, val, func(res p2p.OpResult) {
				if !res.OK {
					t.Errorf("put %s failed", key)
				}
				puts++
			})
		}
	})
	await(t, d, "puts", 20*time.Second, func() bool { return puts == diffKeys })

	gets := 0
	d.do(func() {
		for i := 0; i < diffKeys; i++ {
			key := fmt.Sprintf("key-%d", i)
			ch.Get(p2p.NodeID((i*3+1)%diffN), key, func(res p2p.OpResult) {
				out.found[key] = res.OK && len(res.Vals) > 0
				if len(res.Vals) > 0 {
					out.vals[key] = string(res.Vals[0])
				}
				gets++
			})
			ch.Lookup(p2p.NodeID((i*5+2)%diffN), key, func(res p2p.LookupResult) {
				if res.OK {
					out.owner[key] = res.Owner
				} else {
					out.owner[key] = p2p.NoNode
				}
				gets++
			})
		}
	})
	await(t, d, "gets and lookups", 20*time.Second, func() bool { return gets == 2*diffKeys })

	// The vivaldi leg: the query must complete and return a live member
	// other than the client on both transports. The peer's identity is
	// coordinate- and timing-dependent, so it is asserted valid, not equal.
	vdone := false
	d.do(func() {
		w.FindNearest(0, func(res p2p.FindResult) {
			if !res.Found || res.Peer == 0 || !tr.Alive(res.Peer) {
				t.Errorf("vivaldi nearest from 0: found=%v peer=%d", res.Found, res.Peer)
			}
			vdone = true
		})
	})
	await(t, d, "vivaldi query", 20*time.Second, func() bool { return vdone })
	return out
}

// diffSuccessor computes successor(id) over the membership by ring IDs —
// the converged ground truth.
func diffSuccessor(ch *p2p.Chord, members []int, id p2p.NodeID) p2p.NodeID {
	self := ch.RingIDOf(id)
	best := p2p.NoNode
	var bestDist uint64
	for _, m := range members {
		if p2p.NodeID(m) == id {
			continue
		}
		d := ch.RingIDOf(p2p.NodeID(m)) - self // wrapping clockwise distance
		if best == p2p.NoNode || d < bestDist {
			best, bestDist = p2p.NodeID(m), d
		}
	}
	return best
}

// TestDifferentialSimVsLoopback is the conformance gate: identical keys
// found, identical values, identical responsible nodes on both transports.
func TestDifferentialSimVsLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential run")
	}

	kernel := sim.New()
	srt := p2p.New(kernel, diffMatrix(), p2p.Config{RPCTimeout: time.Second}, 1)
	simOut := diffWorkload(t, srt, diffDriver{
		do:     func(fn func()) { fn() },
		settle: func(d time.Duration) { kernel.RunUntil(kernel.Now() + d) },
	})

	lb := p2p.NewLoopback(diffMatrix(), p2p.Config{RPCTimeout: time.Second}, 1)
	defer lb.Close()
	liveOut := diffWorkload(t, lb, diffDriver{
		do:     lb.Do,
		settle: time.Sleep,
	})

	for i := 0; i < diffKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if simOut.found[key] != liveOut.found[key] {
			t.Errorf("%s: sim found=%v live found=%v", key, simOut.found[key], liveOut.found[key])
		}
		if simOut.vals[key] != liveOut.vals[key] {
			t.Errorf("%s: sim val=%q live val=%q", key, simOut.vals[key], liveOut.vals[key])
		}
		if simOut.owner[key] != liveOut.owner[key] {
			t.Errorf("%s: sim owner=%d live owner=%d", key, simOut.owner[key], liveOut.owner[key])
		}
		if !simOut.found[key] {
			t.Errorf("%s: not found even on the simulated oracle", key)
		}
	}
}
