package p2p

// Reference for chord's finger table. The writers below are the 64-slot
// forms that stood before the run index — learn's finger loop, evictPeer's
// finger sweep and fixFinger's two slot writes — kept verbatim with their
// identifiers prefixed ref. The run-indexed table must leave every slot
// exactly where they leave it, and its run index must equal a
// recomputation from the slots, after every operation of a randomized
// sequence.

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/rng"
	"nearestpeer/internal/sim"
)

// refChordState is the part of a member's state the reference writers
// touch, with the finger table as a plain 64-slot slice.
type refChordState struct {
	ringID  uint64
	succs   []NodeID
	fingers []NodeID
	nextFin int
}

func newRefChordState(ringID uint64) *refChordState {
	st := &refChordState{ringID: ringID, fingers: make([]NodeID, 64)}
	for i := range st.fingers {
		st.fingers[i] = NoNode
	}
	return st
}

// refLearn is learn's finger half.
func refLearn(c *Chord, st *refChordState, peer NodeID) {
	if peer == NoNode {
		return
	}
	pr := c.RingIDOf(peer)
	if pr == st.ringID {
		return
	}
	D := dht.RingDist(st.ringID, pr)
	maxI := bits.Len64(D)
	rings := c.rings
	prev := NodeID(-2) // never a valid finger value
	replace := false
	for i := 0; i < maxI; i++ {
		cur := st.fingers[i]
		if cur != prev {
			prev = cur
			replace = cur == NoNode || D < rings[cur]-st.ringID
		}
		if replace {
			st.fingers[i] = peer
		}
	}
}

// refEvictFingers is evictPeer's finger sweep.
func refEvictFingers(st *refChordState, peer NodeID) {
	for i, f := range st.fingers {
		if f == peer {
			st.fingers[i] = NoNode
		}
	}
}

// refNextFingerSlot is fixFinger's cursor advance over the slots the
// successor answers; it returns the slot fixFinger looks up.
func refNextFingerSlot(c *Chord, st *refChordState) int {
	succRing := c.RingIDOf(st.succs[0])
	i := st.nextFin
	for skipped := 0; skipped < len(st.fingers); skipped++ {
		if !dht.BetweenRightIncl(st.ringID+1<<uint(i), st.ringID, succRing) {
			break
		}
		st.fingers[i] = st.succs[0]
		i = (i + 1) % len(st.fingers)
	}
	st.nextFin = (i + 1) % len(st.fingers)
	return i
}

// refRepairFinger is fixFinger's write of a looked-up owner into slot i.
func refRepairFinger(c *Chord, st *refChordState, i int, owner NodeID) {
	if dht.RingDist(st.ringID+1<<uint(i), c.RingIDOf(owner)) < dht.RingDist(st.ringID+1<<uint(i), st.ringID) {
		st.fingers[i] = owner
	}
}

// tablePop is the finger-table rings' population; member 0 is the table's
// owner.
const tablePop = 48

// tableChord returns a Chord over tablePop nodes whose ring-hash cache is
// preloaded with synthetic identifiers: node k sits 2^e + u clockwise of
// node 0 for a log-uniform exponent e in [0, 64) and u < 2^e, all distinct
// and nonzero, so peers land in every slot from the nearest to the
// farthest. Hashed identifiers would leave the low slots unreachable — N
// random points sit about 2^64/N apart.
func tableChord(seed int64) *Chord {
	rt := New(sim.New(), latency.NewDense(tablePop), Config{}, 1)
	c := NewChord(rt, DefaultChordConfig(), 1)
	src := rng.New(seed).Split("finger-table")
	self := src.Uint64() | 1
	used := map[uint64]bool{self: true, 0: true}
	c.rings[0] = self
	for k := 1; k < tablePop; k++ {
		for {
			e := src.Intn(64)
			r := self + 1<<uint(e) + src.Uint64()&(1<<uint(e)-1)
			if !used[r] {
				used[r] = true
				c.rings[k] = r
				break
			}
		}
	}
	return c
}

// Finger-table operations, as the protocol issues them.
const (
	tableLearn  = iota // learn(peer): any reply or notify
	tableEvict         // evictPeer(peer): two consecutive timeouts
	tableNext          // fixFinger's cursor advance, successor peer
	tableRepair        // a finger lookup's owner landing in slot
	tableOps
)

type tableOp struct {
	kind int
	peer NodeID
	slot int
}

func (op tableOp) String() string {
	return fmt.Sprintf("%s(peer %d, slot %d)", [...]string{"learn", "evict", "next", "repair"}[op.kind], op.peer, op.slot)
}

// applyTableOp runs one operation on the member state and on the
// reference. An operation the protocol never issues (a NoNode or self
// successor or repair owner) is skipped on both sides.
func applyTableOp(c *Chord, st *chordState, ref *refChordState, op tableOp) {
	switch op.kind {
	case tableLearn:
		c.learn(st, op.peer)
		refLearn(c, ref, op.peer)
	case tableEvict:
		c.evictPeer(st, op.peer)
		refEvictFingers(ref, op.peer)
	case tableNext:
		if op.peer == NoNode || op.peer == 0 {
			return
		}
		st.succs = append(st.succs[:0], op.peer)
		ref.succs = append(ref.succs[:0], op.peer)
		c.nextFingerSlot(st)
		refNextFingerSlot(c, ref)
	case tableRepair:
		if op.peer == NoNode || op.peer == 0 {
			return
		}
		c.repairFinger(st, op.slot, op.peer)
		refRepairFinger(c, ref, op.slot, op.peer)
	}
}

// newTableState returns member 0's fresh state, as Join builds it.
func newTableState(c *Chord) *chordState {
	st := &chordState{ringID: c.RingIDOf(0), pred: NoNode, cp: &c.cp[0]}
	st.reset()
	return st
}

// recomputeRuns derives the run index from the slots.
func recomputeRuns(f *[64]int32) uint64 {
	runs := uint64(1)
	for i := 1; i < len(f); i++ {
		if f[i] != f[i-1] {
			runs |= 1 << i
		}
	}
	return runs
}

// tableMismatch describes how the member's table departs from the
// reference, or returns "".
func tableMismatch(st *chordState, ref *refChordState) string {
	for i := range st.fingers {
		if NodeID(st.fingers[i]) != ref.fingers[i] {
			return fmt.Sprintf("slot %d = %d, reference %d\n  got %v\n want %v", i, st.fingers[i], ref.fingers[i], st.fingers, ref.fingers)
		}
	}
	if want := recomputeRuns(&st.fingers); st.runs != want {
		return fmt.Sprintf("run index %064b, recomputed %064b (slots %v)", st.runs, want, st.fingers)
	}
	if st.nextFin != ref.nextFin {
		return fmt.Sprintf("repair cursor %d, reference %d", st.nextFin, ref.nextFin)
	}
	return ""
}

// TestChordFingerTableMatchesReference drives randomized operation
// sequences — learning from near and far peers, NoNode holes left by
// evictions, the repair cursor's successor fills, and repair owners
// landing in arbitrary slots out of order (lookups finish in any order) —
// through the run-indexed table and the 64-slot reference in lockstep.
func TestChordFingerTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		c := tableChord(seed)
		st, ref := newTableState(c), newRefChordState(c.RingIDOf(0))
		src := rng.New(seed).Split("ops")
		for n := 0; n < 600; n++ {
			op := tableOp{kind: src.Intn(tableOps), peer: NodeID(src.Intn(tablePop)), slot: src.Intn(64)}
			switch {
			case op.kind == tableLearn && src.Intn(16) == 0:
				op.peer = NoNode
			case op.kind == tableEvict && src.Intn(2) == 0:
				// Evict a current finger, so holes actually open.
				op.peer = NodeID(st.fingers[src.Intn(64)])
			}
			applyTableOp(c, st, ref, op)
			if msg := tableMismatch(st, ref); msg != "" {
				t.Fatalf("seed %d, op %d %v: %s", seed, n, op, msg)
			}
		}
	}
}

var (
	fuzzTableOnce  sync.Once
	fuzzTableChord *Chord
)

// FuzzChordFingerTable decodes an operation sequence from bytes, two per
// operation — kind in the low two bits of the first and slot in its high
// six, peer from the second (tablePop decodes as NoNode) — and holds the
// run-indexed table to the reference after every one.
func FuzzChordFingerTable(f *testing.F) {
	f.Add([]byte{0, 5, 0, 17, 0, 3, 1, 5, 0, 40, 0, 48})
	f.Add([]byte{2, 9, 2, 9, 2, 9, 3 | 10<<2, 30, 3 | 63<<2, 12, 0, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 4, 0, 2, 2, 47})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTableOnce.Do(func() { fuzzTableChord = tableChord(1) })
		c := fuzzTableChord
		st, ref := newTableState(c), newRefChordState(c.RingIDOf(0))
		for n := 0; n+1 < len(data); n += 2 {
			op := tableOp{kind: int(data[n] & 3), slot: int(data[n] >> 2), peer: NodeID(int(data[n+1]) % (tablePop + 1))}
			if op.peer == tablePop {
				op.peer = NoNode
			}
			applyTableOp(c, st, ref, op)
			if msg := tableMismatch(st, ref); msg != "" {
				t.Fatalf("op %d %v: %s", n/2, op, msg)
			}
		}
	})
}
