package p2p

// Fuzz target for the chord hot path's scratch-buffer closestPreceding:
// candidate collection, dedup and the insertion sort on precomputed ring
// distances replaced a sort.Slice over a map-deduped slice in the PR-4
// de-mapping, and this target pins the two against each other over
// arbitrary finger/successor contents — including the scan's skip over
// runs of equal consecutive entries, which runs broken by NoNode or self
// must not fool. The seed corpus under testdata/fuzz replays as ordinary
// tests in every `go test` run.

import (
	"sort"
	"sync"
	"testing"

	"nearestpeer/internal/dht"
	"nearestpeer/internal/latency"
	"nearestpeer/internal/sim"
)

// fuzzChordPop is the fuzz ring's matrix population: node ids decoded from
// fuzz bytes land in [0, fuzzChordPop).
const fuzzChordPop = 32

var (
	fuzzChordOnce sync.Once
	fuzzChord     *Chord
)

// fuzzChordInstance returns a process-wide Chord whose only use is
// closestPreceding (pure over its arguments plus the cached ring hashes).
func fuzzChordInstance() *Chord {
	fuzzChordOnce.Do(func() {
		kernel := sim.New()
		rt := New(kernel, latency.NewDense(fuzzChordPop), Config{}, 1)
		fuzzChord = NewChord(rt, DefaultChordConfig(), 1)
	})
	return fuzzChord
}

// refClosestPreceding is the naive reference: collect candidates strictly
// between self and the key from fingers then successors, dedup with a map,
// sort with sort.Slice by (distance-to-key, id) — the exact pre-PR-4
// semantics the scratch-buffer version must reproduce.
func refClosestPreceding(c *Chord, st *chordState, self NodeID, key uint64) []NodeID {
	var out []NodeID
	seen := make(map[NodeID]bool)
	for _, list := range [][]NodeID{st.fingers, st.succs} {
		for _, id := range list {
			if id == NoNode || id == self || seen[id] {
				continue
			}
			seen[id] = true
			if dht.Between(c.RingIDOf(id), c.RingIDOf(self), key) {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := dht.RingDist(c.RingIDOf(out[i]), key)
		dj := dht.RingDist(c.RingIDOf(out[j]), key)
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

// decodeNodes maps fuzz bytes onto a node list: each byte yields either
// NoNode (so sparse finger tables are explored) or an id in the matrix
// population, duplicates very much included.
func decodeNodes(data []byte, n int) []NodeID {
	out := make([]NodeID, 0, n)
	for i := 0; i < n && i < len(data); i++ {
		v := int(data[i]) % (fuzzChordPop + 1)
		if v == fuzzChordPop {
			out = append(out, NoNode)
		} else {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// FuzzClosestPreceding drives the scratch-buffer routine against the naive
// reference over fuzz-shaped routing state.
func FuzzClosestPreceding(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32, 32, 0, 0, 31}, uint64(1<<63), uint8(0))
	f.Add([]byte{}, uint64(0), uint8(3))
	f.Add([]byte{32, 32, 32, 32}, uint64(^uint64(0)), uint8(31))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 9}, uint64(12345), uint8(7))
	// Runs of one finger interrupted by NoNode (32) and by self (3), and a
	// run that resumes after another node.
	f.Add([]byte{4, 4, 32, 4, 3, 4, 9, 9, 4, 4, 9, 4, 4, 3, 3, 9}, uint64(1<<62), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, key uint64, selfRaw uint8) {
		c := fuzzChordInstance()
		self := NodeID(int(selfRaw) % fuzzChordPop)
		split := len(data) / 2
		st := &chordState{
			ringID:  c.RingIDOf(self),
			fingers: decodeNodes(data[:split], 64),
			succs:   decodeNodes(data[split:], 8),
			cp:      &c.cp[0],
		}
		got := c.closestPreceding(st, self, key)
		want := refClosestPreceding(c, st, self, key)
		if len(got) != len(want) {
			t.Fatalf("closestPreceding returned %v, reference %v (fingers %v, succs %v, key %d, self %d)",
				got, want, st.fingers, st.succs, key, self)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("closestPreceding[%d] = %d, reference %d (full: %v vs %v)", i, got[i], want[i], got, want)
			}
		}
	})
}
