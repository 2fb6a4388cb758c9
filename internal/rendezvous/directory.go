// Package rendezvous implements the paper's second mitigation (Section 5):
// a membership-tracking server inside each end network. Peers register with
// their local server on joining a P2P system; a joining peer asks the
// server for the current members and probes them. Directory is the static
// finder over a noiseless overlay.Network in matrix-index space (member i
// is row i of a latency matrix and a runtime NodeID), so it is an exact
// oracle for the message-level Wire. The paper's stated concern — the
// server "needs a sufficiently large number of peers within each
// end-network to justify the setup" — shows as the searchers whose end
// network holds nobody else: they find nothing.
package rendezvous

import (
	"math"
	"sort"

	"nearestpeer/internal/overlay"
)

// Directory is the static rendezvous finder: every member registers with
// the directory of its own end network, and a searcher probes exactly its
// own end network's registration list. No probes leave the end network —
// the scheme's whole bet is that the nearest peer shares yours.
type Directory struct {
	net  *overlay.Network
	enOf map[int]int
	byEN map[int][]int // registration lists, sorted ascending
}

// NewDirectory builds the directory over a member set; enOf gives each
// member's end-network id (in any space, only equality matters).
func NewDirectory(net *overlay.Network, members []int, enOf func(m int) int) *Directory {
	d := &Directory{net: net, enOf: make(map[int]int, len(members)), byEN: make(map[int][]int)}
	for _, m := range members {
		en := enOf(m)
		d.enOf[m] = en
		d.byEN[en] = append(d.byEN[en], m)
	}
	for _, list := range d.byEN {
		sort.Ints(list)
	}
	return d
}

// Candidates returns the registration list a member's query would fetch:
// its own end network's members, itself excluded, sorted ascending.
func (d *Directory) Candidates(target int) []int {
	var out []int
	for _, m := range d.byEN[d.enOf[target]] {
		if m != target {
			out = append(out, m)
		}
	}
	return out
}

// FindNearest implements overlay.Finder. A member whose end network holds
// no other registration finds nothing (Peer −1) — the coverage failure the
// paper's Section 6 measures.
func (d *Directory) FindNearest(target int) overlay.Result {
	best, bestLat := -1, math.Inf(1)
	var probes int64
	for _, m := range d.Candidates(target) {
		l := d.net.Probe(m, target)
		probes++
		if l < bestLat {
			best, bestLat = m, l
		}
	}
	return overlay.Result{Peer: best, LatencyMs: bestLat, Probes: probes, Hops: 0}
}
