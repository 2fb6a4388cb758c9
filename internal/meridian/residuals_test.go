package meridian

import (
	"slices"
	"testing"

	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

var sinkBest int

// BenchmarkResiduals is one full-pool scoring round under each kernel this
// CPU has: the 56 candidates of a 64-member pool that hypervolume selection
// leaves after picking 8, gathered into four blocks and scored against the
// 7-row basis of those 8, as the seventh round of a ring trim does.
func BenchmarkResiduals(b *testing.B) {
	const n, picked = maxSelectionPool, 8
	o := &Overlay{net: overlay.NewNetwork(testmat.Euclidean(n, 1))}
	pool := make([]ringEntry, n)
	for i := range pool {
		pool[i].id = i
	}
	sel := slices.Clone(o.hypervolumeSubset(pool, picked))
	var rest []int
	for c := range n {
		if !slices.Contains(sel, c) {
			rest = append(rest, c)
		}
	}
	lat := o.lat[:n*n]
	origin, basis := o.span(lat, n, sel)
	eachKernel(func(kernel string) {
		b.Run(kernel, func(b *testing.B) {
			for b.Loop() {
				sinkBest = o.farthest(lat, n, rest, sel, origin, basis)
			}
		})
	})
}
