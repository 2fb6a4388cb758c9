package meridian_test

import (
	"testing"

	"nearestpeer/internal/latency"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

// BenchmarkOverlayBuild is static Meridian construction at the Section 4
// defaults: 380 members of a 400-point Euclidean space gossip-sample, measure
// and trim their rings. Allocations per op are the overlay's own storage; a
// selection or a sampled candidate that allocated would multiply them.
func BenchmarkOverlayBuild(b *testing.B) {
	m := testmat.Euclidean(400, 1)
	members, _ := overlay.Split(400, 20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meridian.New(overlay.NewNetwork(m), members, meridian.DefaultConfig(), int64(i))
	}
}

// BenchmarkOverlayBuildClustered is construction on fig8 quick's 125-EN
// point: 1,140 members of a 1,200-peer clustered matrix, computed on demand
// as Fig8's is, so this is where the farthest-pair sweep's row reads of the
// Section 4 model show.
func BenchmarkOverlayBuildClustered(b *testing.B) {
	m, _ := testmat.Clustered(125, 1200, 1)
	members, _ := overlay.Split(m.N(), 60, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meridian.New(overlay.NewNetwork(m), members, meridian.DefaultConfig(), int64(i))
	}
}

// BenchmarkHypervolumeSelection is the hypervolume ring-selection kernel
// with as little around it as the exported API allows: 65 members whose
// pairwise RTTs all lie past the outermost ring's inner radius (256 ms), so
// every node trims one over-full ring from a full 64-candidate pool. One op
// is 65 selections (2,016 pairwise probes and 14 Gram–Schmidt rounds each).
func BenchmarkHypervolumeSelection(b *testing.B) {
	m := outerRing{testmat.Euclidean(65, 1)}
	members := make([]int, 65)
	for i := range members {
		members[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meridian.New(overlay.NewNetwork(m), members, meridian.DefaultConfig(), int64(i))
	}
}

// outerRing shifts every distinct pair's RTT by 256 ms, into Meridian's
// outermost ring.
type outerRing struct{ latency.Matrix }

func (m outerRing) LatencyMs(i, j int) float64 {
	if i == j {
		return 0
	}
	return 256 + m.Matrix.LatencyMs(i, j)
}

func BenchmarkFindNearest(b *testing.B) {
	m := testmat.Euclidean(400, 1)
	members, targets := overlay.Split(400, 20, 2)
	o := meridian.New(overlay.NewNetwork(m), members, meridian.DefaultConfig(), 3)
	for _, tgt := range targets {
		o.FindNearest(tgt) // grow the walk's scratch, so even -benchtime=1x reads 0 allocs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = o.FindNearest(targets[i%len(targets)])
	}
}
