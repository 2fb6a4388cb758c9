package meridian_test

import (
	"testing"

	"nearestpeer/internal/benchhot"
	"nearestpeer/internal/meridian"
	"nearestpeer/internal/overlay"
	"nearestpeer/internal/testmat"
)

// The build and selection bodies live in internal/benchhot, shared with
// cmd/benchscale's meridian_build and meridian_select rows.

func BenchmarkOverlayBuild(b *testing.B) { benchhot.MeridianBuild(b) }

func BenchmarkHypervolumeSelection(b *testing.B) { benchhot.MeridianSelect(b) }

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
