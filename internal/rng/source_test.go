package rng

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// edgeSeeds are the seeds at the edges of math/rand's seed reduction (mod
// 2³¹−1, negatives wrapped, 0 → 89482311) and of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, lcgZero, -lcgZero, lcgZero + lcgMod,
	lcgMod, -lcgMod, 2 * lcgMod, 5 * lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod + 1,
	1 << 31, 1<<31 + 1, 1 << 32, -(1 << 31), 1 << 62,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// testSeeds returns the edge seeds plus n seeds spread over int64.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(2008))
	for range n {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand draws two register lengths and more from a
// fresh source and from math/rand's for each seed, alternating Uint64 and
// Int63, and reports the first difference.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(200) {
		var s source
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= 2*regLen+50; k++ {
			if k%3 == 0 {
				if g, w := s.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, k, g, w)
				}
				continue
			}
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, k, g, w)
			}
		}
	}
}

// TestRandMethodsMatchMathRand runs every *rand.Rand method the repository
// calls on a Source and on math/rand's generator for the same seed.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds(40) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 40; round++ {
			check := func(method string, g, w any) {
				if g != w {
					t.Fatalf("seed %d round %d: %s = %v, math/rand gives %v", seed, round, method, g, w)
				}
			}
			check("Intn", got.Intn(1000), want.Intn(1000))
			check("Intn(2^40)", got.Intn(1<<40), want.Intn(1<<40))
			check("Int63n", got.Int63n(12345), want.Int63n(12345))
			check("Int63", got.Int63(), want.Int63())
			check("Uint64", got.Uint64(), want.Uint64())
			check("Uint32", got.Uint32(), want.Uint32())
			check("Float64", got.Float64(), want.Float64())
			check("NormFloat64", got.NormFloat64(), want.NormFloat64())
			check("ExpFloat64", got.ExpFloat64(), want.ExpFloat64())
			gp, wp := got.Perm(9), want.Perm(9)
			for i := range gp {
				check("Perm", gp[i], wp[i])
			}
			gs, ws := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
			got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			for i := range gs {
				check("Shuffle", gs[i], ws[i])
			}
		}
	}
}

// TestSourceFootprint holds a short stream to the lazy register: New plus
// lazyDraws draws must stay far below math/rand's 4.9 KB register.
func TestSourceFootprint(t *testing.T) {
	const streams = 2000
	keep := make([]*Source, streams)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		s := New(int64(i))
		for range lazyDraws {
			s.Int63()
		}
		keep[i] = s
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / streams; per > 256 {
		t.Fatalf("New + %d draws allocates %d B per stream, want at most 256", lazyDraws, per)
	}
	runtime.KeepAlive(keep)
}

var sink int64

// BenchmarkSourceShort is the typical stream here: seeded, forty draws
// (a chord member's stabilize jitter), dropped.
func BenchmarkSourceShort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		for range 40 {
			sink += s.Int63()
		}
	}
}

// BenchmarkSourceLong is a stream that outlives the formula draws and runs
// math/rand's register loop.
func BenchmarkSourceLong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		for range 2000 {
			sink += s.Int63()
		}
	}
}

// FuzzSourceMatchesMathRand compares a stream with math/rand's for any
// seed, up to two register lengths of draws, with an optional mid-stream
// Seed before draw reseedAt (0: none).
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16, reseed int64) {
		n := int(draws) % (2*regLen + 1)
		var s source
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= n; k++ {
			if k == int(reseedAt) {
				s.Seed(reseed)
				want.Seed(reseed)
			}
			if g, w := s.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d (reseed %d at %d): draw %d = %d, math/rand gives %d", seed, reseed, reseedAt, k, g, w)
			}
		}
	})
}
