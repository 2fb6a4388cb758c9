package meridian

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// eachKernel runs f under every residual kernel this CPU has, the portable
// one first, and leaves the package's choice as it found it.
func eachKernel(f func(kernel string)) {
	defer func(avx bool) { useAVX = avx }(useAVX)
	useAVX = false
	f("portable")
	if cpuHasAVX() {
		useAVX = true
		f("avx")
	}
}

// TestResidualsAVXMatchesPortable holds the AVX kernel to the portable one
// bit for bit — the residual norms and the residual vectors each leaves
// behind — at every dimension a 64-candidate pool reaches, with 0 to dim-1
// basis rows and from 1 to 16 real lanes, the rest repeating the last.
func TestResidualsAVXMatchesPortable(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX on this CPU")
	}
	defer func(avx bool) { useAVX = avx }(useAVX)
	useAVX = true
	const n = maxSelectionPool + scoreBlock
	r := rand.New(rand.NewPCG(1, 2))
	o := &Overlay{}
	lat := make([]float64, n*n)
	for _, g := range residualInputs() {
		// Small dimensions have few basis sizes, so they get more draws.
		for dim := 2; dim < maxSelectionPool; dim++ {
			for range 1 + 32/dim {
				checkResidualKernels(t, r, o, g, lat, n, dim)
			}
		}
	}
}

// checkResidualKernels draws one latency matrix, one sel and one origin of
// dim members, and scores one block of 1 to 16 real lanes for every basis
// size against them under both kernels.
func checkResidualKernels(t *testing.T, r *rand.Rand, o *Overlay, g residualInput, lat []float64, n, dim int) {
	t.Helper()
	for i := range lat {
		lat[i] = g.lat(r)
	}
	perm := r.Perm(n)
	sel, cands := perm[:dim], perm[dim:]
	origin := make([]float64, dim)
	for j := range origin {
		origin[j] = g.origin(r)
	}
	for nb := 0; nb < dim; nb++ {
		basis := make([]float64, nb*dim)
		for i := range basis {
			basis[i] = g.basis(r)
		}
		lanes := 1 + r.IntN(scoreBlock)
		var rows [scoreBlock]int
		for l := range rows {
			rows[l] = cands[min(l, lanes-1)] * n
		}
		got := *o.score(lat, n, rows, lanes, sel, origin, basis)
		where := fmt.Sprintf("%s, dim %d, %d basis rows, %d lanes", g.name, dim, nb, lanes)
		for q := 0; q < lanes; q += 4 {
			want := o.residuals(lat, n, [4]int(rows[q:q+4]), sel, origin, basis)
			for k, w := range want {
				l := q + k
				if a, b := math.Float64bits(got[l]), math.Float64bits(w); a != b {
					t.Fatalf("%s: lane %d norm %v (%#x), portable %v (%#x)", where, l, got[l], a, w, b)
				}
				for j := range dim {
					gx, wx := o.block[j][l], o.v[k][j]
					if a, b := math.Float64bits(gx), math.Float64bits(wx); a != b {
						t.Fatalf("%s: lane %d coordinate %d %v (%#x), portable %v (%#x)", where, l, j, gx, a, wx, b)
					}
				}
			}
		}
	}
}

// residualInput draws latencies, origin coordinates and basis entries.
type residualInput struct {
	name               string
	lat, origin, basis func(r *rand.Rand) float64
}

func residualInputs() []residualInput {
	pick := func(r *rand.Rand, xs ...float64) float64 { return xs[r.IntN(len(xs))] }
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	random := func(r *rand.Rand) float64 { return 400*r.Float64() - 200 }
	lattice := func(r *rand.Rand) float64 { return 3 * float64(r.IntN(13)-6) }
	subnormal := func(r *rand.Rand) float64 {
		return pick(r, tiny*float64(r.IntN(2001)-1000), 1e-160*(2*r.Float64()-1), negZero, 1e-300)
	}
	huge := func(r *rand.Rand) float64 { return pick(r, 1e300, -1e300, 1e300*(r.Float64()+0.5), 1, 0) }
	return []residualInput{
		{"random", random, random, func(r *rand.Rand) float64 { return 2*r.Float64() - 1 }},
		// Coarse lattice coordinates and axis or diagonal basis entries:
		// exact ties between lanes, and sums that cancel to zero.
		{"lattice", lattice, lattice,
			func(r *rand.Rand) float64 { return pick(r, 0, 1, -1, 0.5, -0.5, math.Sqrt2/2, -math.Sqrt2/2) }},
		// Signed zeros: -0 latencies less a +0 origin leave -0
		// coordinates, whose products with +0 or 1 are -0. A dot product
		// of -0s is -0 only if its chain does not start from +0, and
		// -0 - p*b keeps its sign only if p*b is +0.
		{"signed-zero",
			func(r *rand.Rand) float64 { return pick(r, negZero, negZero, negZero, 0, 1, -1) },
			func(r *rand.Rand) float64 { return pick(r, 0, 0, 0, negZero) },
			func(r *rand.Rand) float64 { return pick(r, 0, negZero, 1, -1) }},
		// Subnormal coordinates, and products of 1e-160s that underflow
		// into the subnormal range.
		{"subnormal", subnormal, subnormal,
			func(r *rand.Rand) float64 { return pick(r, 1e-160*(2*r.Float64()-1), 2*r.Float64()-1, tiny) }},
		// 1e300 magnitudes: squares and projections overflow to ±Inf, and
		// Inf - Inf or 0 * Inf makes NaN.
		{"huge", huge, huge,
			func(r *rand.Rand) float64 { return pick(r, 2*r.Float64()-1, 1e300, -1, 1e-300) }},
	}
}
