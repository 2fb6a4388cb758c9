package meridian

// useAVX selects the AVX residual kernel. Package initialisation sets it
// from CPUID: the CPU has AVX and the OS saves the YMM registers. Nothing
// but the kernel tests changes it afterwards.
var useAVX = cpuHasAVX()

// cpuHasAVX reports CPUID's AVX and OSXSAVE bits and XGETBV's enabled XMM
// and YMM state.
func cpuHasAVX() bool

// residualsAVX replaces the first dim rows of v, sixteen lane-major
// candidates, by their Gram–Schmidt residuals against basis and writes the
// residual norms to out. Four YMM registers of four lanes each carry the
// arithmetic, with only VBROADCASTSD, VMULPD, VADDPD, VSUBPD and VSQRTPD, so
// every lane takes residuals' IEEE operations in residuals' order.
//
//go:noescape
func residualsAVX(v *[maxSelectionPool][scoreBlock]float64, dim int, basis []float64, out *[scoreBlock]float64)

// score returns the Gram–Schmidt residual norms of the candidates whose lat
// rows start at rows[0], ..., rows[15]: the first lanes of them are real,
// the rest repeat the last. With AVX all sixteen are gathered into o.block
// and scored in one residualsAVX pass; without, scorePortable scores them
// four at a time.
func (o *Overlay) score(lat []float64, n int, rows [scoreBlock]int, lanes int, sel []int, origin, basis []float64) *[scoreBlock]float64 {
	if !useAVX {
		return o.scorePortable(lat, n, rows, lanes, sel, origin, basis)
	}
	for j, s := range sel {
		org, v, col := origin[j], &o.block[j], lat[s:]
		for l := range rows {
			v[l] = col[rows[l]] - org
		}
	}
	residualsAVX(&o.block, len(sel), basis, &o.res)
	return &o.res
}
