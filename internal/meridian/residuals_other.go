//go:build !amd64

package meridian

// score returns the Gram–Schmidt residual norms of the candidates whose lat
// rows start at rows[0], ..., rows[15]: the first lanes of them are real,
// the rest repeat the last.
func (o *Overlay) score(lat []float64, n int, rows [scoreBlock]int, lanes int, sel []int, origin, basis []float64) *[scoreBlock]float64 {
	return o.scorePortable(lat, n, rows, lanes, sel, origin, basis)
}
