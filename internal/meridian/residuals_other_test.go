//go:build !amd64

package meridian

// eachKernel runs f under the one residual kernel this architecture has.
func eachKernel(f func(kernel string)) { f("portable") }
