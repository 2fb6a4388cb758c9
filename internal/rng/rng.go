// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator and experiment harness.
//
// Every experiment in this repository is driven from a single int64 seed.
// Sub-systems (topology generation, measurement noise, query scheduling,
// per-algorithm randomness) each derive an independent stream with Split, so
// adding randomness to one component never perturbs another component's
// stream. This is what makes `go test` and `cmd/figures` byte-reproducible.
//
// Every stream is math/rand's for its seed, draw for draw: New(seed) gives
// exactly the values rand.New(rand.NewSource(seed)) gives. Only the cost
// differs — a stream holds ~100 bytes until its 129th draw instead of
// math/rand's 4.9 KB register (see source.go).
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It embeds *rand.Rand so call
// sites keep the familiar math/rand API (Float64, Intn, Perm, ...), and adds
// Split for deriving independent child streams.
type Source struct {
	*rand.Rand
	seed int64
	gen  source // the generator behind Rand, in the same allocation
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.gen.Seed(seed)
	s.Rand = rand.New(&s.gen)
	return s
}

// Seed returns the seed the Source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent child stream identified by label. The same
// (seed, label) pair always yields the same stream, regardless of how much
// randomness has been consumed from the parent.
func (s *Source) Split(label string) *Source {
	return New(s.seed ^ hashLabel(label))
}

// SplitN derives an independent child stream identified by a label and an
// index, for per-item streams (per-cluster, per-query, per-run...).
func (s *Source) SplitN(label string, n int) *Source {
	const golden = int64(-0x61C8864680B583EB) // 2^64 / phi, as a signed value
	return New(s.seed ^ hashLabel(label) ^ (int64(n)+1)*golden)
}

// hashLabel is FNV-1a over the label, widened to 64 bits.
func hashLabel(label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return int64(h)
}

// Uniform returns a float64 uniformly distributed in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// LogNormal returns a sample from a log-normal distribution with the given
// location mu and scale sigma (parameters of the underlying normal).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return exp(mu + sigma*s.NormFloat64())
}

// Exponential returns a sample from an exponential distribution with the
// given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.ExpFloat64() * mean
}

// Pareto returns a sample from a Pareto distribution with minimum xm and
// shape alpha. Heavy-tailed sizes (cluster occupancy, swarm membership) use
// this.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / pow(u, 1/alpha)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

func exp(x float64) float64    { return math.Exp(x) }
func pow(x, y float64) float64 { return math.Pow(x, y) }
