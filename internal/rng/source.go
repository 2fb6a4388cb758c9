package rng

import "math/rand"

// The generator behind every Source is math/rand's own: the additive
// lagged-Fibonacci generator of Mitchell and Reeds, x[n] = x[n−607] +
// x[n−273] over a register of regLen 64-bit words. math/rand seeds the whole register up front — 1,841
// serial steps of a Lehmer LCG mixed into a table of cooked constants — so
// every rand.NewSource costs a 4.9 KB array and ~14 µs, although most of
// this repository's streams draw fewer than a hundred values.
//
// source computes the seeded register on demand instead. Seeded word i is
//
//	cooked[i] ^ (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]),
//
// where x[n] = x0·48271ⁿ mod (2³¹−1) and x0 is the seed reduced exactly as
// math/rand reduces it. x[n] is one multiplication by a shared power table,
// so any word is O(1) from (x0, i). The first lazyDraws draws read taps the
// feed has not yet overwritten (the feed writes words 334−k, the taps read
// 607−k, and the two ranges meet only after regTap draws), so draw k is
// word(334−k) + word(607−k) and nothing needs storing. Draw lazyDraws+1
// builds the register with those draws' writes applied and continues with
// math/rand's loop. Every seed yields math/rand's stream, draw for draw.
type source struct {
	x0        uint64         // seed reduced into [1, lcgMod)
	tap, feed int            // register cursors, as math/rand keeps them
	vec       *[regLen]int64 // the register; nil until draw lazyDraws+1
}

const (
	regLen = 607 // register length (math/rand's rngLen)
	regTap = 273 // lag between feed and tap (rngTap)

	lcgMod  = 1<<31 - 1 // modulus of math/rand's seeding LCG
	lcgMul  = 48271     // its multiplier
	lcgZero = 89482311  // the seed math/rand substitutes for 0

	// lazyDraws is how many draws a stream serves from the formula before
	// it materialises the register; it must not exceed regTap. A formula
	// draw is six multiplications against the register loop's one add, so
	// the bound is sized to the short streams (a chord member's stabilize
	// jitter draws 32–63 values, a topology stream 4–7), not to regTap.
	lazyDraws = 128
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1), for every LCG step seeding touches.
	lcgPow [21 + 3*regLen]uint64
	// cooked is math/rand's unexported rngCooked table.
	cooked [regLen]int64
)

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = lcgPow[n-1] * lcgMul % lcgMod
	}
	recoverCooked()
}

// recoverCooked reads cooked back out of math/rand's seed-1 stream. With
// S the seeded register and out[k] the k-th Uint64 (1-based), draw k adds
// tap (−k mod 607) into feed (334−k mod 607). Past draw regTap the tap
// holds draw k−regTap's output while the feed is still unwritten, so
// S[feed] = out[k] − out[k−regTap] for k in (regTap, regLen]; that covers
// every word except 61..333, which draws 1..regTap give as
// out[k] − S[607−k]. Stripping seed 1's LCG mix from S leaves cooked.
func recoverCooked() {
	oracle := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]int64
	for k := 1; k <= regLen; k++ {
		out[k] = int64(oracle.Uint64())
	}
	var seeded [regLen]int64
	for k := regTap + 1; k <= regLen; k++ {
		seeded[(2*regLen-regTap-k)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		seeded[regLen-regTap-k] = out[k] - seeded[regLen-k]
	}
	one := source{x0: 1}
	for i := range cooked {
		cooked[i] = seeded[i] ^ one.word(i)
	}
}

// word returns seeded register word i. While recoverCooked runs, cooked
// is still zero and word is the LCG mix alone.
func (s *source) word(i int) int64 {
	p := lcgPow[21+3*i : 24+3*i]
	x := s.x0
	return cooked[i] ^ int64(x*p[0]%lcgMod)<<40 ^ int64(x*p[1]%lcgMod)<<20 ^ int64(x*p[2]%lcgMod)
}

// Seed resets the stream to the one math/rand's Seed gives seed.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZero
	}
	// The tap starts one lap past math/rand's 0, the same position mod
	// regLen, so the formula draws need no wrap.
	*s = source{x0: uint64(seed), tap: regLen, feed: regLen - regTap}
}

// Uint64 returns the next value of math/rand's stream.
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.feed > regLen-regTap-lazyDraws {
			s.tap--
			s.feed--
			return uint64(s.word(s.feed) + s.word(s.tap))
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of math/rand's stream, top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// materialize builds the register as math/rand holds it after the formula
// draws: every seeded word, plus the feed writes those draws deferred.
func (s *source) materialize() {
	v := new([regLen]int64)
	for i := range v {
		v[i] = s.word(i)
	}
	for f := s.feed; f < regLen-regTap; f++ {
		v[f] += v[f+regTap]
	}
	s.vec = v
}
