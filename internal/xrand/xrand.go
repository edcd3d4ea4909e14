// Package xrand provides the deterministic pseudo-random machinery the
// simulator is built on. Every stochastic decision in the repository —
// physical frame placement, timing jitter, victim data, train/test
// splits — draws from a seeded xrand.Source, so any experiment is
// exactly reproducible from its seed.
//
// The generator is SplitMix64 feeding xoshiro256**, both public-domain
// algorithms with excellent statistical behaviour and trivial state.
package xrand

import "math"

// Source is a deterministic random number generator. It is not safe
// for concurrent use; give each simulated component its own Source
// (use Split) so that adding a consumer does not perturb the streams
// seen by others.
type Source struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// splitmix64 advances a 64-bit state and returns a well-mixed output;
// used only for seeding.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64At returns the nth output (n = 0 first) of the splitmix64
// stream seeded with seed, without materializing the stream. Exported
// so seed-derivation elsewhere (the experiment trial runner) uses the
// exact generator and constants this package seeds Sources with.
func SplitMix64At(seed uint64, n uint64) uint64 {
	st := seed + n*0x9e3779b97f4a7c15
	return splitmix64(&st)
}

// New returns a Source seeded from the given seed. Distinct seeds give
// independent streams.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed reinitializes the Source in place to exactly the state
// New(seed) returns, including clearing the cached normal deviate.
// This is the allocation-free path machine pooling uses to rewind
// every RNG stream between trials.
func (s *Source) Reseed(seed uint64) {
	st := seed
	for i := range s.s {
		s.s[i] = splitmix64(&st)
	}
	// xoshiro must not be seeded all-zero; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	s.spare, s.haveSpare = 0, false
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Split derives an independent child Source. The child's stream is a
// pure function of the parent state at the moment of the call, and the
// parent advances by one draw, so sibling splits are independent too.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa0761d6478bd642f)
}

// ReseedFrom reinitializes s in place to exactly the state
// parent.Split() would return, advancing parent by one draw. Machine
// reset uses it to replay the construction-time stream derivations
// without allocating new Sources.
func (s *Source) ReseedFrom(parent *Source) {
	s.Reseed(parent.Uint64() ^ 0xa0761d6478bd642f)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		x := s.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	return a1*b1 + t>>32 + w1>>32, a * b
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal deviate (Box–Muller, one value per
// call; the spare is cached).
func (s *Source) Norm() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap
// function (Fisher–Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Bool returns a fair random boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }
