// Package rng provides deterministic, splittable pseudo-random streams.
//
// Every stochastic component in the repository (signal synthesis, sensor
// noise, dataset sampling, network initialization) draws from an rng.Source
// so that experiments are exactly reproducible from a single seed, and so
// that independent subsystems can be given independent sub-streams that do
// not perturb each other when one subsystem changes how many variates it
// consumes.
//
// The generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend. It is not cryptographically secure; it is a simulation PRNG.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random stream.
//
// The zero value is not usable; construct with New or Split.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output.
// It is used only to expand seeds into full generator state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state. SplitMix64
	// cannot emit four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is independent of the receiver's
// subsequent output. label distinguishes sibling splits taken at the same
// point of the parent stream.
//
// Split consumes one draw of the receiver, so the order of a Source's
// Split calls fixes every stream derived from it: Split(3) taken after
// Split(1) and Split(2) differs from Split(3) taken first. Code that
// must keep a derived stream unchanged keeps the calls before it.
func (r *Source) Split(label uint64) *Source {
	mix := r.Uint64() ^ (label * 0xd1342543de82ef95)
	return New(mix)
}

// Float64 returns a uniform variate in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Norm returns a standard normal variate (Marsaglia polar method).
func (r *Source) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormSigma returns a normal variate with mean mu and standard deviation
// sigma.
func (r *Source) NormSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Norm()
}

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	return -mean * math.Log(1-r.Float64())
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap (Fisher-Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }
