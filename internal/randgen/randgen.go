// Package randgen provides the deterministic pseudo-random machinery used
// throughout the IM-GRN system: an xoshiro256** generator seeded via
// SplitMix64, Gaussian and uniform variates, and Fisher–Yates permutation
// sampling (the randomization technique behind the paper's edge-probability
// measure, Definition 2).
//
// Every consumer of randomness in this repository threads an explicit *Rand
// so that data generation, Monte Carlo estimation, and pivot selection are
// all reproducible from a single seed, which in turn makes the experiment
// harness deterministic.
package randgen

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is NOT safe for concurrent use; derive per-goroutine generators with
// Split.
type Rand struct {
	s [4]uint64
	// cached second Gaussian from the polar Box–Muller transform
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from seed via SplitMix64, so that nearby
// seeds still produce well-separated state.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed resets r in place to the exact state New(seed) would return,
// including the cached Box–Muller Gaussian. It lets hot loops that need a
// fresh deterministic stream per work unit (e.g. per-candidate refinement
// scorers) reuse one generator instead of allocating a new one each time.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.gauss = 0
	r.hasGauss = false
}

// Split derives an independent generator from r, advancing r. It is the
// mechanism for handing deterministic sub-streams to parallel workers.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SeedFrom deterministically derives a child seed from base and a sequence
// of work-unit coordinates (a data source ID, a column pair, ...). Unlike
// Split it is stateless: the same coordinates always yield the same seed,
// so parallel query workers can seed their generators per work unit rather
// than per goroutine, making results independent of the goroutine
// schedule. Each coordinate is folded in with a SplitMix64 finalization
// round, so nearby coordinates produce well-separated seeds.
func SeedFrom(base uint64, coords ...uint64) uint64 {
	z := base
	for _, c := range coords {
		z += 0x9e3779b97f4a7c15 + c
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// step is one xoshiro256** transition on a state held in four words: it
// returns the output and the successor state. Every draw in this package
// goes through it, so the hot loops below can keep the state in locals
// (registers) and store it back once.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	var v uint64
	v, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return v
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling keeps it branch-light.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randgen: Intn with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// UniformIn returns a uniform float64 in [lo, hi).
func (r *Rand) UniformIn(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntIn returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) IntIn(lo, hi int) int {
	if hi < lo {
		panic("randgen: IntIn with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a standard-normal variate via the polar Box–Muller
// transform (Marsaglia). Consecutive values come in cached pairs.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Shuffle permutes x in place with the Fisher–Yates algorithm.
func (r *Rand) Shuffle(x []float64) { shuffle(r, x) }

// ShuffleInts permutes x in place with the Fisher–Yates algorithm.
func (r *Rand) ShuffleInts(x []int) { shuffle(r, x) }

// shuffle is the Fisher–Yates loop behind Shuffle, ShuffleInts and
// PermuteInto: for i = len(x)-1 down to 1 it swaps x[i] with x[Intn(i+1)].
// It consumes exactly the draws of that Intn sequence, with the generator
// state held in locals for the whole loop and Lemire's rejection branch
// inlined, so the stream and the permutation match the one-call-per-swap
// form bit for bit.
func shuffle[T any](r *Rand, x []T) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var v uint64
	for i := len(x) - 1; i > 0; i-- {
		n := uint64(i + 1)
		v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		j, lo := bits.Mul64(v, n)
		if lo < n {
			thresh := -n % n
			for lo < thresh {
				v, s0, s1, s2, s3 = step(s0, s1, s2, s3)
				j, lo = bits.Mul64(v, n)
			}
		}
		x[i], x[j] = x[j], x[i]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// PermuteInto writes a fresh uniform random permutation of src into dst,
// the randomized vector X^R of Definition 2. dst and src must have equal
// length; dst is fully overwritten. No allocation occurs, which matters in
// the Monte Carlo hot loop.
func (r *Rand) PermuteInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("randgen: PermuteInto length mismatch")
	}
	copy(dst, src)
	shuffle(r, dst)
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n).
// It panics if k > n. The result is in selection order (itself uniform).
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("randgen: sample size exceeds population")
	}
	// Partial Fisher–Yates over an index table.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}
