// Package xrand provides small, fast, seedable pseudo-random number
// generators for scheduler decisions.
//
// Work-stealing victim selection needs an RNG that is (a) cheap — a steal
// attempt is a few dozen nanoseconds, so math/rand's locked global source
// is unacceptable on the hot path — and (b) reproducible, so that the
// discrete-event simulator produces bit-identical experiment tables across
// runs. Each worker owns a private generator seeded from a master seed and
// its worker id via SplitMix64, the standard seeding procedure for the
// xoshiro family.
package xrand

import "math/bits"

// SplitMix64 advances the given state and returns the next output of the
// SplitMix64 sequence. It is used to derive well-distributed seeds from
// small integers.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
// It is not safe for concurrent use — each worker owns its own Rand.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64. Any seed,
// including 0, yields a valid non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// SeedWorker reinitializes the generator to worker id's stream under a
// master seed, such that distinct ids get decorrelated streams. It does
// not allocate: a persistent engine reseeds its workers in place before
// every run so repeated runs draw identical victim sequences.
func (r *Rand) SeedWorker(master uint64, id int) {
	r.Seed(master ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
}

// Seed reinitializes the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = SplitMix64(&seed)
	}
	// xoshiro requires a nonzero state; SplitMix64 of anything cannot
	// produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift bounded generation avoids the modulo on the hot
// path; the slight bias (< 2^-32 for n < 2^32) is irrelevant for victim
// selection.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
