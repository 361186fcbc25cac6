package xrand

import "math"

// Zipf draws integers in [0, n) with probability proportional to
// 1/(i+1)^s. It uses precomputed cumulative weights and binary search,
// which is plenty fast for workload construction (not on a scheduler hot
// path). The zero value is invalid; use NewZipf.
type Zipf struct {
	cum []float64
	r   *Rand
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("xrand: Zipf with non-positive exponent")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, r: r}
}

// Draw returns the next Zipf-distributed value.
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
