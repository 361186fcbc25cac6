package main

import "sort"

// quantile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between order statistics. It sorts xs in place and
// returns 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a count that never
// happened has no rate).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// refFirst reports whether block b runs its reference slice before its
// engine slice. The order flips every block, so any two consecutive
// blocks read R E E R: a drift that is linear over the pair adds the same
// amount to both sides and cancels out of their ratio.
func refFirst(b int) bool { return b%2 == 0 }

// tracedBlock reports whether block b of a traced run records spans.
// Tracing alternates in pairs, so the traced and the untraced set each
// hold both slice orders and trace.overhead_share compares like with like.
func tracedBlock(b int) bool { return (b/2)%2 == 0 }
