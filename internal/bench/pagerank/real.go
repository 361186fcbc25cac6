package pagerank

import (
	"math"

	"nabbitc/internal/core"
	"nabbitc/internal/graphs"
	"nabbitc/internal/omp"
)

// Real is an executable PageRank instance: actual rank vectors over the
// generated crawl, double-buffered per iteration. Single-use.
type Real struct {
	pr    *PageRank
	ranks [2][]float64
}

// NewReal initializes the uniform starting vector.
func (pr *PageRank) NewReal() *Real {
	pr.build()
	nv := pr.g.NV()
	r := &Real{pr: pr}
	for i := range r.ranks {
		r.ranks[i] = make([]float64, nv)
	}
	init := 1.0 / float64(nv)
	for v := range r.ranks[0] {
		r.ranks[0][v] = init
	}
	return r
}

// computeBlock pulls iteration it's new ranks for block b:
// rank'[v] = (1-d)/N + d * Σ_{u→v} rank[u]/outdeg(u).
func (r *Real) computeBlock(it, b int) {
	pr := r.pr
	src, dst := r.ranks[it%2], r.ranks[(it+1)%2]
	nv := pr.g.NV()
	lo, hi := graphs.BlockRange(b, nv, pr.cfg.Blocks)
	base := (1 - pr.cfg.Damping) / float64(nv)
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range pr.tg.Neighbors(v) {
			sum += src[u] / float64(pr.g.OutDegree(int(u)))
		}
		dst[v] = base + pr.cfg.Damping*sum
	}
}

// Spec returns a task-graph spec computing real ranks.
func (r *Real) Spec(p int) (core.CostSpec, core.Key) {
	pr := r.pr
	return core.FuncSpec{
		PredsFn: pr.preds,
		ColorFn: func(k core.Key) int { return pr.colorOf(k, p) },
		ComputeFn: func(k core.Key) {
			if k == pr.sink() {
				return
			}
			r.computeBlock(int(k)/pr.cfg.Blocks, int(k)%pr.cfg.Blocks)
		},
		FootprintFn: pr.footprint,
		BoundFn:     pr.keyBound,
	}, pr.sink()
}

// RunSerial executes all iterations in block order.
func (r *Real) RunSerial() {
	c := r.pr.cfg
	for it := 0; it < c.Iterations; it++ {
		for b := 0; b < c.Blocks; b++ {
			r.computeBlock(it, b)
		}
	}
}

// RunOpenMP executes the power iterations as barriered parallel-fors.
func (r *Real) RunOpenMP(team *omp.Team, sched omp.Schedule) {
	c := r.pr.cfg
	team.ForSweeps(c.Iterations, c.Blocks, sched, func(s, b, w int) {
		r.computeBlock(s, b)
	})
}

// Final returns the converged rank vector.
func (r *Real) Final() []float64 {
	return r.ranks[r.pr.cfg.Iterations%2]
}

// TotalRank returns the rank mass, which the power method preserves at 1
// on graphs without dangling vertices (the generator guarantees outdeg
// >= 1).
func (r *Real) TotalRank() float64 {
	sum := 0.0
	for _, v := range r.Final() {
		sum += v
	}
	return sum
}

// Checksum returns a position-weighted hash of the final ranks. Every
// formulation accumulates each vertex's contributions in the same
// per-block order, so results are bitwise identical and the checksum is
// exact.
func (r *Real) Checksum() float64 {
	sum := 0.0
	for i, v := range r.Final() {
		sum += v * float64(i%251+1)
	}
	return sum
}

// MaxDiff returns the largest absolute rank difference from o.
func (r *Real) MaxDiff(o *Real) float64 {
	a, b := r.Final(), o.Final()
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
