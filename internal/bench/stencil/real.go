package stencil

import (
	"fmt"

	"nabbitc/internal/core"
	"nabbitc/internal/omp"
)

// Real is an executable instance of a stencil benchmark: actual arrays,
// actual arithmetic, runnable as a task graph (through core/Run), as
// OpenMP-style loops (through omp.Team), or serially. Results are
// verified by checksum between formulations.
//
// A Real instance is single-use: the grids mutate as the benchmark runs.
type Real struct {
	st     *Stencil
	kernel kernel
}

// kernel is the per-benchmark computation: update block b for sweep it.
type kernel interface {
	computeBlock(it, b int)
	checksum() float64
}

// NewReal allocates and deterministically initializes the benchmark data.
func (st *Stencil) NewReal() *Real {
	r := &Real{st: st}
	c := st.cfg
	switch c.Name {
	case "heat":
		r.kernel = newHeatKernel(c)
	case "fdtd":
		r.kernel = newFDTDKernel(c)
	case "life":
		r.kernel = newLifeKernel(c)
	default:
		panic(fmt.Sprintf("stencil: no real kernel for %q", c.Name))
	}
	return r
}

// Spec returns a task-graph spec whose Compute performs the real block
// update. Colors and footprints match the model spec.
func (r *Real) Spec(p int) (core.CostSpec, core.Key) {
	st := r.st
	return core.FuncSpec{
		PredsFn: st.preds,
		ColorFn: func(k core.Key) int { return st.colorOf(k, p) },
		ComputeFn: func(k core.Key) {
			if k == st.sink() {
				return
			}
			it, b := int(k)/st.cfg.Blocks, int(k)%st.cfg.Blocks
			r.kernel.computeBlock(it, b)
		},
		FootprintFn: st.footprint,
		BoundFn:     st.keyBound,
	}, st.sink()
}

// RunSerial executes all sweeps in order on the calling goroutine.
func (r *Real) RunSerial() {
	c := r.st.cfg
	for it := 0; it < c.Iterations; it++ {
		for b := 0; b < c.Blocks; b++ {
			r.kernel.computeBlock(it, b)
		}
	}
}

// RunOpenMP executes the sweeps on the team under the given schedule,
// with a barrier per sweep — the paper's OpenMP formulation.
func (r *Real) RunOpenMP(team *omp.Team, sched omp.Schedule) {
	c := r.st.cfg
	team.ForSweeps(c.Iterations, c.Blocks, sched, func(s, b, w int) {
		r.kernel.computeBlock(s, b)
	})
}

// Checksum returns a content hash of the final grid for cross-formulation
// verification.
func (r *Real) Checksum() float64 { return r.kernel.checksum() }

// Note on iteration-0 tasks: every formulation runs Iterations sweeps, and
// sweep 0 reads the initial grid, so task (0, b) performs sweep 0's update
// (tasks (it, b) perform sweep it). The double-buffered grids below make
// each sweep read buffer it%2 and write buffer (it+1)%2; the 3-point
// dependence structure is exactly what makes that race-free, which the
// integration tests verify by checksum against the serial run.

// ---- heat: 1D heat diffusion, float64 ----

type heatKernel struct {
	c    Config
	bufs [2][]float64
}

func newHeatKernel(c Config) *heatKernel {
	n := c.Blocks * c.CellsPerBlock
	k := &heatKernel{c: c}
	for i := range k.bufs {
		k.bufs[i] = make([]float64, n)
	}
	for i := range k.bufs[0] {
		k.bufs[0][i] = float64(i%97) * 0.25
	}
	return k
}

func (k *heatKernel) computeBlock(it, b int) {
	src, dst := k.bufs[it%2], k.bufs[(it+1)%2]
	lo := b * k.c.CellsPerBlock
	hi := lo + k.c.CellsPerBlock
	n := len(src)
	const alpha = 0.1
	for i := lo; i < hi; i++ {
		left, right := i-1, i+1
		if left < 0 {
			left = 0
		}
		if right >= n {
			right = n - 1
		}
		dst[i] = src[i] + alpha*(src[left]-2*src[i]+src[right])
	}
}

func (k *heatKernel) checksum() float64 {
	final := k.bufs[k.c.Iterations%2]
	sum := 0.0
	for i, v := range final {
		sum += v * float64(i%13+1)
	}
	return sum
}

// ---- fdtd: 1D finite-difference time domain (Yee scheme), float64 ----

type fdtdKernel struct {
	c Config
	// ez/hy are double-buffered per sweep so block updates of the same
	// sweep never write cells another block of that sweep reads.
	ez, hy [2][]float64
}

func newFDTDKernel(c Config) *fdtdKernel {
	n := c.Blocks * c.CellsPerBlock
	k := &fdtdKernel{c: c}
	for i := range k.ez {
		k.ez[i] = make([]float64, n)
		k.hy[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		k.ez[0][i] = float64((i*31)%101) * 0.01
		k.hy[0][i] = float64((i*17)%89) * 0.01
	}
	return k
}

func (k *fdtdKernel) computeBlock(it, b int) {
	ezs, ezd := k.ez[it%2], k.ez[(it+1)%2]
	hys, hyd := k.hy[it%2], k.hy[(it+1)%2]
	lo := b * k.c.CellsPerBlock
	hi := lo + k.c.CellsPerBlock
	n := len(ezs)
	const ce, ch = 0.5, 0.5
	// Both updates read only the sweep's source buffers, so a block is a
	// pure function of iteration it-1 state and the 3-point dependence
	// structure is exact (a textbook Yee update would read the E field
	// written this sweep, which is an intra-sweep dependence the task
	// graph does not express).
	for i := lo; i < hi; i++ {
		im := i - 1
		if im < 0 {
			im = 0
		}
		ezd[i] = ezs[i] + ce*(hys[i]-hys[im])
	}
	for i := lo; i < hi; i++ {
		ip := i + 1
		if ip >= n {
			ip = n - 1
		}
		hyd[i] = hys[i] + ch*(ezs[ip]-ezs[i])
	}
}

func (k *fdtdKernel) checksum() float64 {
	e := k.ez[k.c.Iterations%2]
	h := k.hy[k.c.Iterations%2]
	sum := 0.0
	for i := range e {
		sum += e[i]*float64(i%7+1) + h[i]*float64(i%11+1)
	}
	return sum
}

// ---- life: 2D game of life on a strip-decomposed byte grid ----

type lifeKernel struct {
	c    Config
	cols int
	rows int
	bufs [2][]byte
}

func newLifeKernel(c Config) *lifeKernel {
	// CellsPerBlock cells per strip; strips are rows/Blocks tall.
	cols := 256
	rowsPerStrip := c.CellsPerBlock / cols
	if rowsPerStrip < 1 {
		rowsPerStrip = 1
		cols = c.CellsPerBlock
	}
	rows := rowsPerStrip * c.Blocks
	k := &lifeKernel{c: c, cols: cols, rows: rows}
	for i := range k.bufs {
		k.bufs[i] = make([]byte, rows*cols)
	}
	for i := range k.bufs[0] {
		if (i*2654435761)%7 < 2 {
			k.bufs[0][i] = 1
		}
	}
	return k
}

func (k *lifeKernel) computeBlock(it, b int) {
	src, dst := k.bufs[it%2], k.bufs[(it+1)%2]
	rowsPerStrip := k.rows / k.c.Blocks
	r0 := b * rowsPerStrip
	r1 := r0 + rowsPerStrip
	for r := r0; r < r1; r++ {
		for c := 0; c < k.cols; c++ {
			live := 0
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= k.rows || cc < 0 || cc >= k.cols {
						continue
					}
					live += int(src[rr*k.cols+cc])
				}
			}
			i := r*k.cols + c
			switch {
			case src[i] == 1 && (live == 2 || live == 3):
				dst[i] = 1
			case src[i] == 0 && live == 3:
				dst[i] = 1
			default:
				dst[i] = 0
			}
		}
	}
}

func (k *lifeKernel) checksum() float64 {
	final := k.bufs[k.c.Iterations%2]
	sum := 0.0
	for i, v := range final {
		sum += float64(v) * float64(i%31+1)
	}
	return sum
}
