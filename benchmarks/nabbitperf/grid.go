package main

import (
	"sync/atomic"
	"time"

	"nabbitc/internal/core"
)

// gridSpec is an n×n 2-D wavefront: task (i,j) needs (i-1,j) and (i,j-1).
// Its value folds its predecessors' values and the current salt through a
// short spin, so the sink's value depends on every task having run, in
// dependence order, under this operation's salt.
type gridSpec struct {
	n      int
	preds  [][]core.Key
	steps  []uint8
	val    []uint64
	salt   uint64
	counts []atomic.Int32 // non-nil only during the census block
}

func newGridSpec(n int, seed uint64) *gridSpec {
	g := &gridSpec{
		n:     n,
		preds: make([][]core.Key, n*n),
		steps: make([]uint8, n*n),
		val:   make([]uint64, n*n),
	}
	flat := make([]core.Key, 0, 2*n*n)
	for k := range g.preds {
		i, j := k/n, k%n
		from := len(flat)
		if i > 0 {
			flat = append(flat, core.Key(k-n))
		}
		if j > 0 {
			flat = append(flat, core.Key(k-1))
		}
		g.preds[k] = flat[from:len(flat):len(flat)]
		g.steps[k] = spinSteps(seed, k)
	}
	return g
}

func (g *gridSpec) Predecessors(k core.Key) []core.Key { return g.preds[k] }

// Color bands rows over the workers, like the repository's wavefront
// kernels.
func (g *gridSpec) Color(k core.Key) int { return int(k) / g.n * workers / g.n }

func (g *gridSpec) KeyBound() int { return g.n * g.n }

func (g *gridSpec) Compute(k core.Key) {
	x := g.salt ^ uint64(k)
	for _, p := range g.preds[k] {
		x += g.val[p]
	}
	g.val[k] = spin(x, int(g.steps[k]))
	if g.counts != nil {
		g.counts[k].Add(1)
	}
}

func (g *gridSpec) sink() core.Key { return core.Key(g.n*g.n - 1) }

// walk is the reference: the same Predecessors and Compute the engine
// calls, in row-major (a topological) order on one goroutine.
func (g *gridSpec) walk() uint64 {
	for k := 0; k < g.n*g.n; k++ {
		_ = g.Predecessors(core.Key(k))
		g.Compute(core.Key(k))
	}
	return g.val[g.sink()]
}

// fineGrid: one persistent engine, op = one Execute of the whole grid.
// Tasks spin ~115 ns, so most cycles are the scheduler's own: node table,
// grouping, push/pop, notify.
type fineGrid struct {
	noPrepare
	n, ops int // grid side, operations per block
	seed   uint64

	spec *gridSpec
	e    *core.Engine
	want []uint64 // sink value per op, from the reference slice
	got  []uint64 // sink value per op, from the engine slice
	bad  []bool   // engine op returned an error or wrong node counts
	acc  statsAcc // includes the warm-up block
}

// gridSide is the side of the wavefront grid.
func gridSide(quick bool) int {
	if quick {
		return 48
	}
	return 256
}

func newFineGrid(quick bool, seed uint64) *fineGrid {
	f := &fineGrid{n: gridSide(quick), ops: 8, seed: seed}
	if quick {
		f.ops = 2
	}
	return f
}

func (f *fineGrid) setup() error {
	f.spec = newGridSpec(f.n, f.seed)
	f.want, f.got, f.bad = make([]uint64, f.ops), make([]uint64, f.ops), make([]bool, f.ops)
	e, err := core.NewEngine(f.spec, core.Options{Workers: workers, Policy: policy(f.seed)})
	f.e = e
	return err
}

func (f *fineGrid) saltOf(b, i int) uint64 { return mix(f.seed, uint64(b*f.ops+i)) }

func (f *fineGrid) ref(b int, tr *tracer, parent int32) []float64 {
	t0 := time.Now()
	for i := 0; i < f.ops; i++ {
		f.spec.salt = f.saltOf(b, i)
		sp := tr.begin(spWalk, parent, int32(i))
		f.want[i] = f.spec.walk()
		tr.end(sp)
	}
	return []float64{float64(time.Since(t0)) / float64(f.ops)}
}

func (f *fineGrid) eng(b int, tr *tracer, parent int32, log *opLog) {
	tasks := int64(f.n * f.n)
	for i := 0; i < f.ops; i++ {
		f.spec.salt = f.saltOf(b, i)
		t0 := time.Now()
		sp := tr.beginAt(spExecute, parent, int32(i), t0)
		st, err := f.e.Execute(f.spec.sink())
		t1 := time.Now()
		tr.endAt(sp, t1)
		log.add(t1.Sub(t0), 0)
		f.bad[i] = err != nil || st.TotalNodes() != tasks || int64(st.NodesCreated) != tasks
		f.got[i] = f.spec.val[f.spec.sink()]
		if err == nil {
			f.acc.add(st)
		}
	}
}

func (f *fineGrid) verify(int) (failed int) {
	for i := range f.bad {
		if f.bad[i] || f.got[i] != f.want[i] {
			failed++
		}
	}
	return failed
}

// census runs one Execute with a per-key counter armed: every key must be
// computed exactly once.
func (f *fineGrid) census() (attempted, failed int) {
	f.spec.counts = make([]atomic.Int32, f.n*f.n)
	_, err := f.e.Execute(f.spec.sink())
	counts := f.spec.counts
	f.spec.counts = nil
	if err != nil {
		return 1, 1
	}
	for k := range counts {
		if counts[k].Load() != 1 {
			return 1, 1
		}
	}
	return 1, 0
}

func (f *fineGrid) close() error { return f.e.Close() }

func (f *fineGrid) layers(res *runResult, tr *tracer) []metric {
	exec := scale(tr.durations(spExecute), 1e-3)
	tasks := float64(res.attempted * f.n * f.n) // each side of every block runs the same tasks
	engNs, refNs := res.engNs(), res.refNs()
	refPerTask := refNs / tasks
	mallocs, _ := res.allocs()
	n := res.attempted
	ms := []metric{
		{"core.execute_us_p50", quantile(exec, 0.5), "us", len(exec)},
		{"core.execute_us_p90", quantile(exec, 0.9), "us", len(exec)},
		{"core.tasks_per_s", tasks / (engNs / 1e9), "1/s", n},
		// Worker-time per task beyond what the serial walk spends on it.
		{"core.overhead_ns_per_task", workers*engNs/tasks - refPerTask, "ns", n},
		{"core.allocs_per_task", mallocs / tasks, "count", n},
	}
	return append(ms, f.acc.metrics(".fine")...)
}
